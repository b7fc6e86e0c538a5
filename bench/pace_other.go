//go:build !linux

package main

import "time"

// pace calls release(k) for k = 1..ticks, tick k being due at start +
// k*period. Outside linux it sleeps with time.Sleep, whose millisecond
// resolution on an idle process inflates client lag; results from such a
// host are not comparable with linux runs.
func pace(start time.Time, period time.Duration, ticks int, release func(k int) error) error {
	for k := 1; k <= ticks; k++ {
		if d := time.Until(start.Add(time.Duration(k) * period)); d > 0 {
			time.Sleep(d)
		}
		if err := release(k); err != nil {
			return err
		}
	}
	return nil
}
