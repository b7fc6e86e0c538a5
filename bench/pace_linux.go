package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pace calls release(k) for k = 1..ticks, tick k being due at start +
// k*period. It reads a periodic timerfd through the runtime poller, which
// wakes within microseconds of each deadline. time.Sleep cannot be used:
// an idle Go process waits in epoll with millisecond resolution, which
// adds about half a millisecond of lateness to every scheduled send. A
// tick released late is never skipped, so generator stalls show as lag.
func pace(start time.Time, period time.Duration, ticks int, release func(k int) error) error {
	const (
		clockMonotonic = 1
		tfdNonblock    = syscall.O_NONBLOCK
		tfdCloexec     = syscall.O_CLOEXEC
	)
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return fmt.Errorf("timerfd_create: %w", errno)
	}
	f := os.NewFile(fd, "pace-timerfd")
	defer f.Close()

	first := time.Until(start.Add(period))
	if first <= 0 {
		first = time.Microsecond
	}
	spec := [4]int64{ // struct itimerspec{it_interval, it_value}
		0, int64(period),
		int64(first / time.Second), int64(first % time.Second),
	}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var buf [8]byte
	k := 0
	for k < ticks {
		if _, err := f.Read(buf[:]); err != nil {
			return fmt.Errorf("timerfd read: %w", err)
		}
		for n := binary.NativeEndian.Uint64(buf[:]); n > 0 && k < ticks; n-- {
			k++
			if err := release(k); err != nil {
				return err
			}
		}
	}
	return nil
}
