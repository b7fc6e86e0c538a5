package core

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// TestInternedCloneRendersPlain drives a plain and an interned context
// through the same random writes, clock advances past the event TTL and
// compaction epochs. After every step the interned context's rendering
// (Clone) must deep-equal the plain one's, and every string-keyed presence
// and event reader must agree between the two.
func TestInternedCloneRendersPlain(t *testing.T) {
	people := []string{"tom", "alan", "emily", "guest"}
	places := []string{"living room", "kitchen", "hall"}
	events := []string{"home-from-work", "home-from-shopping"}
	numbers := []string{"temperature", "living room/temperature", "kitchen/humidity"}
	bools := []string{"tv/power", "hall/dark", "entrance door/locked"}

	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		now := time.Date(2005, 3, 7, 18, 0, 0, 0, time.UTC)
		tab := NewSymtab()
		plain, in := NewContext(now), NewInternedContext(now, tab)
		plain.EventTTL, in.EventTTL = 10*time.Minute, 10*time.Minute
		each := func(fn func(c *Context)) { fn(plain); fn(in) }

		for step := 0; step < 300; step++ {
			var op string
			switch rng.Intn(8) {
			case 0:
				k, v := numbers[rng.Intn(len(numbers))], float64(rng.Intn(40))
				op = "SetNumber " + k
				each(func(c *Context) { c.SetNumber(k, v) })
			case 1:
				k, v := bools[rng.Intn(len(bools))], rng.Intn(2) == 0
				op = "SetBool " + k
				each(func(c *Context) { c.SetBool(k, v) })
			case 2, 3:
				person, place := people[rng.Intn(len(people))], ""
				if rng.Intn(3) > 0 {
					place = places[rng.Intn(len(places))]
				}
				op = "SetLocation " + person + " " + place
				each(func(c *Context) { c.SetLocation(person, place) })
			case 4:
				var users []string
				for _, p := range people {
					if rng.Intn(2) == 0 {
						users = append(users, p)
					}
				}
				op = "SetUsers"
				each(func(c *Context) { c.SetUsers(users) })
			case 5:
				person, event := people[rng.Intn(len(people))], events[rng.Intn(len(events))]
				op = "RecordEvent " + person + " " + event
				each(func(c *Context) { c.RecordEvent(person, event) })
			case 6:
				d := time.Duration(rng.Intn(6)) * time.Minute
				op = "advance " + d.String()
				each(func(c *Context) { c.Now = c.Now.Add(d) })
			case 7:
				op = "compaction epoch"
				live := &IDSet{}
				in.MarkLive(live)
				remap, _ := tab.Compact(live)
				in.Remap(remap, tab.Len())
			}

			if got, want := in.Clone(), plain.Clone(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d (%s): interned renders\n%+v\nplain renders\n%+v", seed, step, op, got, want)
			}
			for _, place := range append([]string{"home"}, places...) {
				if got, want := in.AnyoneAt(place), plain.AnyoneAt(place); got != want {
					t.Fatalf("seed %d step %d (%s): AnyoneAt(%q) = %v, plain %v", seed, step, op, place, got, want)
				}
				if got, want := in.EveryoneAt(place), plain.EveryoneAt(place); got != want {
					t.Fatalf("seed %d step %d (%s): EveryoneAt(%q) = %v, plain %v", seed, step, op, place, got, want)
				}
				for _, person := range people {
					if got, want := in.At(person, place), plain.At(person, place); got != want {
						t.Fatalf("seed %d step %d (%s): At(%q, %q) = %v, plain %v", seed, step, op, person, place, got, want)
					}
				}
			}
			for _, event := range events {
				for _, person := range append([]string{Someone}, people...) {
					if got, want := in.HasEvent(person, event), plain.HasEvent(person, event); got != want {
						t.Fatalf("seed %d step %d (%s): HasEvent(%q, %q) = %v, plain %v", seed, step, op, person, event, got, want)
					}
				}
			}
		}
		if in.Numbers != nil || in.Bools != nil || in.Locations != nil || in.Events != nil {
			t.Fatalf("seed %d: the interned context grew a string map", seed)
		}
	}
}
