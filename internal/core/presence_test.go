package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// ctxPair drives a plain string-keyed context and an interned context
// through identical mutations; every presence and event query must agree
// between the map representation, the id-indexed store and the bound
// condition forms.
type ctxPair struct {
	t     *testing.T
	tab   *Symtab
	plain *Context
	in    *Context
}

func newCtxPair(t *testing.T) *ctxPair {
	now := time.Date(2005, 3, 7, 18, 0, 0, 0, time.UTC)
	tab := NewSymtab()
	p := &ctxPair{t: t, tab: tab, plain: NewContext(now), in: NewInternedContext(now, tab)}
	p.plain.EventTTL = 10 * time.Minute
	p.in.EventTTL = 10 * time.Minute
	return p
}

func (p *ctxPair) setLocation(person, place string) {
	p.plain.SetLocation(person, place)
	p.in.SetLocation(person, place)
}

func (p *ctxPair) setUsers(users []string) {
	p.plain.SetUsers(users)
	p.in.SetUsers(users)
}

func (p *ctxPair) recordEvent(person, event string) {
	p.plain.RecordEvent(person, event)
	p.in.RecordEvent(person, event)
}

func (p *ctxPair) advance(d time.Duration) {
	p.plain.Now = p.plain.Now.Add(d)
	p.in.Now = p.in.Now.Add(d)
}

// checkCond asserts the unbound condition on the plain context, the unbound
// condition on the interned context (the string readers) and the bound
// form on the interned context all agree.
func (p *ctxPair) checkCond(c Condition) {
	p.t.Helper()
	want := c.Eval(p.plain)
	if got := c.Eval(p.in); got != want {
		p.t.Fatalf("%s: unbound on interned ctx = %v, plain = %v", c, got, want)
	}
	if got := Bind(c, p.tab).Eval(p.in); got != want {
		p.t.Fatalf("%s: bound on interned ctx = %v, plain = %v", c, got, want)
	}
}

func (p *ctxPair) checkAll(people, places, events []string) {
	p.t.Helper()
	for _, place := range places {
		p.checkCond(&Nobody{Place: place})
		p.checkCond(&Everyone{Place: place})
		p.checkCond(&Presence{Person: Someone, Place: place})
		for _, person := range people {
			p.checkCond(&Presence{Person: person, Place: place})
		}
	}
	for _, event := range events {
		p.checkCond(&Arrival{Person: Someone, Event: event})
		for _, person := range people {
			p.checkCond(&Arrival{Person: person, Event: event})
		}
	}
}

// TestInternedPresenceScripted pins the presence store's semantics through
// the paper's moves: arrivals, room changes, leaving home, the "home"
// wildcard place and the everyone/nobody edge cases.
func TestInternedPresenceScripted(t *testing.T) {
	p := newCtxPair(t)
	people := []string{"tom", "alan", "emily"}
	places := []string{"home", "living room", "kitchen", "bedroom"}
	events := []string{"home-from-work", "home-from-shopping"}

	// No users registered: everyone-at is false even with an empty home.
	p.checkAll(people, places, events)

	p.setUsers(people)
	p.checkAll(people, places, events) // empty home: nobody true, everyone false

	p.setLocation("tom", "living room")
	p.checkAll(people, places, events)

	p.setLocation("alan", "living room")
	p.setLocation("emily", "kitchen")
	p.checkAll(people, places, events)

	// A non-user's presence still counts for nobody/someone.
	p.setLocation("guest", "bedroom")
	p.checkAll(people, places, events)

	// Everyone gathers in the living room (guest elsewhere: everyone-at only
	// quantifies registered users).
	p.setLocation("emily", "living room")
	p.checkAll(people, places, events)

	// Moving a person between rooms and out of the home.
	p.setLocation("tom", "kitchen")
	p.checkAll(people, places, events)
	p.setLocation("tom", "")
	p.checkAll(people, places, events)
	p.setLocation("guest", "")
	p.setLocation("alan", "")
	p.setLocation("emily", "")
	p.checkAll(people, places, events) // home empty again

	// Arrival events: fresh, refreshed, expired.
	p.recordEvent("alan", "home-from-work")
	p.checkAll(people, places, events)
	p.advance(5 * time.Minute)
	p.checkAll(people, places, events) // still fresh
	p.recordEvent("emily", "home-from-shopping")
	p.advance(6 * time.Minute)
	p.checkAll(people, places, events) // alan's expired, emily's fresh
	p.advance(6 * time.Minute)
	p.checkAll(people, places, events) // both expired
	p.recordEvent("alan", "home-from-work")
	p.checkAll(people, places, events) // re-fired after expiry

	// Shrinking the user list keeps everyone-at truthful.
	p.setLocation("tom", "living room")
	p.setUsers([]string{"tom"})
	p.checkAll(people, places, events)
}

// TestInternedPresenceRandom fuzzes the paired contexts through random
// mutation streams and asserts full agreement after every step.
func TestInternedPresenceRandom(t *testing.T) {
	people := []string{"tom", "alan", "emily", "guest", "visitor"}
	places := []string{"home", "living room", "kitchen", "bedroom", "hall"}
	events := []string{"home-from-work", "home-from-shopping"}
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			p := newCtxPair(t)
			p.setUsers(people[:3])
			for step := 0; step < 400; step++ {
				switch rng.Intn(10) {
				case 0, 1, 2, 3:
					place := ""
					if rng.Intn(4) > 0 {
						// "home" is also a legal concrete place name; the
						// wildcard semantics live in the condition, not here.
						place = places[rng.Intn(len(places))]
					}
					p.setLocation(people[rng.Intn(len(people))], place)
				case 4, 5:
					p.recordEvent(people[rng.Intn(len(people))], events[rng.Intn(len(events))])
				case 6:
					p.advance(time.Duration(1+rng.Intn(8)) * time.Minute)
				case 7:
					users := append([]string(nil), people[:1+rng.Intn(len(people))]...)
					p.setUsers(users)
				default:
					p.advance(time.Duration(rng.Intn(90)) * time.Second)
				}
				p.checkAll(people, places, events)
			}
		})
	}
}

// TestInternedPresenceCounters cross-checks the reverse-index counters the
// quantified conditions read against a recount of the plain Locations map after a
// mutation stream.
func TestInternedPresenceCounters(t *testing.T) {
	p := newCtxPair(t)
	rng := rand.New(rand.NewSource(7))
	people := []string{"a", "b", "c", "d"}
	places := []string{"x", "y", "z"}
	for step := 0; step < 200; step++ {
		place := ""
		if rng.Intn(3) > 0 {
			place = places[rng.Intn(len(places))]
		}
		p.setLocation(people[rng.Intn(len(people))], place)

		present := 0
		for _, loc := range p.plain.Locations {
			if loc != "" {
				present++
			}
		}
		if got := p.in.AnyoneHome(); got != (present > 0) {
			t.Fatalf("step %d: AnyoneHome = %v with %d present", step, got, present)
		}
		for _, pl := range places {
			count := 0
			for _, loc := range p.plain.Locations {
				if loc == pl {
					count++
				}
			}
			id, ok := p.tab.Lookup(pl)
			if !ok {
				continue
			}
			if got := p.in.AnyoneAtID(id); got != (count > 0) {
				t.Fatalf("step %d: AnyoneAtID(%s) = %v with %d there", step, pl, got, count)
			}
		}
	}
}
