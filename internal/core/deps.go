package core

import (
	"sort"
	"strings"
)

// Dependency keys name the slices of Context a condition reads. The engine
// marks the same keys dirty when it writes the context, and the registry
// indexes rules by them, so a sensor event only re-evaluates the rules whose
// dependency set it intersects.
//
// Namespaces keep the key spaces from colliding:
//
//	num/<var>      numeric sensor reading (Context.SetNumber)
//	bool/<var>     boolean device/sensor state (Context.SetBool)
//	loc/<person>   one user's location (Context.SetLocation)
//	loc/*          any user's location (nobody/everyone/someone)
//	event/<name>   an arrival event by canonical name (Context.RecordEvent)
//	epg/programs   the on-air programme list (Context.SetPrograms)
const (
	// LocationWildcardKey is read by conditions quantifying over every
	// user's location (nobody, everyone, "someone at ...").
	LocationWildcardKey = "loc/*"
	// ProgramsDepKey is read by on-air conditions.
	ProgramsDepKey = "epg/programs"
)

// NumberDepKey returns the dependency key for a numeric variable as written
// in a condition ("temperature" or "living room/temperature").
func NumberDepKey(name string) string { return "num/" + name }

// BoolDepKey returns the dependency key for a boolean variable.
func BoolDepKey(name string) string { return "bool/" + name }

// LocationDepKey returns the dependency key for one user's location.
func LocationDepKey(person string) string { return "loc/" + person }

// EventDepKey returns the dependency key for an arrival event name.
func EventDepKey(event string) string { return "event/" + event }

// NumberDirtyKeys returns the dependency keys invalidated by writing the
// numeric context entry key. A qualified entry ("living room/temperature")
// also invalidates the unqualified name, because Context.Number resolves
// unqualified variables by suffix match over every qualified entry.
func NumberDirtyKeys(key string) []string {
	if i := strings.LastIndex(key, "/"); i >= 0 {
		return []string{NumberDepKey(key), NumberDepKey(key[i+1:])}
	}
	return []string{NumberDepKey(key)}
}

// BoolDirtyKeys is NumberDirtyKeys for boolean context entries.
func BoolDirtyKeys(key string) []string {
	if i := strings.LastIndex(key, "/"); i >= 0 {
		return []string{BoolDepKey(key), BoolDepKey(key[i+1:])}
	}
	return []string{BoolDepKey(key)}
}

// LocationDirtyKeys returns the dependency keys invalidated by moving one
// user: the user's own key plus the wildcard read by quantified conditions.
func LocationDirtyKeys(person string) []string {
	return []string{LocationDepKey(person), LocationWildcardKey}
}

// DepSet is the result of dependency extraction over a condition tree: the
// context keys the condition reads, plus whether its truth can change with
// the passage of time alone (time windows, duration holds, and arrival
// events, whose freshness expires).
type DepSet struct {
	Keys map[string]struct{}
	// Time marks conditions whose value can flip between two evaluations of
	// the same context state as the clock advances.
	Time bool
	// Unknown marks trees containing a condition kind the extractor could
	// not analyse. Such trees are conservatively time-dependent (correct but
	// unindexable); deps_test.go proves no kind the compiler emits sets it.
	Unknown bool
}

// AddKey records one context key the condition reads.
func (d *DepSet) AddKey(key string) {
	d.Keys[key] = struct{}{}
}

// DepsProvider lets condition kinds defined outside this package report
// their dependencies instead of falling into the conservative
// time-dependent bucket: AddCondDeps must record every context key the
// condition reads (DepSet.AddKey) and set Time if its truth can change with
// the clock alone.
type DepsProvider interface {
	AddCondDeps(d *DepSet)
}

// Has reports whether the set contains the key.
func (d DepSet) Has(key string) bool {
	_, ok := d.Keys[key]
	return ok
}

// IDsIn interns every dependency key into tab and returns the ids sorted
// ascending — the compiled form the engine and registry index by. The
// namespacing of the string keys carries over: "num/temperature" and
// "bool/temperature" intern to distinct ids.
func (d DepSet) IDsIn(tab *Symtab) []uint32 {
	if len(d.Keys) == 0 {
		return nil
	}
	out := make([]uint32, 0, len(d.Keys))
	for k := range d.Keys {
		out = append(out, tab.Intern(k))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SortedKeys returns the keys in sorted order (for tests and display).
func (d DepSet) SortedKeys() []string {
	out := make([]string, 0, len(d.Keys))
	for k := range d.Keys {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// CondDeps extracts the dependency set of a condition tree. A nil condition
// (and Always) reads nothing and never changes. Every condition kind the
// compiler emits is analysed exactly; implementations outside this package
// either report themselves through DepsProvider or are conservatively
// marked time-dependent (and Unknown), so an indexing engine still
// re-evaluates them every pass.
func CondDeps(c Condition) DepSet {
	d := DepSet{Keys: make(map[string]struct{})}
	addCondDeps(c, &d)
	return d
}

func addCondDeps(c Condition, d *DepSet) {
	switch n := c.(type) {
	case nil:
	case *And:
		for _, t := range n.Terms {
			addCondDeps(t, d)
		}
	case *Or:
		for _, t := range n.Terms {
			addCondDeps(t, d)
		}
	case *Compare:
		d.Keys[NumberDepKey(n.Var)] = struct{}{}
	case *BoolIs:
		d.Keys[BoolDepKey(n.Var)] = struct{}{}
	case *Presence:
		if n.Person == Someone {
			d.Keys[LocationWildcardKey] = struct{}{}
		} else {
			d.Keys[LocationDepKey(n.Person)] = struct{}{}
		}
	case *Nobody:
		d.Keys[LocationWildcardKey] = struct{}{}
	case *Everyone:
		d.Keys[LocationWildcardKey] = struct{}{}
	case *Arrival:
		// Arrival freshness expires after the event TTL, so the condition is
		// additionally time-dependent.
		d.Keys[EventDepKey(n.Event)] = struct{}{}
		d.Time = true
	case *OnAir:
		// Favourite keywords (Context.Favorites) are engine configuration,
		// not sensor state; the engine re-evaluates everything when they
		// change, so they are not part of the key space.
		d.Keys[ProgramsDepKey] = struct{}{}
	case *TimeWindow:
		d.Time = true
	case *Duration:
		addCondDeps(n.Inner, d)
		d.Time = true
	case Always, *Always:
	default:
		if p, ok := c.(DepsProvider); ok {
			p.AddCondDeps(d)
			return
		}
		d.Time = true
		d.Unknown = true
	}
}
