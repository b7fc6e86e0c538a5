package core

import (
	"reflect"
	"testing"

	"repro/internal/simplex"
)

// TestCondDepsPerKind pins down, for every Condition kind the compiler can
// emit, exactly which context keys the extractor reports and whether the
// condition is time-dependent. (The language has no standalone negation;
// and/or/leaf kinds below are the complete tree vocabulary.)
func TestCondDepsPerKind(t *testing.T) {
	cases := []struct {
		name     string
		cond     Condition
		wantKeys []string
		wantTime bool
	}{
		{"nil", nil, nil, false},
		{"always", Always{}, nil, false},
		{"always-ptr", &Always{}, nil, false},
		{"compare-unqualified",
			&Compare{Var: "temperature", Op: simplex.GT, Value: 28},
			[]string{"num/temperature"}, false},
		{"compare-qualified",
			&Compare{Var: "living room/temperature", Op: simplex.GT, Value: 28},
			[]string{"num/living room/temperature"}, false},
		{"bool",
			&BoolIs{Var: "tv/power", Want: true},
			[]string{"bool/tv/power"}, false},
		{"presence-person",
			&Presence{Person: "tom", Place: "living room"},
			[]string{"loc/tom"}, false},
		{"presence-someone",
			&Presence{Person: Someone, Place: "living room"},
			[]string{"loc/*"}, false},
		{"nobody",
			&Nobody{Place: "home"},
			[]string{"loc/*"}, false},
		{"everyone",
			&Everyone{Place: "living room"},
			[]string{"loc/*"}, false},
		{"arrival",
			&Arrival{Person: "alan", Event: "home-from-work"},
			[]string{"event/home-from-work"}, true},
		{"arrival-someone",
			&Arrival{Person: Someone, Event: "home-from-shopping"},
			[]string{"event/home-from-shopping"}, true},
		{"on-air",
			&OnAir{Keyword: "baseball game"},
			[]string{"epg/programs"}, false},
		{"on-air-favorite",
			&OnAir{Category: "movie", FavoriteOf: "emily"},
			[]string{"epg/programs"}, false},
		{"time-window",
			&TimeWindow{FromMin: 22 * 60, ToMin: 6 * 60, Weekday: -1},
			nil, true},
		{"duration",
			&Duration{Inner: &BoolIs{Var: "entrance door/locked", Want: false}, Seconds: 3600, Key: "k"},
			[]string{"bool/entrance door/locked"}, true},
		{"and",
			&And{Terms: []Condition{
				&Compare{Var: "temperature", Op: simplex.GT, Value: 28},
				&Compare{Var: "humidity", Op: simplex.GT, Value: 60},
			}},
			[]string{"num/humidity", "num/temperature"}, false},
		{"or",
			&Or{Terms: []Condition{
				&Presence{Person: "tom", Place: "hall"},
				&BoolIs{Var: "hall/dark", Want: true},
			}},
			[]string{"bool/hall/dark", "loc/tom"}, false},
		{"nested",
			&And{Terms: []Condition{
				&Or{Terms: []Condition{
					&Arrival{Person: "alan", Event: "home-from-work"},
					&Presence{Person: Someone, Place: "living room"},
				}},
				&Duration{Inner: &Compare{Var: "illuminance", Op: simplex.LT, Value: 10}, Seconds: 60, Key: "k"},
			}},
			[]string{"event/home-from-work", "loc/*", "num/illuminance"}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := CondDeps(tc.cond)
			keys := got.SortedKeys()
			if len(keys) == 0 {
				keys = nil
			}
			if !reflect.DeepEqual(keys, tc.wantKeys) {
				t.Errorf("keys = %v, want %v", keys, tc.wantKeys)
			}
			if got.Time != tc.wantTime {
				t.Errorf("time = %v, want %v", got.Time, tc.wantTime)
			}
			// Completeness: no kind the compiler can emit falls into the
			// conservative unknown bucket that defeats indexing.
			if got.Unknown {
				t.Errorf("condition kind %T is unknown to the extractor", tc.cond)
			}
		})
	}
}

// unknownCond is a Condition implemented outside the extractor's vocabulary.
type unknownCond struct{ Always }

// TestCondDepsUnknownKindIsTimeDependent checks the conservative fallback:
// a condition the extractor cannot analyse must be re-evaluated every pass,
// and is flagged Unknown so tests (and tooling) can detect the coverage gap.
func TestCondDepsUnknownKindIsTimeDependent(t *testing.T) {
	got := CondDeps(unknownCond{})
	if !got.Time {
		t.Error("unknown condition kind must be conservatively time-dependent")
	}
	if !got.Unknown {
		t.Error("unknown condition kind must be flagged Unknown")
	}
}

// providerCond is an external condition kind that reports its dependencies
// through the DepsProvider interface instead of the conservative bucket.
type providerCond struct{ Always }

func (providerCond) AddCondDeps(d *DepSet) {
	d.AddKey(NumberDepKey("co2"))
}

// TestCondDepsProvider checks that external condition kinds can opt into
// exact extraction: their reported keys are indexed and they are neither
// time-dependent nor unknown.
func TestCondDepsProvider(t *testing.T) {
	got := CondDeps(providerCond{})
	if got.Unknown || got.Time {
		t.Errorf("provider kind misclassified: unknown=%v time=%v", got.Unknown, got.Time)
	}
	if !got.Has("num/co2") {
		t.Errorf("provider keys = %v, want num/co2", got.SortedKeys())
	}
	// Inside a tree, provider deps merge with the analysed kinds'.
	tree := &And{Terms: []Condition{
		providerCond{},
		&TimeWindow{FromMin: 0, ToMin: 60, Weekday: -1},
	}}
	merged := CondDeps(tree)
	if !merged.Has("num/co2") || !merged.Time || merged.Unknown {
		t.Errorf("merged = keys %v time %v unknown %v", merged.SortedKeys(), merged.Time, merged.Unknown)
	}
}

func TestDirtyKeyHelpers(t *testing.T) {
	if got := NumberDirtyKeys("living room/temperature"); !reflect.DeepEqual(got,
		[]string{"num/living room/temperature", "num/temperature"}) {
		t.Errorf("NumberDirtyKeys qualified = %v", got)
	}
	if got := NumberDirtyKeys("temperature"); !reflect.DeepEqual(got, []string{"num/temperature"}) {
		t.Errorf("NumberDirtyKeys unqualified = %v", got)
	}
	if got := BoolDirtyKeys("tv/power"); !reflect.DeepEqual(got, []string{"bool/tv/power", "bool/power"}) {
		t.Errorf("BoolDirtyKeys = %v", got)
	}
	if got := LocationDirtyKeys("tom"); !reflect.DeepEqual(got, []string{"loc/tom", "loc/*"}) {
		t.Errorf("LocationDirtyKeys = %v", got)
	}
}
