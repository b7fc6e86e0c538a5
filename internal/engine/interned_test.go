package engine

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/conflict"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/registry"
	"repro/internal/simplex"
)

// The interned equivalence suite replays the oracle scenarios with the
// symbol-interned hot path (the default) paired against the string-keyed
// full-scan oracle: pre-bound condition trees, the id-indexed context store
// and the bitset dirty plumbing must produce byte-identical fired logs and
// owner maps. The VsStringFullScan variants feed the oracle through
// IngestEvent instead of the map path, so its map-materializing wire
// fallback is checked under the same workloads (the wire-ingest suite covers
// the opposite split).

func TestInternedEquivalenceScripted(t *testing.T) {
	runScriptedScenario(t, newEnginePair(t))
}

func TestInternedEquivalenceScriptedVsStringFullScan(t *testing.T) {
	runScriptedScenario(t, newOracleWirePair(t))
}

func TestInternedEquivalenceRandom(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			runRandomScenario(t, newEnginePair(t), seed)
		})
	}
}

func TestInternedEquivalenceRandomVsStringFullScan(t *testing.T) {
	for seed := int64(5); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			runRandomScenario(t, newOracleWirePair(t), seed)
		})
	}
}

func TestInternedEquivalenceRuleChurn(t *testing.T) {
	runChurnScenario(t, newEnginePair(t))
}

// newOracleWirePair pairs the interned engine, fed plain maps, against the
// full-scan oracle fed through the wire decoder and IngestEvent.
func newOracleWirePair(t *testing.T) *enginePair {
	p := newEnginePair(t)
	p.apply = wireApply(t, p.full)
	return p
}

// TestInternedSuffixInvalidationMidStream pins the resolution-generation
// semantics end to end: a rule reading the unqualified "temperature" must
// re-resolve when a qualified key the engine has never seen is interned
// mid-stream — including one that sorts before the current winner and an
// exact unqualified key that overrides every suffix match. The full-scan
// oracle recomputes the suffix scan on every evaluation, so any stale cache
// on the interned side diverges the fired logs.
func TestInternedSuffixInvalidationMidStream(t *testing.T) {
	p := newEnginePair(t)
	if err := p.db.Add(core.NewRule("hot", "tom",
		core.DeviceRef{Name: "fan"},
		core.Action{Verb: "turn-on"},
		&core.Compare{Var: "temperature", Op: simplex.GT, Value: 25})); err != nil {
		t.Fatal(err)
	}

	// "kitchen/temperature" resolves the unqualified name; rule fires.
	p.event(device.TypeThermometer, "thermometer", "kitchen", map[string]string{"temperature": "30"})
	if owners := p.inc.Owners(); owners["fan"] != "hot" {
		t.Fatalf("owners = %v, want fan owned via kitchen resolution", owners)
	}

	// A new qualified key that sorts BEFORE kitchen takes over the
	// resolution with a cold value: the rule must lapse.
	p.event(device.TypeThermometer, "thermometer", "attic", map[string]string{"temperature": "10"})
	if owners := p.inc.Owners(); owners["fan"] != "" {
		t.Fatalf("owners = %v, want fan released after attic takes resolution", owners)
	}

	// A key sorting AFTER the winner must not change the resolution.
	p.event(device.TypeThermometer, "thermometer", "zebra room", map[string]string{"temperature": "40"})
	if owners := p.inc.Owners(); owners["fan"] != "" {
		t.Fatalf("owners = %v, want resolution pinned to attic", owners)
	}

	// Updating the winner's value (no population growth) flows through.
	p.event(device.TypeThermometer, "thermometer", "attic", map[string]string{"temperature": "35"})
	if owners := p.inc.Owners(); owners["fan"] != "hot" {
		t.Fatalf("owners = %v, want fan re-owned on attic update", owners)
	}

	// An exact unqualified key wins over every suffix match.
	p.event(device.TypeThermometer, "thermometer", "", map[string]string{"temperature": "5"})
	if owners := p.inc.Owners(); owners["fan"] != "" {
		t.Fatalf("owners = %v, want fan released once exact key wins", owners)
	}
}

// TestInternedSteadyStateZeroAlloc is the tentpole's allocation budget: a
// steady-state single-key sensor event — warm ingest cache, no readiness
// flip, no arbitration — must evaluate with zero heap allocations.
func TestInternedSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	db := registry.New()
	for i := 0; i < 100; i++ {
		v := "temperature"
		if i > 0 {
			v = fmt.Sprintf("room%d/temperature", i)
		}
		if err := db.Add(core.NewRule(fmt.Sprintf("r%d", i), "u",
			core.DeviceRef{Name: fmt.Sprintf("dev%d", i)},
			core.Action{Verb: "turn-on"},
			&core.Compare{Var: v, Op: simplex.GT, Value: 50})); err != nil {
			t.Fatal(err)
		}
	}
	now := time.Date(2005, 3, 7, 18, 0, 0, 0, time.UTC)
	e := New(db, conflict.NewTable(), func() time.Time { return now })
	events := []map[string]string{
		{"temperature": "20"},
		{"temperature": "21"},
	}
	for i := 1; i < 100; i++ {
		e.HandleDeviceEvent(device.TypeThermometer, "thermometer", fmt.Sprintf("room%d", i), events[0])
	}
	for _, ev := range events { // warm the ingest cache for room0
		e.HandleDeviceEvent(device.TypeThermometer, "thermometer", "room0", ev)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		e.HandleDeviceEvent(device.TypeThermometer, "thermometer", "room0", events[i%2])
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state single-key event allocated %v times, want 0", allocs)
	}
}

// TestMalformedPresenceVarIgnored: a bare "presence-" variable (empty user
// name) is rejected identically on every path — recording it would count a
// phantom "" user in the presence quantifiers and diverge the fired logs.
func TestMalformedPresenceVarIgnored(t *testing.T) {
	t.Run("vs-fullscan", func(t *testing.T) {
		p := newEnginePair(t)
		if err := p.db.Add(core.NewRule("off", "tom",
			core.DeviceRef{Name: "fluorescent light"},
			core.Action{Verb: "turn-off"},
			&core.Nobody{Place: "home"})); err != nil {
			t.Fatal(err)
		}
		p.each(func(e *Engine) { e.SetUsers([]string{"tom"}) })
		// The malformed variable must not register a phantom presence:
		// nobody-at-home still holds and both logs stay identical (the
		// pair's check asserts that after every stimulus).
		p.event(device.TypePresenceSensor, "presence sensor", "home",
			map[string]string{"presence-": "living room"})
		if owners := p.inc.Owners(); owners["fluorescent light"] != "off" {
			t.Fatalf("owners = %v, want nobody-at-home rule in effect", owners)
		}
		if locs := p.inc.Snapshot().Locations; len(locs) != 0 {
			t.Fatalf("Locations = %v, want no phantom user recorded", locs)
		}
	})
}

// TestSnapshotCaching pins the observability path: repeated Snapshot calls
// without context changes return the same object (no clone per poll), any
// data write or clock advance refreshes it, and Context still hands out
// independent deep copies.
func TestSnapshotCaching(t *testing.T) {
	db := registry.New()
	now := time.Date(2005, 3, 7, 18, 0, 0, 0, time.UTC)
	e := New(db, conflict.NewTable(), func() time.Time { return now })
	e.HandleDeviceEvent(device.TypeThermometer, "thermometer", "hall", map[string]string{"temperature": "21"})

	s1 := e.Snapshot()
	s2 := e.Snapshot()
	if s1 != s2 {
		t.Fatal("idle Snapshot calls should return the cached object")
	}
	if v, ok := s1.Number("hall/temperature"); !ok || v != 21 {
		t.Fatalf("snapshot Number = %v,%v", v, ok)
	}

	// A data write invalidates the cache and the new snapshot sees it.
	e.HandleDeviceEvent(device.TypeThermometer, "thermometer", "hall", map[string]string{"temperature": "22"})
	s3 := e.Snapshot()
	if s3 == s1 {
		t.Fatal("Snapshot not refreshed after context write")
	}
	if v, _ := s3.Number("hall/temperature"); v != 22 {
		t.Fatalf("refreshed snapshot reads %v, want 22", v)
	}
	// The old snapshot is immutable history.
	if v, _ := s1.Number("hall/temperature"); v != 21 {
		t.Fatalf("old snapshot mutated: %v", v)
	}

	// A clock advance (Tick without data change) also refreshes, so
	// time-sensitive reads (event TTLs) stay current.
	now = now.Add(time.Hour)
	e.Tick()
	s4 := e.Snapshot()
	if s4 == s3 {
		t.Fatal("Snapshot not refreshed after clock advance")
	}
	if !s4.Now.Equal(now) {
		t.Fatalf("snapshot Now = %v, want %v", s4.Now, now)
	}

	// Context() clones are private: mutating one touches neither the cache
	// nor the engine.
	c := e.Context()
	c.Numbers["hall/temperature"] = 99
	if v, _ := e.Snapshot().Number("hall/temperature"); v != 22 {
		t.Fatalf("clone mutation leaked into snapshot: %v", v)
	}
}

// TestInternedIngestCacheAcrossSignatures checks that the ingest cache keys
// on the full device signature: the same variable name arriving from
// different locations maps to different context keys.
func TestInternedIngestCacheAcrossSignatures(t *testing.T) {
	db := registry.New()
	now := time.Date(2005, 3, 7, 18, 0, 0, 0, time.UTC)
	e := New(db, conflict.NewTable(), func() time.Time { return now })
	e.HandleDeviceEvent(device.TypeThermometer, "thermometer", "kitchen", map[string]string{"temperature": "20"})
	e.HandleDeviceEvent(device.TypeThermometer, "thermometer", "hall", map[string]string{"temperature": "25"})
	e.HandleDeviceEvent(device.TypeThermometer, "thermometer", "kitchen", map[string]string{"temperature": "21"})
	ctx := e.Snapshot()
	if v, _ := ctx.Number("kitchen/temperature"); v != 21 {
		t.Fatalf("kitchen = %v, want 21", v)
	}
	if v, _ := ctx.Number("hall/temperature"); v != 25 {
		t.Fatalf("hall = %v, want 25", v)
	}
	// Field boundaries are part of the signature whatever bytes the fields
	// hold: these two events differ only in where name ends and location
	// begins.
	e.HandleDeviceEvent(device.TypeThermometer, "x\xffy", "z", map[string]string{"temperature": "20"})
	e.HandleDeviceEvent(device.TypeThermometer, "x", "y\xffz", map[string]string{"temperature": "25"})
	ctx = e.Snapshot()
	if v, _ := ctx.Number("z/temperature"); v != 20 {
		t.Fatalf("z = %v, want 20", v)
	}
	if v, _ := ctx.Number("y\xffz/temperature"); v != 25 {
		t.Fatalf("y\\xffz = %v, want 25", v)
	}
	// Appliance states keep their name-qualified and room-qualified aliases.
	e.HandleDeviceEvent(device.TypeTV, "tv", "living room", map[string]string{"power": "1"})
	ctx = e.Snapshot()
	for _, key := range []string{"tv/power", "living room/tv/power"} {
		if v, ok := ctx.Bool(key); !ok || !v {
			t.Fatalf("Bool(%q) = %v,%v, want true", key, v, ok)
		}
	}
}
