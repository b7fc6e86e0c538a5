package engine

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/internal/conflict"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/ingest"
	"repro/internal/registry"
	"repro/internal/simplex"
)

// The wire-ingest equivalence suite replays the oracle scenarios with the
// interned engine fed through the byte path — each stimulus is marshalled to
// the HTTP event-body shape, run through the wire decoder, and applied with
// IngestEvent — while the full-scan oracle takes the same stimulus as a
// plain map through HandleDeviceEvent. Fired logs and owner maps must stay
// byte-identical: decoding plus the byte-keyed ingest caches must be
// invisible next to the oracle's string ingest.

// newWirePair pairs an interned engine fed via the wire decoder against the
// full-scan oracle fed plain maps.
func newWirePair(t *testing.T) *enginePair {
	p := newEnginePair(t)
	p.apply = wireApply(t, p.inc)
	return p
}

// wireApply routes event stimuli for engine w through the wire decoder and
// IngestEvent (then a Tick); every other engine takes them as a plain map
// through HandleDeviceEvent.
func wireApply(t *testing.T, w *Engine) func(e *Engine, deviceType, name, location string, vars map[string]string) {
	ev := ingest.AcquireEvent()
	t.Cleanup(ev.Release)
	return func(e *Engine, deviceType, name, location string, vars map[string]string) {
		if e != w {
			e.HandleDeviceEvent(deviceType, name, location, vars)
			return
		}
		e.IngestEvent(decodeWire(t, ev, deviceType, name, location, vars))
		e.Tick()
	}
}

func decodeWire(t *testing.T, ev *ingest.Event, deviceType, name, location string, vars map[string]string) *ingest.Event {
	t.Helper()
	body, err := json.Marshal(struct {
		DeviceType string            `json:"deviceType"`
		Name       string            `json:"name"`
		Location   string            `json:"location"`
		Vars       map[string]string `json:"vars"`
	}{deviceType, name, location, vars})
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Decode(body); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	return ev
}

func TestWireIngestEquivalenceScripted(t *testing.T) {
	runScriptedScenario(t, newWirePair(t))
}

func TestWireIngestEquivalenceRandom(t *testing.T) {
	for seed := int64(11); seed <= 13; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			runRandomScenario(t, newWirePair(t), seed)
		})
	}
}

func TestWireIngestEquivalenceRuleChurn(t *testing.T) {
	runChurnScenario(t, newWirePair(t))
}

// TestWireIngestFullScanFallback pins the oracle's fallback: a full-scan
// engine fed through IngestEvent materializes the map shape and must agree
// with one fed the map directly.
func TestWireIngestFullScanFallback(t *testing.T) {
	p := newEnginePairOpts(t, []Option{WithFullScan()}, []Option{WithFullScan()})
	p.apply = wireApply(t, p.inc)
	runScriptedScenario(t, p)
}

// TestWireIngestCompactionInvalidatesByteCaches pins the lifecycle hazard:
// symbol compaction remaps every interned id, so byte-keyed ingest cache
// entries built before an epoch must not survive into the next one.
func TestWireIngestCompactionInvalidatesByteCaches(t *testing.T) {
	db := registry.New()
	add := func(id, varName string, value float64) {
		t.Helper()
		if err := db.Add(core.NewRule(id, "u",
			core.DeviceRef{Name: "dev-" + id},
			core.Action{Verb: "turn-on"},
			&core.Compare{Var: varName, Op: simplex.GT, Value: value})); err != nil {
			t.Fatal(err)
		}
	}
	add("keep", "temperature", 25)
	now := time.Date(2005, 3, 7, 18, 0, 0, 0, time.UTC)
	e := New(db, conflict.NewTable(), func() time.Time { return now })

	ev := ingest.AcquireEvent()
	t.Cleanup(ev.Release)
	ingestWire := func(temp string) {
		e.IngestEvent(decodeWire(t, ev, device.TypeThermometer, "thermometer", "kitchen",
			map[string]string{"temperature": temp}))
		e.Tick()
	}

	ingestWire("30")
	if owners := e.Owners(); owners["dev-keep"] != "keep" {
		t.Fatalf("owners before compaction: %v", owners)
	}

	// Churn unrelated rules so compaction has garbage, then force an epoch.
	for i := 0; i < 50; i++ {
		add(fmt.Sprintf("tmp%d", i), fmt.Sprintf("attic%d/pressure", i), 1)
	}
	for i := 0; i < 50; i++ {
		if err := db.Remove(fmt.Sprintf("tmp%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := e.CompactSymbols(); !ok {
		t.Fatal("compaction did not run")
	}
	if len(e.varCacheB) != 0 || len(e.arrCacheB) != 0 {
		t.Fatalf("byte caches survived compaction: %d var, %d arr",
			len(e.varCacheB), len(e.arrCacheB))
	}

	// The same wire signature rebuilds against the remapped ids; a stale
	// cache would write through dead ids and strand the rule.
	ingestWire("20")
	if owners := e.Owners(); owners["dev-keep"] != "" {
		t.Fatalf("owners after cooling: %v", owners)
	}
	ingestWire("31")
	if owners := e.Owners(); owners["dev-keep"] != "keep" {
		t.Fatalf("owners after re-heating: %v", owners)
	}
}

// TestWireIngestSteadyStateZeroAlloc extends the tentpole's allocation
// budget to the wire path: decode plus IngestEvent plus Tick on a warm
// signature must not allocate.
func TestWireIngestSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	db := registry.New()
	if err := db.Add(core.NewRule("hot", "u",
		core.DeviceRef{Name: "fan"},
		core.Action{Verb: "turn-on"},
		&core.Compare{Var: "temperature", Op: simplex.GT, Value: 50})); err != nil {
		t.Fatal(err)
	}
	now := time.Date(2005, 3, 7, 18, 0, 0, 0, time.UTC)
	e := New(db, conflict.NewTable(), func() time.Time { return now })

	bodies := [][]byte{
		[]byte(`{"deviceType":"urn:schemas-upnp-org:device:thermometer:1","name":"thermometer","location":"kitchen","vars":{"temperature":"20","humidity":"40"}}`),
		[]byte(`{"deviceType":"urn:schemas-upnp-org:device:thermometer:1","name":"thermometer","location":"kitchen","vars":{"temperature":"21","humidity":"41"}}`),
	}
	ev := ingest.AcquireEvent()
	t.Cleanup(ev.Release)
	for _, b := range bodies { // warm the decoder scratch and ingest caches
		if err := ev.Decode(b); err != nil {
			t.Fatal(err)
		}
		e.IngestEvent(ev)
		e.Tick()
	}
	i := 0
	allocs := testing.AllocsPerRun(300, func() {
		b := bodies[i%2]
		i++
		if err := ev.Decode(b); err != nil {
			t.Fatal(err)
		}
		e.IngestEvent(ev)
		e.Tick()
	})
	if allocs != 0 {
		t.Fatalf("steady-state wire ingest allocated %.1f allocs/op, want 0", allocs)
	}
}
