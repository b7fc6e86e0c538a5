package engine

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/conflict"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/simplex"
)

func TestTraceRingWrapAndReuse(t *testing.T) {
	tr := NewTraceRing(3)
	at := time.Date(2005, 3, 7, 18, 0, 0, 0, time.UTC)
	for i := 0; i < 5; i++ {
		r := tr.start(1, uint64(i+1), at, false)
		r.addDirty(fmt.Sprintf("key%d", i))
		r.addCand(fmt.Sprintf("rule%d", i))
		d := r.addDec()
		d.setDevice(core.DeviceRef{Name: fmt.Sprintf("dev%d", i)})
		d.losers = append(d.losers, passLoser{"l", "u"})
	}
	if tr.n != 3 {
		t.Fatalf("n=%d, want 3", tr.n)
	}
	// Oldest surviving record is seq 3; newest is 5.
	var seqs []uint64
	var dirt []string
	for i := 0; i < tr.n; i++ {
		start := tr.next - tr.n
		if start < 0 {
			start += len(tr.recs)
		}
		r := &tr.recs[(start+i)%len(tr.recs)]
		seqs = append(seqs, r.seq)
		dirt = append(dirt, r.dirty...)
	}
	if seqs[0] != 3 || seqs[2] != 5 {
		t.Fatalf("seqs = %v, want oldest-first 3..5", seqs)
	}
	if strings.Join(dirt, ",") != "key2,key3,key4" {
		t.Fatalf("dirty keys = %v", dirt)
	}
	// Slot reuse must not leak prior contents.
	r := tr.start(2, 1, at, true)
	if len(r.dirty) != 0 || len(r.cands) != 0 || len(r.decs) != 0 {
		t.Fatalf("reused slot not truncated: %+v", r)
	}
	if r.engine != 2 || r.seq != 1 {
		t.Fatalf("reused slot tagged engine %d seq %d, want 2/1", r.engine, r.seq)
	}
	d := r.addDec()
	if len(d.losers) != 0 || cap(d.losers) == 0 {
		t.Fatalf("reused decision must keep loser capacity, got len=%d cap=%d",
			len(d.losers), cap(d.losers))
	}
	if d.devName != "" || d.winner != "" || d.fired {
		t.Fatalf("reused decision not zeroed: %+v", d)
	}
}

func TestTraceRecordTruncation(t *testing.T) {
	tr := NewTraceRing(1)
	r := tr.start(1, 1, time.Time{}, false)
	for i := 0; i < traceMaxDirty+5; i++ {
		r.addDirty("k")
	}
	for i := 0; i < traceMaxCands+5; i++ {
		r.addCand("c")
	}
	for i := 0; i < traceMaxDecs+5; i++ {
		d := r.addDec()
		if i < traceMaxDecs && d == nil {
			t.Fatalf("decision %d unexpectedly rejected", i)
		}
		if i >= traceMaxDecs && d != nil {
			t.Fatalf("decision %d exceeded cap", i)
		}
	}
	if len(r.dirty) != traceMaxDirty || len(r.cands) != traceMaxCands || len(r.decs) != traceMaxDecs {
		t.Fatalf("lens = %d/%d/%d", len(r.dirty), len(r.cands), len(r.decs))
	}
	if !r.truncated {
		t.Fatal("truncated flag not set")
	}
	d := r.decs[0]
	winner := core.NewRule("w", "u0", core.DeviceRef{}, core.Action{}, nil)
	list := []*core.Rule{winner}
	for i := 0; i < traceMaxLosers+5; i++ {
		list = append(list, core.NewRule(fmt.Sprintf("l%d", i), "u", core.DeviceRef{}, core.Action{}, nil))
	}
	d.setOutcome(winner, conflict.Explain{Rank: -1}, list)
	if len(d.losers) != traceMaxLosers {
		t.Fatalf("losers = %d, want capped at %d", len(d.losers), traceMaxLosers)
	}
}

// TestTraceSnapshotHandoff drives the Fig. 1 hand-off and checks the trace
// explains it: emily's contextual priority beats alan for the TV, and the
// hand-back is recorded when her movie ends.
func TestTraceSnapshotHandoff(t *testing.T) {
	db := registry.New()
	tbl := conflict.NewTable()
	rec := &recorder{}
	clock := &fakeClock{now: time.Date(2005, 3, 7, 18, 0, 0, 0, time.UTC)}
	e := New(db, tbl, clock.Now, dispatchEach(rec.dispatch),
		WithEventTTL(4*time.Hour), WithTrace(NewTraceRing(16)))

	alanRule := compileRule(t,
		"If alan is in the living room and a baseball game is on air, turn on the tv with 1 of channel setting.",
		"alan-tv", "alan")
	emilyRule := compileRule(t,
		"If emily is in the living room and my favorite movie is on air, turn on the tv with 3 of channel setting.",
		"emily-tv", "emily")
	for _, r := range []*core.Rule{alanRule, emilyRule} {
		if err := db.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	tbl.Set(conflict.Order{
		Device:        core.DeviceRef{Name: "tv"},
		Context:       &core.Arrival{Person: "emily", Event: "home-from-shopping"},
		ContextSource: "emily got home from shopping",
		Users:         []string{"emily", "alan", "tom"},
	})
	e.SetFavorites("emily", []string{"roman holiday"})
	e.SetUsers([]string{"tom", "alan", "emily"})

	e.HandleDeviceEvent(device.TypePresenceSensor, "presence sensor", "home",
		map[string]string{"presence-alan": "living room"})
	e.HandleDeviceEvent(device.TypeEPGTuner, "epg tuner", "home",
		map[string]string{"programs": device.EncodePrograms([]core.Program{
			{Title: "Tigers vs Giants", Category: "baseball game"},
		})})
	e.HandleDeviceEvent(device.TypePresenceSensor, "presence sensor", "home",
		map[string]string{"presence-emily": "living room", "event": "emily|home-from-shopping|1"})
	e.HandleDeviceEvent(device.TypeEPGTuner, "epg tuner", "home",
		map[string]string{"programs": device.EncodePrograms([]core.Program{
			{Title: "Tigers vs Giants", Category: "baseball game"},
			{Title: "Roman Holiday", Category: "movie", Keywords: []string{"roman holiday"}},
		})})

	traces := e.TraceSnapshot()
	if len(traces) == 0 {
		t.Fatal("no traces captured")
	}

	// The hand-off pass: emily wins, alan loses, contextual order explains it.
	var handoff *TraceDecision
	for i := range traces {
		for j := range traces[i].Decisions {
			d := &traces[i].Decisions[j]
			if d.Device == "tv" && d.Winner == "emily-tv" && len(d.Losers) > 0 {
				handoff = d
			}
		}
	}
	if handoff == nil {
		t.Fatalf("no hand-off decision in traces: %+v", traces)
	}
	if !handoff.Fired {
		t.Error("hand-off decision not marked fired")
	}
	if handoff.Owner != "emily" {
		t.Errorf("owner = %q, want emily", handoff.Owner)
	}
	if handoff.Losers[0].Rule != "alan-tv" || handoff.Losers[0].Owner != "alan" {
		t.Errorf("losers = %+v, want alan-tv/alan", handoff.Losers)
	}
	if !strings.Contains(handoff.Reason, "emily") ||
		!strings.Contains(handoff.Reason, "#1") ||
		!strings.Contains(handoff.Reason, `"emily got home from shopping"`) {
		t.Errorf("reason = %q, want emily ranked #1 in the contextual order", handoff.Reason)
	}

	// Movie ends: trace records the hand-back to alan.
	e.HandleDeviceEvent(device.TypeEPGTuner, "epg tuner", "home",
		map[string]string{"programs": device.EncodePrograms([]core.Program{
			{Title: "Tigers vs Giants", Category: "baseball game"},
		})})
	traces = e.TraceSnapshot()
	last := traces[len(traces)-1]
	var back *TraceDecision
	for j := range last.Decisions {
		if last.Decisions[j].Device == "tv" {
			back = &last.Decisions[j]
		}
	}
	if back == nil || back.Winner != "alan-tv" || !back.Fired {
		t.Fatalf("hand-back decision = %+v, want alan-tv fired", back)
	}

	// Seqs are strictly increasing oldest-first.
	for i := 1; i < len(traces); i++ {
		if traces[i].Seq <= traces[i-1].Seq {
			t.Fatalf("trace seqs not increasing: %d then %d", traces[i-1].Seq, traces[i].Seq)
		}
	}
}

// TestTraceDirtyAndCandidates: the record names the interned dependency keys
// that triggered the pass and the candidate rules re-checked.
func TestTraceDirtyAndCandidates(t *testing.T) {
	db := registry.New()
	if err := db.Add(core.NewRule("hot", "tom",
		core.DeviceRef{Name: "fan"},
		core.Action{Verb: "turn-on"},
		&core.Compare{Var: "temperature", Op: simplex.GT, Value: 25})); err != nil {
		t.Fatal(err)
	}
	now := time.Date(2005, 3, 7, 18, 0, 0, 0, time.UTC)
	e := New(db, conflict.NewTable(), func() time.Time { return now }, WithTrace(NewTraceRing(4)))
	e.HandleDeviceEvent(device.TypeThermometer, "thermometer", "kitchen",
		map[string]string{"temperature": "30"})

	traces := e.TraceSnapshot()
	if len(traces) == 0 {
		t.Fatal("no trace")
	}
	last := traces[len(traces)-1]
	if len(last.Dirty) == 0 || !strings.Contains(strings.Join(last.Dirty, ","), "temperature") {
		t.Errorf("dirty = %v, want the temperature key", last.Dirty)
	}
	foundCand := false
	for _, c := range last.Candidates {
		if c == "hot" {
			foundCand = true
		}
	}
	if !foundCand {
		t.Errorf("candidates = %v, want rule hot", last.Candidates)
	}
	dec := last.Decisions[len(last.Decisions)-1]
	if dec.Device != "fan" || dec.Winner != "hot" || dec.Reason != "sole ready rule" {
		t.Errorf("decision = %+v", dec)
	}
}

// TestTraceEquivalenceVsOracle: full instrumentation (metrics + tracing) on
// the interned path must not perturb evaluation — fired logs and owner maps
// stay byte-identical to the full-scan oracle.
func TestTraceEquivalenceVsOracle(t *testing.T) {
	m := obs.New(1)
	runScriptedScenario(t, newEnginePairOpts(t,
		[]Option{WithMetrics(&m.Shard(0).Engine), WithTrace(NewTraceRing(8))},
		[]Option{WithFullScan()}))
	m2 := obs.New(1)
	runRandomScenario(t, newEnginePairOpts(t,
		[]Option{WithMetrics(&m2.Shard(0).Engine), WithTrace(NewTraceRing(8))},
		[]Option{WithFullScan()}), 42)
}

// TestTraceSteadyStateZeroAlloc: after the ring has cycled, a steady-state
// firing pass with metrics and tracing enabled must not allocate.
func TestTraceSteadyStateZeroAlloc(t *testing.T) {
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
	m := obs.New(1)
	const ringCap = 8
	e := New(db, conflict.NewTable(), func() time.Time { return now },
		WithMetrics(&m.Shard(0).Engine), WithTrace(NewTraceRing(ringCap)))
	events := []map[string]string{
		{"temperature": "20"},
		{"temperature": "21"},
	}
	for i := 1; i < 100; i++ {
		e.HandleDeviceEvent(device.TypeThermometer, "thermometer", fmt.Sprintf("room%d", i), events[0])
	}
	// Warm the ingest cache and cycle the trace ring so every slot's slice
	// capacities are grown before the measured window.
	for i := 0; i < 2*ringCap+4; i++ {
		e.HandleDeviceEvent(device.TypeThermometer, "thermometer", "room0", events[i%2])
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		e.HandleDeviceEvent(device.TypeThermometer, "thermometer", "room0", events[i%2])
		i++
	})
	if allocs != 0 {
		t.Fatalf("instrumented steady-state event allocated %v times, want 0", allocs)
	}
	e.FlushMetrics()
	if m.Shard(0).Engine.Passes.Load() == 0 {
		t.Fatal("metrics not recorded")
	}
	if len(e.TraceSnapshot()) != ringCap {
		t.Fatalf("ring not full: %d", len(e.TraceSnapshot()))
	}
}
