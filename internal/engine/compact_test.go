package engine

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/alloctest"
	"repro/internal/conflict"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/ingest"
	"repro/internal/registry"
	"repro/internal/simplex"
)

// The churn-compaction equivalence suite: an interned engine with an
// aggressive compaction watermark (plus occasional forced epochs) paired
// against the full-scan oracle over one shared rule database. The oracle
// never touches symbol ids, so it is oblivious to the renumbering; any
// id-holding state the remap misses — a bound condition, a readiness bit, a
// device owner, a dirty id, a priority-rank vector — diverges the fired
// logs or the owner maps at the next check.

// uniqueRule builds a rule whose variable, id and device names are unique to
// seq, the shape that grows a symtab without bound until compaction. The
// variable is a room-qualified temperature so a thermometer event at the
// rule's room (churnEvent) actually reaches it through the device mapping.
func uniqueRule(seq int, owner string) *core.Rule {
	return core.NewRule(fmt.Sprintf("churn-%d", seq), owner,
		core.DeviceRef{Name: fmt.Sprintf("churn-dev-%d", seq)},
		core.Action{Verb: "turn-on"},
		&core.And{Terms: []core.Condition{
			&core.Compare{Var: fmt.Sprintf("churn-room-%d/temperature", seq), Op: simplex.GT, Value: 20},
			&core.Presence{Person: "tom", Place: "living room"},
		}})
}

// churnEvent returns the thermometer event hitting uniqueRule(seq)'s
// variable.
func churnEvent(seq int, value string) (deviceType, name, location string, vars map[string]string) {
	return device.TypeThermometer, "thermometer", fmt.Sprintf("churn-room-%d", seq),
		map[string]string{"temperature": value}
}

// TestCompactionEquivalenceScripted interleaves unique-named rule churn,
// automatic and forced compaction epochs, and the full stimulus alphabet
// (sensor values, presence, arrivals, clock advances, priority edits) on the
// pair, checking logs and owners after every step.
func TestCompactionEquivalenceScripted(t *testing.T) {
	p := newEnginePairOpts(t, []Option{WithCompactFloor(16)}, []Option{WithFullScan()})
	p.tbl.Set(conflict.Order{Device: core.DeviceRef{Name: "stereo"}, Users: []string{"emily", "alan", "tom"}})
	p.each(func(e *Engine) { e.SetUsers([]string{"tom", "alan", "emily"}) })

	// A stable rule whose readiness the churn must never disturb. The
	// variable is qualified: an unqualified "temperature" would suffix-
	// resolve to the lexicographically smallest churn room instead.
	if err := p.db.Add(core.NewRule("stable", "alan",
		core.DeviceRef{Name: "stereo"},
		core.Action{Verb: "play"},
		&core.Compare{Var: "living room/temperature", Op: simplex.GT, Value: 25})); err != nil {
		t.Fatal(err)
	}
	p.event(device.TypePresenceSensor, "presence sensor", "home",
		map[string]string{"presence-tom": "living room"})
	p.event(device.TypeThermometer, "thermometer", "living room",
		map[string]string{"temperature": "30"})
	if owners := p.inc.Owners(); owners["stereo"] != "stable" {
		t.Fatalf("owners = %v, want stereo owned before churn", owners)
	}

	live := 0
	for seq := 0; seq < 200; seq++ {
		if err := p.db.Add(uniqueRule(seq, "tom")); err != nil {
			t.Fatal(err)
		}
		live++
		if live > 8 {
			if err := p.db.Remove(fmt.Sprintf("churn-%d", seq-8)); err != nil {
				t.Fatal(err)
			}
			live--
		}
		// Fire the freshest churn rule's variable every few steps so churned
		// state is exercised, not just registered.
		switch seq % 5 {
		case 0:
			p.event(churnEvent(seq, "30"))
		case 1:
			p.event(device.TypePresenceSensor, "presence sensor", "home",
				map[string]string{"presence-tom": "living room"})
		case 2:
			p.advance(time.Minute)
		case 3:
			p.event(device.TypeThermometer, "thermometer", "living room",
				map[string]string{"temperature": fmt.Sprintf("%d", 20+seq%15)})
		default:
			p.each(func(e *Engine) { e.Tick() })
		}
		if seq%37 == 36 {
			// Forced epoch at a quiet point: both engines just evaluated, so
			// the extra pass inside CompactSymbols fires nothing.
			if _, ok := p.inc.CompactSymbols(); !ok {
				t.Fatalf("seq %d: forced compaction refused", seq)
			}
			p.check()
		}
	}
	st := p.inc.SymbolStats()
	if st.Epoch == 0 {
		t.Fatal("no compaction epoch ran; churn test is vacuous")
	}
	if st.Symbols > 400 {
		t.Fatalf("symtab still holds %d symbols after compacting churn of 200 rules (live %d)", st.Symbols, live)
	}
	// The stable rule must still hand the stereo over correctly after all
	// the renumbering.
	p.event(device.TypeThermometer, "thermometer", "living room",
		map[string]string{"temperature": "10"})
	if owners := p.inc.Owners(); owners["stereo"] != "" {
		t.Fatalf("owners = %v, want stereo released after temperature drop", owners)
	}
	p.event(device.TypeThermometer, "thermometer", "living room",
		map[string]string{"temperature": "28"})
	if owners := p.inc.Owners(); owners["stereo"] != "stable" {
		t.Fatalf("owners = %v, want stereo re-owned through post-compaction ids", owners)
	}
}

// TestCompactionEquivalenceRandom drives randomized churn + stimulus streams
// (several seeds) with automatic compaction on the interned side, asserting
// identical fired logs and owner maps after every step.
func TestCompactionEquivalenceRandom(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			runCompactionChurnScenario(t,
				newEnginePairOpts(t, []Option{WithCompactFloor(16)}, []Option{WithFullScan()}), seed)
		})
	}
}

func runCompactionChurnScenario(t *testing.T, p *enginePair, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	people := []string{"tom", "alan", "emily"}
	places := []string{"living room", "kitchen", "hall", ""}
	p.each(func(e *Engine) { e.SetUsers(people) })
	p.tbl.Set(conflict.Order{Device: core.DeviceRef{Name: "tv"}, Users: []string{"tom", "alan", "emily"}})

	// Contending rules on one device keep arbitration (and the owner-rank
	// cache the compaction invalidates) in play throughout.
	for i, who := range people {
		if err := p.db.Add(core.NewRule(fmt.Sprintf("tv-%s", who), who,
			core.DeviceRef{Name: "tv"},
			core.Action{Verb: "turn-on", Settings: map[string]core.Value{"channel": {IsNumber: true, Number: float64(i)}}},
			&core.Presence{Person: who, Place: "living room"})); err != nil {
			t.Fatal(err)
		}
	}

	var pending []int // live churn-rule sequence numbers
	next := 0
	for step := 0; step < 400; step++ {
		switch rng.Intn(10) {
		case 0, 1: // add a unique-named churn rule
			r := uniqueRule(next, people[rng.Intn(len(people))])
			if err := p.db.Add(r); err != nil {
				t.Fatal(err)
			}
			pending = append(pending, next)
			next++
			p.each(func(e *Engine) { e.Tick() })
		case 2, 3: // remove a random live churn rule
			if len(pending) == 0 {
				continue
			}
			i := rng.Intn(len(pending))
			if err := p.db.Remove(fmt.Sprintf("churn-%d", pending[i])); err != nil {
				t.Fatal(err)
			}
			pending = append(pending[:i], pending[i+1:]...)
			p.each(func(e *Engine) { e.Tick() })
		case 4: // fire a live churn rule's unique variable
			if len(pending) == 0 {
				continue
			}
			p.event(churnEvent(pending[rng.Intn(len(pending))], fmt.Sprintf("%d", 10+rng.Intn(25))))
		case 5, 6: // presence churn (drives the tv contenders)
			p.event(device.TypePresenceSensor, "presence sensor", "home",
				map[string]string{"presence-" + people[rng.Intn(len(people))]: places[rng.Intn(len(places))]})
		case 7:
			p.event(device.TypePresenceSensor, "presence sensor", "home",
				map[string]string{"event": fmt.Sprintf("%s|home-from-work|%d", people[rng.Intn(len(people))], step)})
		case 8:
			p.advance(time.Duration(1+rng.Intn(30)) * time.Minute)
		default: // forced epoch at a quiet point
			if _, ok := p.inc.CompactSymbols(); !ok {
				t.Fatalf("step %d: forced compaction refused", step)
			}
			p.check()
		}
	}
	if st := p.inc.SymbolStats(); st.Epoch == 0 {
		t.Fatal("no compaction epoch ran; churn stream too quiet to be convincing")
	}
	if len(p.inc.Log()) < 5 {
		t.Fatalf("only %d firings over 400 steps; stream too quiet to be convincing", len(p.inc.Log()))
	}
}

// TestAutoCompactionWatermark pins the dead-id watermark: with a low floor,
// pure rule churn alone (no manual compaction) must trigger epochs, and the
// symtab must stay within a constant factor of the live symbol set.
func TestAutoCompactionWatermark(t *testing.T) {
	db := registry.New()
	now := time.Date(2005, 3, 7, 18, 0, 0, 0, time.UTC)
	e := New(db, conflict.NewTable(), func() time.Time { return now }, WithCompactFloor(64))
	for seq := 0; seq < 500; seq++ {
		if err := db.Add(uniqueRule(seq, "tom")); err != nil {
			t.Fatal(err)
		}
		if seq >= 4 {
			if err := db.Remove(fmt.Sprintf("churn-%d", seq-4)); err != nil {
				t.Fatal(err)
			}
		}
		e.Tick()
	}
	st := e.SymbolStats()
	if st.Epoch == 0 {
		t.Fatal("watermark never triggered a compaction epoch")
	}
	if st.Symbols > 200 {
		t.Fatalf("symtab holds %d symbols with 4 live rules; watermark not bounding growth", st.Symbols)
	}
}

// TestCompactSymbolsOracleModes: the full-scan oracle refuses compaction (it
// holds no ids).
func TestCompactSymbolsOracleModes(t *testing.T) {
	now := time.Date(2005, 3, 7, 18, 0, 0, 0, time.UTC)
	e := New(registry.New(), conflict.NewTable(), func() time.Time { return now }, WithFullScan())
	if _, ok := e.CompactSymbols(); ok {
		t.Fatal("CompactSymbols succeeded on a full-scan engine")
	}
}

// TestFullScanHoldsNoIDs: the full-scan oracle never interns. Sharing a rule
// database with an interned engine, it ingests never-seen variables,
// arrivals, places and EPG feeds through both entry points without growing
// the shared symbol table, and reports no symbol footprint.
func TestFullScanHoldsNoIDs(t *testing.T) {
	p := newEnginePair(t)
	if err := p.db.Add(core.NewRule("hot", "tom",
		core.DeviceRef{Name: "fan"},
		core.Action{Verb: "turn-on"},
		&core.Compare{Var: "temperature", Op: simplex.GT, Value: 25})); err != nil {
		t.Fatal(err)
	}
	p.each(func(e *Engine) { e.Tick() })
	before := p.db.Symtab().Len()

	o := p.full
	o.HandleDeviceEvent(device.TypeThermometer, "thermometer", "attic", map[string]string{"temperature": "30"})
	o.HandleDeviceEvent(device.TypeTV, "tv", "den", map[string]string{"power": "1"})
	o.HandleDeviceEvent(device.TypePresenceSensor, "presence sensor", "home",
		map[string]string{"presence-zoe": "cellar", "event": "zoe|home-from-school|1"})
	o.HandleDeviceEvent(device.TypeTV, "tv", "den", map[string]string{"programs": device.EncodePrograms([]core.Program{
		{Title: "evening news", Category: "news"},
	})})
	ev := ingest.AcquireEvent()
	defer ev.Release()
	o.IngestEvent(decodeWire(t, ev, device.TypeThermometer, "thermometer", "loft",
		map[string]string{"temperature": "12", "presence-max": "loft", "event": "max|left-for-work|2"}))
	o.Tick()

	if got := p.db.Symtab().Len(); got != before {
		t.Fatalf("shared symtab grew from %d to %d symbols on full-scan ingest", before, got)
	}
	if st := o.SymbolStats(); st != (SymbolStats{}) {
		t.Fatalf("full-scan SymbolStats = %+v, want zero", st)
	}
	if owners := o.Owners(); owners["fan"] != "hot" {
		t.Fatalf("owners = %v, want the oracle to evaluate over its own map context", owners)
	}
	if _, ok := o.CompactSymbols(); ok {
		t.Fatal("CompactSymbols succeeded on a full-scan engine")
	}
}

// TestChurnCompactionBounds is the acceptance check: churn 100k unique-named
// rules through a 1k live window under the DEFAULT watermark, force a final
// epoch, and require the symtab and every id-indexed slice to sit within 2x
// of the live symbol count — "runs for years under rule churn" as a test.
func TestChurnCompactionBounds(t *testing.T) {
	total, window := 100_000, 1_000
	if testing.Short() || alloctest.Race {
		total = 20_000 // race instrumentation makes the full sweep slow; the bound is identical
	}
	db := registry.New()
	now := time.Date(2005, 3, 7, 18, 0, 0, 0, time.UTC)
	e := New(db, conflict.NewTable(), func() time.Time { return now })
	e.HandleDeviceEvent(device.TypePresenceSensor, "presence sensor", "home",
		map[string]string{"presence-tom": "living room"})

	maxSymbols := 0
	for seq := 0; seq < total; seq++ {
		if err := db.Add(uniqueRule(seq, "tom")); err != nil {
			t.Fatal(err)
		}
		if seq >= window {
			if err := db.Remove(fmt.Sprintf("churn-%d", seq-window)); err != nil {
				t.Fatal(err)
			}
		}
		if seq%50 == 0 {
			e.Tick() // pass boundary: watermark check
			if st := e.SymbolStats(); st.Symbols > maxSymbols {
				maxSymbols = st.Symbols
			}
		}
	}
	e.Tick()
	auto := e.SymbolStats()
	if auto.Epoch == 0 {
		t.Fatalf("default watermark never compacted over %d churned rules", total)
	}

	st, ok := e.CompactSymbols()
	if !ok {
		t.Fatal("final forced compaction refused")
	}

	// Independent live-symbol count: exactly what a mark pass sees.
	live := &core.IDSet{}
	for _, r := range db.All() {
		r.MarkLiveIDs(live)
	}
	e.Snapshot() // ensure nothing panics reading post-compaction state
	final := e.SymbolStats()
	bound := 2 * live.Len()
	if final.Symbols > bound {
		t.Fatalf("symtab = %d symbols after final epoch, want <= 2x live (%d)", final.Symbols, bound)
	}
	if final.NumSlots > bound || final.BoolSlots > bound || final.LocSlots > bound ||
		final.EventSlots > bound || final.ReadySlots > bound+1 {
		t.Fatalf("id-slice lengths %+v exceed 2x live (%d)", final, bound)
	}
	// The watermark must have bounded growth all along, not just at the end:
	// the table may never have exceeded ~2x its steady live size plus the
	// retirement backlog the watermark tolerates.
	if ceiling := 3 * final.Symbols; maxSymbols > ceiling {
		t.Fatalf("symtab peaked at %d symbols mid-churn, want <= %d (watermark not engaging)", maxSymbols, ceiling)
	}
	if st.After >= st.Before && st.Before > 0 && auto.Symbols > final.Symbols {
		t.Fatalf("final epoch grew the table: %+v", st)
	}

	// And the engine still works: the newest rule fires through the
	// compacted ids.
	e.HandleDeviceEvent(churnEvent(total-1, "30"))
	owners := e.Owners()
	if owners[fmt.Sprintf("churn-dev-%d", total-1)] != fmt.Sprintf("churn-%d", total-1) {
		t.Fatalf("owners = %v, want newest churn rule firing after compaction", owners)
	}
}
