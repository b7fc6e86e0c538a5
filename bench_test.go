package cadel

// Benchmarks regenerating the paper's evaluation (Sect. 5) and the ablations
// called out in DESIGN.md.
//
//	E1a  BenchmarkDeviceRetrievalByName*    — 50 virtual UPnP devices, retrieve by
//	     friendly name (paper: <= 10 ms)
//	E1b  BenchmarkDeviceRetrievalByService* — same, by service name (paper: <= 10 ms)
//	E2a  BenchmarkExtractSameDeviceRules    — 10,000 registered rules, extract the
//	     100 targeting one device (paper: <= 10 ms)
//	E2b  BenchmarkConflictFeasibility100    — conjoin the new rule's 2 inequalities
//	     with each of the 100 extracted rules' 2 → 100 feasibility checks of 4
//	     inequalities (paper: ~0.2 ms)
//
// Ablations: indexed vs scan extraction, simplex vs interval feasibility,
// warm-cache vs cold-network retrieval, DNF cost, parse/compile cost, engine
// evaluation cost.

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/alloctest"
	"repro/internal/benchwork"
	"repro/internal/conflict"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/interval"
	"repro/internal/lang"
	"repro/internal/registry"
	"repro/internal/simplex"
	"repro/internal/upnp"
	"repro/internal/vocab"
)

// ---- E1: device retrieval over the UPnP network ----

// uniqueSvc is carried by exactly one of the 50 devices so service searches
// have a single answer.
const uniqueSvc = "urn:cadel-home:service:Unique:1"

func benchNetwork(b *testing.B, n int) (*upnp.ControlPoint, string) {
	b.Helper()
	network := upnp.NewNetwork()
	host, err := upnp.NewDeviceHost(network)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = host.Close() })
	target := ""
	for i := 0; i < n; i++ {
		unit := device.NewLight(fmt.Sprintf("bench light %d", i), i, "hall")
		if i == n/2 {
			unit.Dev.Services = append(unit.Dev.Services,
				upnp.NewService("urn:cadel-home:serviceId:Unique", uniqueSvc))
			target = unit.Dev.UDN
		}
		if err := unit.Publish(host); err != nil {
			b.Fatal(err)
		}
	}
	cp, err := upnp.NewControlPoint(network)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = cp.Close() })
	// Prime the cache so warm benches and Forget-based cold benches have a
	// stable starting point.
	deadline := time.Now().Add(5 * time.Second)
	for len(cp.Devices()) < n && time.Now().Before(deadline) {
		cp.Search(upnp.TargetAll, 100*time.Millisecond)
	}
	if len(cp.Devices()) < n {
		b.Fatalf("primed only %d/%d devices", len(cp.Devices()), n)
	}
	return cp, target
}

// BenchmarkDeviceRetrievalByNameCold is E1a: every iteration evicts the
// target and re-retrieves it over SSDP + HTTP (search, response, description
// fetch).
func BenchmarkDeviceRetrievalByNameCold(b *testing.B) {
	cp, target := benchNetwork(b, 50)
	name := fmt.Sprintf("bench light %d", 25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp.Forget(target)
		if _, err := cp.FindByName(name, 2*time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeviceRetrievalByNameWarm resolves against the control point's
// device table (the CyberLink-style getDevice path).
func BenchmarkDeviceRetrievalByNameWarm(b *testing.B) {
	cp, _ := benchNetwork(b, 50)
	name := fmt.Sprintf("bench light %d", 25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cp.FindByName(name, 2*time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeviceRetrievalByServiceCold is E1b.
func BenchmarkDeviceRetrievalByServiceCold(b *testing.B) {
	cp, target := benchNetwork(b, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp.Forget(target)
		if _, err := cp.FindByService(uniqueSvc, 2*time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeviceRetrievalByServiceWarm is the cached variant of E1b.
func BenchmarkDeviceRetrievalByServiceWarm(b *testing.B) {
	cp, _ := benchNetwork(b, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cp.FindByService(uniqueSvc, 2*time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E2: conflict detection over the rule database ----

// paperRuleDB builds the paper's workload: total rules, sameDevice of which
// target "air conditioner", each condition a conjunction of two
// inequalities.
func paperRuleDB(b *testing.B, total, sameDevice int) *registry.DB {
	b.Helper()
	db := registry.New()
	for i := 0; i < total; i++ {
		deviceName := fmt.Sprintf("device-%d", i%((total/sameDevice)+1))
		if i < sameDevice {
			deviceName = "air conditioner"
		}
		rule := core.NewRule(fmt.Sprintf("r%d", i), fmt.Sprintf("user%d", i%5),
			core.DeviceRef{Name: deviceName},
			core.Action{
				Verb: "turn-on",
				Settings: map[string]core.Value{
					"temperature": {IsNumber: true, Number: float64(20 + i%10)},
				},
			},
			&core.And{Terms: []core.Condition{
				&core.Compare{Var: "temperature", Op: simplex.GT, Value: float64(20 + i%10)},
				&core.Compare{Var: "humidity", Op: simplex.GT, Value: float64(50 + i%20)},
			}})
		if err := db.Add(rule); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

func newPaperRule() *core.Rule {
	return core.NewRule("new", "newuser",
		core.DeviceRef{Name: "air conditioner"},
		core.Action{
			Verb:     "turn-on",
			Settings: map[string]core.Value{"temperature": {IsNumber: true, Number: 19}},
		},
		&core.And{Terms: []core.Condition{
			&core.Compare{Var: "temperature", Op: simplex.GT, Value: 26},
			&core.Compare{Var: "humidity", Op: simplex.GT, Value: 65},
		}})
}

// BenchmarkExtractSameDeviceRules is E2a: indexed extraction of the 100
// same-device rules out of 10,000.
func BenchmarkExtractSameDeviceRules(b *testing.B) {
	db := paperRuleDB(b, 10000, 100)
	ref := core.DeviceRef{Name: "air conditioner"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := db.SameDevice(ref); len(got) != 100 {
			b.Fatalf("extracted %d rules", len(got))
		}
	}
}

// BenchmarkExtractSameDeviceScan is the unindexed ablation of E2a.
func BenchmarkExtractSameDeviceScan(b *testing.B) {
	db := paperRuleDB(b, 10000, 100)
	ref := core.DeviceRef{Name: "air conditioner"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := db.SameDeviceScan(ref); len(got) != 100 {
			b.Fatalf("extracted %d rules", len(got))
		}
	}
}

// BenchmarkConflictFeasibility100 is E2b: the new rule against 100
// candidates — 100 feasibility checks of 4 inequalities by the production
// checker.
func BenchmarkConflictFeasibility100(b *testing.B) {
	db := paperRuleDB(b, 10000, 100)
	candidates := db.SameDevice(core.DeviceRef{Name: "air conditioner"})
	if len(candidates) != 100 {
		b.Fatalf("candidates = %d", len(candidates))
	}
	newRule := newPaperRule()
	var checker conflict.Checker
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := checker.FindConflicts(newRule, candidates); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConflictFeasibility100Simplex is E2b decided by the simplex
// oracle, the paper's method: each pair of terms is joined into one linear
// system for the solver.
func BenchmarkConflictFeasibility100Simplex(b *testing.B) {
	db := paperRuleDB(b, 10000, 100)
	candidates := db.SameDevice(core.DeviceRef{Name: "air conditioner"})
	newRule := newPaperRule()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conflict.SimplexFindConflicts(newRule, candidates); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegistrationEndToEnd measures the whole paper flow per new rule:
// extraction plus conflict detection over the 10k-rule database.
func BenchmarkRegistrationEndToEnd(b *testing.B) {
	db := paperRuleDB(b, 10000, 100)
	newRule := newPaperRule()
	var checker conflict.Checker
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		candidates := db.SameDevice(newRule.Device)
		if _, err := checker.FindConflicts(newRule, candidates); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- micro-benchmarks of the underlying solvers ----

func fourInequalities() []simplex.Constraint {
	return []simplex.Constraint{
		simplex.Bound("temperature", simplex.GT, 26),
		simplex.Bound("humidity", simplex.GT, 65),
		simplex.Bound("temperature", simplex.GT, 22),
		simplex.Bound("humidity", simplex.GT, 55),
	}
}

// BenchmarkFeasibilitySimplex4 solves one 4-inequality system (the paper's
// unit operation; it reports 0.2 ms for 100 of them).
func BenchmarkFeasibilitySimplex4(b *testing.B) {
	cs := fourInequalities()
	for i := 0; i < b.N; i++ {
		res, err := simplex.Feasible(cs)
		if err != nil || !res.Feasible {
			b.Fatal("expected feasible")
		}
	}
}

// BenchmarkFeasibilityInterval4 is the interval ablation of the same check.
func BenchmarkFeasibilityInterval4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		box := interval.NewBox()
		box.Constrain("temperature", interval.GreaterThan(26))
		box.Constrain("humidity", interval.GreaterThan(65))
		box.Constrain("temperature", interval.GreaterThan(22))
		box.Constrain("humidity", interval.GreaterThan(55))
		if !box.Feasible() {
			b.Fatal("expected feasible")
		}
	}
}

// BenchmarkDNF normalises a 3-level and/or condition (DNF cost ablation).
func BenchmarkDNF(b *testing.B) {
	cond := &core.And{Terms: []core.Condition{
		&core.Or{Terms: []core.Condition{
			&core.Compare{Var: "a", Op: simplex.GT, Value: 1},
			&core.Compare{Var: "b", Op: simplex.GT, Value: 2},
		}},
		&core.Or{Terms: []core.Condition{
			&core.Compare{Var: "c", Op: simplex.GT, Value: 3},
			&core.And{Terms: []core.Condition{
				&core.Compare{Var: "d", Op: simplex.GT, Value: 4},
				&core.Compare{Var: "e", Op: simplex.GT, Value: 5},
			}},
		}},
		&core.Compare{Var: "f", Op: simplex.LT, Value: 6},
	}}
	for i := 0; i < b.N; i++ {
		if _, err := core.ToDNF(cond); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- language front end ----

func benchLexicon(tb testing.TB) *vocab.Lexicon {
	tb.Helper()
	lex := vocab.Default()
	if err := lex.DefineCondWord("hot and stuffy",
		"humidity is higher than 60 percent and temperature is higher than 28 degrees", "tom"); err != nil {
		tb.Fatal(err)
	}
	return lex
}

const benchRuleSrc = "If humidity is higher than 80 percent and temperature is higher than " +
	"28 degrees, turn on the air conditioner with 25 degrees of temperature setting."

// runLoop times body, the loop body a benchmark shares with the alloc
// ceiling test that gates it.
func runLoop(b *testing.B, body func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body()
	}
}

// parseRuleLoop returns the loop body of BenchmarkParseRule: parse the
// paper's example rule 1.
func parseRuleLoop(tb testing.TB) func() {
	lex := benchLexicon(tb)
	return func() {
		if _, err := lang.Parse(benchRuleSrc, lex); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkParseRule measures the CADEL parser on the paper's example rule 1.
func BenchmarkParseRule(b *testing.B) { runLoop(b, parseRuleLoop(b)) }

// compileRuleLoop returns the loop body of BenchmarkCompileRule: compile a
// parsed rule that uses a user-defined condition word.
func compileRuleLoop(tb testing.TB) func() {
	lex := benchLexicon(tb)
	cmd, err := lang.Parse("If hot and stuffy, turn on the air conditioner "+
		"with 25 degrees of temperature setting.", lex)
	if err != nil {
		tb.Fatal(err)
	}
	def := cmd.(*lang.RuleDef)
	compiler := core.NewCompiler(lex)
	return func() {
		if _, err := compiler.CompileRule(def, "r", "tom"); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkCompileRule measures AST-to-rule-object compilation, including
// user-word expansion.
func BenchmarkCompileRule(b *testing.B) { runLoop(b, compileRuleLoop(b)) }

// ---- execution engine ----

// benchmarkEngineWorkload times one named benchwork workload: replay the
// event stream against the seeded steady-state engine. The events are built
// outside the timed loop so the reported allocs/op are the engine's own: the
// interned hot path must show 0 on the non-firing workloads.
func benchmarkEngineWorkload(b *testing.B, name string, n int, opts ...engine.Option) {
	w, err := benchwork.NewEngineWorkload(name, n, opts...)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Replay(i)
	}
}

// BenchmarkEngineEvaluate compares the symbol-interned incremental evaluator
// (the default) against the string-keyed full-scan oracle at 100, 1k and 10k
// rules, for a single-key change (the paper's Example Rule 1 shape: the
// incremental evaluator re-checks only the one affected rule via the
// dependency index; the full scan walks all n). The acceptance targets are
// 0 allocs/op and ≥ 2x over the full scan at 10k rules on the interned path.
// CI records this sweep, with PresenceEval, Arbitrate and RuleChurn, in
// BENCH_core.txt.
func BenchmarkEngineEvaluate(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("incremental-%d", n), func(b *testing.B) {
			benchmarkEngineWorkload(b, "engine_evaluate", n)
		})
		b.Run(fmt.Sprintf("fullscan-%d", n), func(b *testing.B) {
			benchmarkEngineWorkload(b, "engine_evaluate", n, engine.WithFullScan())
		})
	}
}

// BenchmarkEngineEvaluateFiring is the same single-key workload but with the
// sensor value crossing rule 0's threshold every iteration, so each pass
// flips readiness, re-arbitrates the device and appends to the fired log —
// the full hot path, not just evaluation.
func BenchmarkEngineEvaluateFiring(b *testing.B) {
	b.Run("interned", func(b *testing.B) {
		benchmarkEngineWorkload(b, "engine_evaluate_firing", 1000, engine.WithLogLimit(64))
	})
	b.Run("fullscan", func(b *testing.B) {
		benchmarkEngineWorkload(b, "engine_evaluate_firing", 1000, engine.WithLogLimit(64), engine.WithFullScan())
	})
}

// BenchmarkPresenceEval sweeps the presence-churn workload (the paper's
// Example Rules 2/3: a user moving between rooms re-evaluates every
// quantified presence condition without flipping any readiness) across rule
// counts and evaluator configurations. Acceptance: 0 allocs/op on the
// interned rows; the full-scan oracle re-evaluates every rule and iterates
// the location map per quantifier.
func BenchmarkPresenceEval(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("interned-%d", n), func(b *testing.B) {
			benchmarkEngineWorkload(b, "presence_eval", n)
		})
		b.Run(fmt.Sprintf("fullscan-%d", n), func(b *testing.B) {
			benchmarkEngineWorkload(b, "presence_eval", n, engine.WithFullScan())
		})
	}
}

// BenchmarkArbitrate sweeps the arbitration-churn workload (presence churn
// dirties the contextual priority order's dependency, so every pass
// re-arbitrates the stereo's contenders — and the winner never changes, so
// nothing fires) across rule counts and evaluator configurations. The
// interned path rank-scans the pre-interned owner index; the full-scan
// oracle re-evaluates every rule and re-arbitrates every device with a
// ranked-list build. Acceptance: 0 allocs/op on the interned rows, flat from
// 100 to 10k rules.
func BenchmarkArbitrate(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("interned-%d", n), func(b *testing.B) {
			benchmarkEngineWorkload(b, "arbitrate", n)
		})
		b.Run(fmt.Sprintf("fullscan-%d", n), func(b *testing.B) {
			benchmarkEngineWorkload(b, "arbitrate", n, engine.WithFullScan())
		})
	}
}

// BenchmarkArbitrateHandoff is the firing variant: every pass the applicable
// priority order flips, the stereo hands off between two owners and the
// action is dispatched and logged — the paper's Fig. 1 stereo hand-off,
// including the ranked-list build and log append.
func BenchmarkArbitrateHandoff(b *testing.B) {
	b.Run("interned", func(b *testing.B) {
		benchmarkEngineWorkload(b, "arbitrate_handoff", 1000, engine.WithLogLimit(64))
	})
	b.Run("fullscan", func(b *testing.B) {
		benchmarkEngineWorkload(b, "arbitrate_handoff", 1000, engine.WithLogLimit(64), engine.WithFullScan())
	})
}

// BenchmarkRuleChurn measures one rule-lifecycle step (add a unique-named
// rule, remove the oldest, evaluate) over a fixed live window — the workload
// that grows the symtab and every id-indexed slice forever without epoch
// compaction. The compact rows run the default dead-id watermark (epochs
// amortize across steps); the nocompact rows are the unbounded-growth
// baseline the watermark is measured against.
func BenchmarkRuleChurn(b *testing.B) {
	for _, live := range []int{1000} {
		b.Run(fmt.Sprintf("compact-%d", live), func(b *testing.B) {
			benchmarkRuleChurn(b, live)
		})
		b.Run(fmt.Sprintf("nocompact-%d", live), func(b *testing.B) {
			benchmarkRuleChurn(b, live, engine.WithCompactFloor(0))
		})
	}
}

func benchmarkRuleChurn(b *testing.B, live int, opts ...engine.Option) {
	w, err := benchwork.NewChurnWorkload(live, opts...)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(w.Symbols()), "symbols")
}

// ---- fleet hub ----
//
// Event ingestion through the hub is measured end to end, over loopback with
// every output checked, by the bench module (bash bench/run.sh); the
// map-post path's 0-alloc gate is TestPostEventSyncZeroAlloc in
// internal/fleet. Only rule registration is timed here.

// fleetSubmitCases are the rows of BenchmarkFleetSubmit.
var fleetSubmitCases = []struct {
	name   string
	shards int
	unique bool
}{
	{"shards=1", 1, false},
	{"shards=4", 4, false},
	{"unique-text", 1, true},
}

// fleetSubmitLoop builds a hub of 1000 homes over shards and returns the
// loop body of BenchmarkFleetSubmit: submit one rule to the next home,
// round-robin. The body is safe for concurrent use.
func fleetSubmitLoop(tb testing.TB, shards int, unique bool) func() {
	hub, ids, err := benchwork.BuildHub(1000, shards)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = hub.Close() })
	var idx atomic.Uint64
	return func() {
		i := idx.Add(1)
		src := "If humidity is higher than 60 percent, turn on the fan."
		if unique {
			src = "If humidity is higher than " + strconv.FormatUint(i, 10) + " percent, turn on the fan."
		}
		if _, err := hub.Submit(ids[i%uint64(len(ids))], src, "u"); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkFleetSubmit measures rule registration throughput across a
// sharded hub (consistency + conflict check + store-less registration),
// round-robin over 1000 homes. The homes share one vocabulary, so in the
// shards=N rows every write after a shard's first reuses its compiled
// template; the unique-text row writes a new threshold each time and pays
// parse and compile on every write.
func BenchmarkFleetSubmit(b *testing.B) {
	for _, tc := range fleetSubmitCases {
		b.Run(tc.name, func(b *testing.B) {
			body := fleetSubmitLoop(b, tc.shards, tc.unique)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					body()
				}
			})
		})
	}
}

// BenchmarkHomeHeap reports the live heap of one idle home in B/home: the
// hub benchwork.BuildHub seeds, whose homes each hold one user and one
// rule, the home shape of the bench module's wire workloads.
// internal/fleet's TestPerHomeHeapCeiling gates the same figure.
func BenchmarkHomeHeap(b *testing.B) {
	benchHomeHeap(b, func(homes int) (*fleet.Hub, error) {
		hub, _, err := benchwork.BuildHub(homes, 1)
		return hub, err
	})
}

// BenchmarkFigure1HomeHeap reports the live heap of one home holding the
// paper's Fig. 1 household, after one pass, in B/home: the hub
// benchwork.BuildFigure1Hub seeds, the home shape of the bench module's
// rebalance workload. internal/fleet's TestFigure1HomeHeapCeiling gates the
// same figure.
func BenchmarkFigure1HomeHeap(b *testing.B) {
	benchHomeHeap(b, func(homes int) (*fleet.Hub, error) {
		return benchwork.BuildFigure1Hub(homes, 1)
	})
}

// benchHomeHeap reports the live heap per home of a one-shard hub of 1024
// homes that build seeds. The hub-wide state (the shared built-in lexicon,
// the shard's trace ring and compiled rules) is built before the count or
// divided among the homes.
func benchHomeHeap(b *testing.B, build func(homes int) (*fleet.Hub, error)) {
	const homes = 1024
	warm, err := build(1) // builds the process-wide base lexicon
	if err != nil {
		b.Fatal(err)
	}
	_ = warm.Close()
	var perHome float64
	for i := 0; i < b.N; i++ {
		before := alloctest.LiveHeap()
		hub, err := build(homes)
		if err != nil {
			b.Fatal(err)
		}
		perHome = float64(alloctest.LiveHeap()-before) / homes
		_ = hub.Close()
	}
	b.ReportMetric(perHome, "B/home")
}

// BenchmarkRegistryAdd measures rule insertion with index maintenance.
func BenchmarkRegistryAdd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db := registry.New()
		rules := make([]*core.Rule, 1000)
		for j := range rules {
			rules[j] = core.NewRule(fmt.Sprintf("r%d", j), "u",
				core.DeviceRef{Name: fmt.Sprintf("d%d", j%50)},
				core.Action{Verb: "turn-on"},
				&core.Compare{Var: "temperature", Op: simplex.GT, Value: 20})
		}
		b.StartTimer()
		for _, r := range rules {
			if err := db.Add(r); err != nil {
				b.Fatal(err)
			}
		}
	}
}
