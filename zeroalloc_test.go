package cadel

// The allocation budgets, enforced as tests so a regression fails tier-1
// (`go test ./...`), not just the benchmark trend. Steady-state presence
// churn (quantified conditions re-evaluated every pass) and steady-state
// arbitration churn (the contextual order's dependency dirtied every pass,
// winner unchanged) must run the interned firing path with zero heap
// allocations at every rule count their benchmarks sweep. A rule write
// (parse, compile, hub submit) stays under fixed ceilings. The single-key
// variant lives in internal/engine.TestInternedSteadyStateZeroAlloc.

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/benchwork"
)

// allocsPerCall calls f once to warm it up, then runs times more, and
// returns the mean heap allocations and bytes per measured call from the
// MemStats deltas, as testing.AllocsPerRun counts them. Unlike AllocsPerRun
// it does not round the mean down, so an allocation every 32nd call still
// reads above 0. That needs a quiet runtime: a collection first clears the
// set-up's garbage, so no cycle (which empties the sync.Pools) starts in a
// loop that allocates nothing, and a yield lets the runtime's own clean-up
// after that collection run before the count starts.
func allocsPerCall(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	runtime.Gosched()
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

var allocSink *[64]byte

// TestAllocsPerCall checks the measuring helper itself: a gate that reads 0
// because nothing was counted must not pass.
func TestAllocsPerCall(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	if allocs, bytes := allocsPerCall(100, func() { allocSink = new([64]byte) }); allocs != 1 || bytes < 64 {
		t.Errorf("one 64 B allocation per call reads %v allocs and %v B, want 1 and at least 64", allocs, bytes)
	}
	if allocs, bytes := allocsPerCall(100, func() {}); allocs != 0 || bytes != 0 {
		t.Errorf("an empty call reads %v allocs and %v B, want 0 and 0", allocs, bytes)
	}
}

// replayRound returns a call that replays w's whole event stream once, so
// the warm-up call of allocsPerCall sizes the pooled ingest event for every
// event shape the stream holds.
func replayRound(w *benchwork.EngineWorkload) func() {
	return func() {
		for i := range w.Events {
			w.Replay(i)
		}
	}
}

func assertZeroAlloc(t *testing.T, workload string) {
	t.Helper()
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	for _, n := range []int{100, 1000, 10000} {
		w, err := benchwork.NewEngineWorkload(workload, n)
		if err != nil {
			t.Fatal(err)
		}
		if allocs, _ := allocsPerCall(300, replayRound(w)); allocs != 0 {
			t.Errorf("steady-state %s round at %d rules allocated %v times, want 0", workload, n, allocs)
		}
	}
}

// TestPresenceChurnZeroAlloc: Example Rules 2/3 shape — a user moving
// between rooms re-evaluates nobody/everyone/someone-at with no allocation.
func TestPresenceChurnZeroAlloc(t *testing.T) { assertZeroAlloc(t, "presence_eval") }

// TestArbitrationChurnZeroAlloc: the Fig. 1 shape without a hand-off —
// every pass re-arbitrates the stereo's contenders through the interned
// owner-rank index with no allocation.
func TestArbitrationChurnZeroAlloc(t *testing.T) { assertZeroAlloc(t, "arbitrate") }

// TestRuleWriteAllocCeilings holds a rule write's garbage at its measured
// allocs/op on linux/amd64 with Go 1.24, read as -benchmem prints it (the
// mean rounded down). A write lexes once, looks ahead in a fixed window,
// probes states without formatting errors and conflict-checks one-atom
// candidates without a DNF each. A text its shard compiled before for the
// same vocabulary and owner skips parse and compile (31 allocs); a new text
// pays both (43). Each hub loop makes 200 writes round-robin over 1000 homes
// of a new hub, so each write meets a nearly empty home.
func TestRuleWriteAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	check := func(name string, body func(), maxAllocs, maxBytes float64) {
		t.Helper()
		allocs, bytes := allocsPerCall(200, body)
		t.Logf("%s: %.2f allocs, %.0f B per call", name, allocs, bytes)
		if math.Floor(allocs) > maxAllocs {
			t.Errorf("%s allocates %.2f times per call, ceiling %v", name, allocs, maxAllocs)
		}
		if maxBytes > 0 && bytes > maxBytes {
			t.Errorf("%s allocates %.0f B per call, ceiling %v B", name, bytes, maxBytes)
		}
	}
	check("ParseRule", parseRuleLoop(t), 11, 3000)
	check("CompileRule", compileRuleLoop(t), 18, 0)
	for _, tc := range fleetSubmitCases {
		ceiling := 31.0
		if tc.unique {
			ceiling = 43
		}
		check(fmt.Sprintf("FleetSubmit/%s", tc.name), fleetSubmitLoop(t, tc.shards, tc.unique), ceiling, 0)
	}
}
