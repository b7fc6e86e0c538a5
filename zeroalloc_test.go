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
	"testing"

	"repro/internal/alloctest"
	"repro/internal/benchwork"
)

// replayRound returns a call that replays w's whole event stream once, so
// the warm-up call of alloctest.PerCall sizes the pooled ingest event for every
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
	if alloctest.Race {
		t.Skip("race instrumentation allocates")
	}
	for _, n := range []int{100, 1000, 10000} {
		w, err := benchwork.NewEngineWorkload(workload, n)
		if err != nil {
			t.Fatal(err)
		}
		if allocs, _ := alloctest.PerCall(300, replayRound(w)); allocs != 0 {
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
// same vocabulary and owner skips parse and compile (29 allocs); a new text
// pays both (41). Each hub loop makes 200 writes round-robin over 1000 homes
// of a new hub, so each write meets a nearly empty home.
func TestRuleWriteAllocCeilings(t *testing.T) {
	if alloctest.Race {
		t.Skip("race instrumentation allocates")
	}
	check := func(name string, body func(), maxAllocs, maxBytes float64) {
		t.Helper()
		allocs, bytes := alloctest.PerCall(200, body)
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
		ceiling := 29.0
		if tc.unique {
			ceiling = 41
		}
		check(fmt.Sprintf("FleetSubmit/%s", tc.name), fleetSubmitLoop(t, tc.shards, tc.unique), ceiling, 0)
	}
}
