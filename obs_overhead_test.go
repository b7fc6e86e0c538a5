package cadel

// The observability bargain, enforced: with metrics and tracing enabled the
// steady-state interned pass must still allocate nothing, and the metrics
// accounting alone must cost at most 5% of the uninstrumented pass time.
// BenchmarkObsOverhead publishes the instrumented-vs-bare pair CI compares;
// TestObsOverheadGate enforces both budgets in tier-1 (`go test ./...`).
//
// benchwork instruments every workload by default (a live *obs.EngineMetrics
// and a warm trace ring — see benchwork.NewEngineWorkload); the bare rows
// strip it back out by appending overriding options.

import (
	"testing"
	"time"

	"repro/internal/benchwork"
	"repro/internal/engine"
)

// bareOpts strips the default instrumentation: no metrics sink, no trace
// ring — the pre-observability engine configuration.
func bareOpts() []engine.Option {
	return []engine.Option{engine.WithMetrics(nil), engine.WithTrace(nil)}
}

// BenchmarkObsOverhead reruns the 1k-rule single-key evaluate workload at
// three instrumentation levels. CI diffs the pair: allocs/op must be 0 on
// all three rows and metrics ns/op at most 5% above bare. The full row
// (trace ring writes every pass) is published for the record but not
// ratio-gated — its budget is the zero-alloc contract, enforced here and in
// engine.TestTraceSteadyStateZeroAlloc.
func BenchmarkObsOverhead(b *testing.B) {
	b.Run("bare", func(b *testing.B) {
		benchmarkEngineWorkload(b, "engine_evaluate", 1000, bareOpts()...)
	})
	b.Run("metrics", func(b *testing.B) {
		benchmarkEngineWorkload(b, "engine_evaluate", 1000, engine.WithTrace(nil))
	})
	b.Run("full", func(b *testing.B) {
		benchmarkEngineWorkload(b, "engine_evaluate", 1000)
	})
}

// timeReplays runs iters replays and returns the wall time. Interleaved
// min-of-k sampling (below) filters scheduler noise the same way
// benchstat's min does.
func timeReplays(w *benchwork.EngineWorkload, iters int) time.Duration {
	start := time.Now()
	for i := 0; i < iters; i++ {
		w.Replay(i)
	}
	return time.Since(start)
}

// TestObsOverheadGate is the in-tree enforcement of the zero-alloc contract
// (internal/obs/README.md): the fully instrumented steady-state pass —
// metrics AND tracing on — allocates nothing, and metrics-only accounting
// stays within 5% of the bare pass time (min-of-7 interleaved samples,
// three attempts before declaring a regression).
func TestObsOverheadGate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates and skews timing")
	}
	if testing.Short() {
		t.Skip("timing gate")
	}

	full, err := benchwork.NewEngineWorkload("engine_evaluate", 1000)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	if allocs := testing.AllocsPerRun(300, func() {
		full.Replay(i)
		i++
	}); allocs != 0 {
		t.Fatalf("instrumented steady-state pass allocated %v times, want 0", allocs)
	}

	bare, err := benchwork.NewEngineWorkload("engine_evaluate", 1000, bareOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := benchwork.NewEngineWorkload("engine_evaluate", 1000, engine.WithTrace(nil))
	if err != nil {
		t.Fatal(err)
	}

	const iters = 5000
	var lastBare, lastInst time.Duration
	for attempt := 0; attempt < 3; attempt++ {
		minBare, minInst := time.Duration(1<<62), time.Duration(1<<62)
		for rep := 0; rep < 7; rep++ {
			if d := timeReplays(bare, iters); d < minBare {
				minBare = d
			}
			if d := timeReplays(metrics, iters); d < minInst {
				minInst = d
			}
		}
		lastBare, lastInst = minBare, minInst
		if minInst <= minBare+minBare/20 {
			return
		}
	}
	t.Errorf("metrics-on pass = %v for %d iters, bare = %v: overhead exceeds 5%%",
		lastInst, iters, lastBare)
}
