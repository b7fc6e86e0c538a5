package cadel

// The observability bargain, enforced: bare, with metrics, and with metrics
// and tracing, the steady-state interned pass must allocate nothing, and the
// metrics accounting alone must cost at most 5% of the uninstrumented pass
// time. BenchmarkObsOverhead publishes the three rows; TestObsOverheadGate
// enforces both budgets in tier-1 (`go test ./...`).
//
// benchwork instruments every workload by default (a live *obs.EngineMetrics
// and a warm trace ring — see benchwork.NewEngineWorkload); the bare rows
// strip it back out by appending overriding options.

import (
	"testing"
	"time"

	"repro/internal/alloctest"
	"repro/internal/benchwork"
	"repro/internal/engine"
)

// bareOpts strips the default instrumentation: no metrics sink, no trace
// ring — the pre-observability engine configuration.
func bareOpts() []engine.Option {
	return []engine.Option{engine.WithMetrics(nil), engine.WithTrace(nil)}
}

// BenchmarkObsOverhead reruns the 1k-rule single-key evaluate workload at
// three instrumentation levels. TestObsOverheadGate holds all three rows at
// 0 allocs and metrics at most 5% above bare. The full row (trace ring
// writes every pass) is not ratio-gated — its budget is the zero-alloc
// contract, enforced there and in engine.TestTraceSteadyStateZeroAlloc.
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
// (internal/obs/README.md): the steady-state pass allocates nothing bare,
// with metrics, and with metrics AND tracing on — the metrics flush every
// 32nd pass included — and metrics-only accounting stays within 5% of the
// bare pass time (min-of-7 interleaved samples, three attempts before
// declaring a regression).
func TestObsOverheadGate(t *testing.T) {
	if alloctest.Race {
		t.Skip("race instrumentation allocates and skews timing")
	}
	if testing.Short() {
		t.Skip("timing gate")
	}

	configs := []struct {
		name string
		opts []engine.Option
	}{
		{"bare", bareOpts()},
		{"metrics", []engine.Option{engine.WithTrace(nil)}},
		{"full", nil},
	}
	ws := make([]*benchwork.EngineWorkload, len(configs))
	for k, c := range configs {
		w, err := benchwork.NewEngineWorkload("engine_evaluate", 1000, c.opts...)
		if err != nil {
			t.Fatal(err)
		}
		ws[k] = w
		if allocs, _ := alloctest.PerCall(300, replayRound(w)); allocs != 0 {
			t.Fatalf("%s steady-state round allocated %v times, want 0", c.name, allocs)
		}
	}
	bare, metrics := ws[0], ws[1]

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
