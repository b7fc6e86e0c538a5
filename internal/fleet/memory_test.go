package fleet

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/vocab"
)

// perHomeHeapCeiling bounds the live heap of a home with one user and one
// rule, idle or after loadedPasses traced passes. A home that copied the
// built-in lexicon instead of sharing it would cost over 60 KiB; one that
// kept its own firing-trace ring of 64 records instead of sharing its
// shard's, about 8 KiB more; one that compiled its rule for itself instead
// of sharing its shard's template, about 0.7 KiB more.
const perHomeHeapCeiling = 9 << 10

// loadedPasses is how many evaluation passes each home of the loaded
// variant runs before the measurement: more than a 64-record per-home ring
// holds, so such a ring cannot pass the ceiling by being allocated lazily.
const loadedPasses = 128

func TestPerHomeHeapCeiling(t *testing.T) {
	checkPerHomeHeap(t, 0)
}

func TestPerHomeHeapCeilingLoaded(t *testing.T) {
	checkPerHomeHeap(t, loadedPasses)
}

// checkPerHomeHeap seeds 1024 homes on one shard, runs passes traced passes
// in each (temperature changes that never fire the rule, so the fired-action
// log stays empty) and gates the live heap per home.
func checkPerHomeHeap(t *testing.T, passes int) {
	const homes = 1024
	h := newTestHub(t, WithShards(1))
	_ = vocab.Default() // build the shared base outside the measurement
	before := liveHeap()
	ids := make([]string, homes)
	for i := range ids {
		ids[i] = fmt.Sprintf("home-%04d", i)
		seedHome(t, h, ids[i])
	}
	if err := h.Quiesce(); err != nil {
		t.Fatal(err)
	}
	seeded := minPasses(t, h)
	for p := 0; p < passes; p++ {
		// One event per home per round, then a drain: every home runs one
		// pass per round (events coalesce only within a home).
		for _, id := range ids {
			postTemp(t, h, id, []string{"20", "21"}[p%2])
		}
		if err := h.Quiesce(); err != nil {
			t.Fatal(err)
		}
	}
	if passes > 0 {
		if ran := minPasses(t, h) - seeded; ran < uint64(passes) {
			t.Fatalf("a home ran %d passes, want at least %d", ran, passes)
		}
		if tr, err := h.Trace(ids[homes-1]); err != nil || len(tr) == 0 {
			t.Fatalf("loaded home has no trace records (err %v)", err)
		}
	}
	perHome := (liveHeap() - before) / homes
	runtime.KeepAlive(h)
	t.Logf("live heap per home after %d passes: %.1f KiB", passes, float64(perHome)/1024)
	if perHome > perHomeHeapCeiling {
		t.Errorf("live heap per home = %d B, ceiling %d B", perHome, perHomeHeapCeiling)
	}
}

// minPasses returns the fewest evaluation passes any home has run.
func minPasses(t *testing.T, h *Hub) uint64 {
	t.Helper()
	least := ^uint64(0)
	if err := h.barrier(func(s *shard) {
		for _, hm := range s.homes {
			least = min(least, hm.Passes())
		}
	}); err != nil {
		t.Fatal(err)
	}
	return least
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
