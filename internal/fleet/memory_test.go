package fleet

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/alloctest"
	"repro/internal/core"
	"repro/internal/figure1"
	"repro/internal/vocab"
)

// perHomeHeapCeiling bounds the live heap of a home with one user and one
// rule, idle or after loadedPasses traced passes. A home that copied the
// built-in lexicon instead of sharing it would cost about 9 KiB more; one
// that kept its own firing-trace ring of 64 records instead of sharing its
// shard's, about 8 KiB more; one that compiled its rule for itself instead
// of sharing its shard's template, about 0.7 KiB more. Measured on
// linux/amd64 with Go 1.24: 3.0 KiB idle, 3.7 KiB loaded, with the
// lexicon overlay one slice element, the registry indexed by symbol id, the
// per-home maps made on first use and the symtab's names indexed by an
// open-addressed id table instead of a second, map-held copy; the ceiling
// is the loaded figure plus about 1 KiB.
const perHomeHeapCeiling = 5 << 10 // 5 KiB

// loadedPasses is how many evaluation passes each home of the loaded
// variant runs before the measurement: more than a 64-record per-home ring
// holds, so such a ring cannot pass the ceiling by being allocated lazily.
const loadedPasses = 128

// figure1HeapCeiling bounds the live heap of a home holding the paper's
// Fig. 1 household (figure1: three users, Emily's favourite, four words,
// ten rules and the five priority orders of Fig. 7) after one traced pass.
// Measured on linux/amd64 with Go 1.24: 16.2 KiB with a name map beside
// the symtab's names, each priority order's whole dependency set, a meta map
// per word and a second copy of the favourites; 11.6 KiB once each of these
// is held once. The ceiling is the second figure plus about 1 KiB.
const figure1HeapCeiling = 25 << 9 // 12.5 KiB

func TestPerHomeHeapCeiling(t *testing.T) {
	checkPerHomeHeap(t, seedHome, 0, perHomeHeapCeiling)
}

func TestPerHomeHeapCeilingLoaded(t *testing.T) {
	checkPerHomeHeap(t, seedHome, loadedPasses, perHomeHeapCeiling)
}

func TestFigure1HomeHeapCeiling(t *testing.T) {
	checkPerHomeHeap(t, seedFigure1, 1, figure1HeapCeiling)
}

// seedFigure1 gives a home the Fig. 1 household.
func seedFigure1(t *testing.T, h *Hub, home string) {
	t.Helper()
	for _, u := range figure1.Users {
		if err := h.RegisterUser(home, u.Name, u.Favorites...); err != nil {
			t.Fatalf("%s: register: %v", home, err)
		}
	}
	for _, s := range figure1.Submissions {
		if _, err := h.Submit(home, s.Source, s.Owner); err != nil {
			t.Fatalf("%s: submit %q: %v", home, s.Source, err)
		}
	}
	for _, o := range figure1.Orders {
		if err := h.SetPriority(home, core.DeviceRef{Name: o.Device}, o.Users, o.Context); err != nil {
			t.Fatalf("%s: priority: %v", home, err)
		}
	}
}

// checkPerHomeHeap seeds 1024 homes on one shard, runs passes traced passes
// in each (temperature changes that fire no rule, so the fired-action log
// stays empty) and gates the live heap per home.
func checkPerHomeHeap(t *testing.T, seed func(*testing.T, *Hub, string), passes int, ceiling uint64) {
	const homes = 1024
	h := newTestHub(t, WithShards(1))
	_ = vocab.Default() // build the shared base outside the measurement
	before := alloctest.LiveHeap()
	ids := make([]string, homes)
	for i := range ids {
		ids[i] = fmt.Sprintf("home-%04d", i)
		seed(t, h, ids[i])
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
	perHome := (alloctest.LiveHeap() - before) / homes
	runtime.KeepAlive(h)
	t.Logf("live heap per home after %d passes: %.1f KiB", passes, float64(perHome)/1024)
	if perHome > ceiling {
		t.Errorf("live heap per home = %d B, ceiling %d B", perHome, ceiling)
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
