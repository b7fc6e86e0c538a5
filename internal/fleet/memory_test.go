package fleet

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/vocab"
)

// perHomeHeapCeiling bounds the live heap of a home with one user and one
// rule. A home that copied the built-in lexicon instead of sharing it would
// cost over 60 KiB.
const perHomeHeapCeiling = 24 << 10

func TestPerHomeHeapCeiling(t *testing.T) {
	const homes = 1024
	h := newTestHub(t, WithShards(1))
	_ = vocab.Default() // build the shared base outside the measurement
	before := liveHeap()
	for i := 0; i < homes; i++ {
		seedHome(t, h, fmt.Sprintf("home-%04d", i))
	}
	if err := h.Quiesce(); err != nil {
		t.Fatal(err)
	}
	perHome := (liveHeap() - before) / homes
	runtime.KeepAlive(h)
	t.Logf("live heap per home: %.1f KiB", float64(perHome)/1024)
	if perHome > perHomeHeapCeiling {
		t.Errorf("live heap per home = %d B, ceiling %d B", perHome, perHomeHeapCeiling)
	}
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
