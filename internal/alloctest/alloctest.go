// Package alloctest counts heap allocations exactly, for the allocation and
// heap gates of the other packages' tests. Only tests import it.
package alloctest

import "runtime"

// PerCall calls f once to warm it up, then runs times more, and returns the
// mean heap allocations and bytes per measured call from the MemStats
// deltas, as testing.AllocsPerRun counts them. Unlike AllocsPerRun it does
// not round the mean down, so an allocation every 32nd call still reads
// above 0. That needs a quiet runtime: a collection first clears the
// set-up's garbage, so no cycle (which empties the sync.Pools) starts in a
// loop that allocates nothing, and a yield lets the runtime's own clean-up
// after that collection run before the count starts.
func PerCall(runs int, f func()) (allocs, bytes float64) {
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

// LiveHeap returns the bytes of live heap objects after a collection.
func LiveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
