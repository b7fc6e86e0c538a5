//go:build !race

package fleet

// raceEnabled reports whether the race detector is active; allocation
// assertions are skipped under it (instrumentation allocates).
const raceEnabled = false
