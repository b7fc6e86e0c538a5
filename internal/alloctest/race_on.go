//go:build race

package alloctest

// Race reports whether the race detector is active. Tests that count
// allocations, time code or run long sweeps check it: the detector's
// instrumentation allocates and slows code down.
const Race = true
