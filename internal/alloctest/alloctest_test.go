package alloctest

import "testing"

var sink *[64]byte

// TestPerCall checks the helper itself: a gate that reads 0 because nothing
// was counted must not pass.
func TestPerCall(t *testing.T) {
	if Race {
		t.Skip("race instrumentation allocates")
	}
	if allocs, bytes := PerCall(100, func() { sink = new([64]byte) }); allocs != 1 || bytes < 64 {
		t.Errorf("one 64 B allocation per call reads %v allocs and %v B, want 1 and at least 64", allocs, bytes)
	}
	if allocs, bytes := PerCall(100, func() {}); allocs != 0 || bytes != 0 {
		t.Errorf("an empty call reads %v allocs and %v B, want 0 and 0", allocs, bytes)
	}
}
