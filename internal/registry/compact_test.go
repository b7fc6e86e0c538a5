package registry

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/simplex"
)

func uniqueVarRule(i int) *core.Rule {
	return core.NewRule(fmt.Sprintf("u%d", i), "tom",
		core.DeviceRef{Name: fmt.Sprintf("dev%d", i)},
		core.Action{Verb: "turn-on"},
		&core.Compare{Var: fmt.Sprintf("room%d/temperature", i), Op: simplex.GT, Value: 20})
}

// TestCompactSymtab pins the database side of a compaction epoch: the
// generation guard, the retired-estimate lifecycle, the dense renumbering of
// every surviving rule's ids, and the ByDepID rebuild.
func TestCompactSymtab(t *testing.T) {
	db := New()
	for i := 0; i < 10; i++ {
		if err := db.Add(uniqueVarRule(i)); err != nil {
			t.Fatal(err)
		}
	}
	if db.Retired() != 0 {
		t.Fatalf("retired = %d before any removal", db.Retired())
	}
	for i := 0; i < 8; i++ {
		if err := db.Remove(fmt.Sprintf("u%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if db.Retired() == 0 {
		t.Fatal("retired estimate did not grow with removals")
	}

	// A stale generation refuses the epoch.
	if _, ok := db.CompactSymtab(db.Generation()-1, nil, nil); ok {
		t.Fatal("CompactSymtab accepted a stale generation")
	}
	if db.Symtab().Epoch() != 0 {
		t.Fatal("refused epoch still compacted")
	}

	before := db.Symtab().Len()
	var remapLen int
	res, ok := db.CompactSymtab(db.Generation(), nil, func(remap []uint32) { remapLen = len(remap) })
	if !ok {
		t.Fatal("CompactSymtab refused a current generation")
	}
	if res.Before != before || res.After >= before || res.Epoch != 1 {
		t.Fatalf("result = %+v (before %d)", res, before)
	}
	if remapLen != before {
		t.Fatalf("remap covered %d ids, want %d", remapLen, before)
	}
	if db.Retired() != 0 {
		t.Fatalf("retired = %d after compaction, want 0", db.Retired())
	}

	// Surviving rules carry dense renumbered ids and the id index finds them.
	for i := 8; i < 10; i++ {
		r, ok := db.Get(fmt.Sprintf("u%d", i))
		if !ok {
			t.Fatal("surviving rule lost")
		}
		for _, sym := range []uint32{r.IDSym, r.OwnerSym, r.DeviceSym} {
			if sym == 0 || int(sym-1) >= res.After {
				t.Fatalf("rule %s identity symbol %d outside compacted table (%d)", r.ID, sym, res.After)
			}
		}
		for _, dep := range r.DepIDs {
			if int(dep) >= res.After {
				t.Fatalf("rule %s dep id %d outside compacted table (%d)", r.ID, dep, res.After)
			}
			rules := db.ByDepID(dep)
			found := false
			for _, rr := range rules {
				found = found || rr == r
			}
			if !found {
				t.Fatalf("ByDepID(%d) lost rule %s after rebuild", dep, r.ID)
			}
		}
	}
}
