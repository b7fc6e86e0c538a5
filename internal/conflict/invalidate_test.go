package conflict

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/registry"
)

// TestTableInvalidateAfterCompaction pins the priority table's side of the
// epoch/remap contract: the per-device cache holds interned owner-rank
// vectors, the symtab pointer does not change across a compaction, so only
// Invalidate can force a rebuild — and after it, arbitration must rank by
// the renumbered ids, not the stale ones.
func TestTableInvalidateAfterCompaction(t *testing.T) {
	db := registry.New()
	var rules []*core.Rule
	for i, owner := range []string{"tom", "alan"} {
		// Garbage symbols interleaved BEFORE each rule, so compaction
		// actually shifts the live ids down (an identity remap would make
		// the stale-cache check vacuous).
		db.Symtab().Intern(fmt.Sprintf("padding-%d", i))
		r := core.NewRule(fmt.Sprintf("r%d", i), owner,
			core.DeviceRef{Name: "tv"},
			core.Action{Verb: "turn-on"},
			core.Always{})
		if err := db.Add(r); err != nil {
			t.Fatal(err)
		}
		rules = append(rules, r)
	}
	ctx := core.NewInternedContext(time.Date(2005, 3, 7, 18, 0, 0, 0, time.UTC), db.Symtab())
	tbl := NewTable()
	tbl.Set(Order{Device: core.DeviceRef{Name: "tv"}, Users: []string{"alan", "tom"}})

	gen := tbl.Generation()
	if w := tbl.ArbitrateWinner(core.DeviceRef{Name: "tv"}, ctx, rules); w.Owner != "alan" {
		t.Fatalf("winner before compaction = %s, want alan", w.Owner)
	}

	alanBefore := rules[1].OwnerSym
	if _, ok := db.CompactSymtab(db.Generation(), func(live *core.IDSet) {
		ctx.MarkLive(live)
	}, func(remap []uint32) {
		ctx.Remap(remap, db.Symtab().Len())
	}); !ok {
		t.Fatal("CompactSymtab refused")
	}
	if rules[1].OwnerSym == alanBefore {
		t.Fatal("compaction did not shift ids; stale-cache check is vacuous")
	}

	tbl.Invalidate()
	if tbl.Generation() == gen {
		t.Fatal("Invalidate did not bump the table generation")
	}
	if w := tbl.ArbitrateWinner(core.DeviceRef{Name: "tv"}, ctx, rules); w.Owner != "alan" {
		t.Fatalf("winner after compaction = %s, want alan (stale owner-rank cache?)", w.Owner)
	}
}
