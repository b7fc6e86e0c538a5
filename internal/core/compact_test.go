package core

import (
	"fmt"
	"testing"
	"time"
)

// TestSymtabCompact pins the renumbering contract: live ids move down in
// order, dead names are forgotten (and re-intern as fresh ids), and the
// epoch counter advances.
func TestSymtabCompact(t *testing.T) {
	tab := NewSymtab()
	names := []string{"a", "b", "c", "d", "e", "f"}
	for _, n := range names {
		tab.Intern(n)
	}
	live := &IDSet{}
	for _, n := range []string{"b", "d", "e"} {
		id, ok := tab.Lookup(n)
		if !ok {
			t.Fatalf("Lookup(%q) missing before compaction", n)
		}
		live.Add(id)
	}

	remap, epoch := tab.Compact(live)
	if epoch != 1 || tab.Epoch() != 1 {
		t.Fatalf("epoch = %d / %d, want 1", epoch, tab.Epoch())
	}
	if tab.Len() != 3 {
		t.Fatalf("Len = %d after compaction, want 3", tab.Len())
	}
	if len(remap) != len(names) {
		t.Fatalf("remap covers %d ids, want %d", len(remap), len(names))
	}
	// Live ids renumber densely in order; dead ids map to the sentinel.
	want := []uint32{DeadID, 0, DeadID, 1, 2, DeadID}
	for i, w := range want {
		if remap[i] != w {
			t.Fatalf("remap[%d] = %d, want %d (full table %v)", i, remap[i], w, remap)
		}
	}
	for i, n := range []string{"b", "d", "e"} {
		if got := tab.Name(uint32(i)); got != n {
			t.Fatalf("Name(%d) = %q, want %q", i, got, n)
		}
		if id, ok := tab.Lookup(n); !ok || id != uint32(i) {
			t.Fatalf("Lookup(%q) = %d,%v, want %d,true", n, id, ok, i)
		}
	}
	for _, n := range []string{"a", "c", "f"} {
		if id, ok := tab.Lookup(n); ok {
			t.Fatalf("dead name %q still resolves to %d", n, id)
		}
	}
	// A dead name re-interns as a fresh id at the end of the table.
	if id := tab.Intern("a"); id != 3 {
		t.Fatalf("re-interned dead name got id %d, want 3", id)
	}

	// A second epoch over an all-live table is the identity.
	all := &IDSet{}
	for i := 0; i < tab.Len(); i++ {
		all.Add(uint32(i))
	}
	remap2, epoch2 := tab.Compact(all)
	if epoch2 != 2 {
		t.Fatalf("second epoch = %d, want 2", epoch2)
	}
	for i, id := range remap2 {
		if id != uint32(i) {
			t.Fatalf("all-live remap[%d] = %d, want identity", i, id)
		}
	}
}

// TestContextRemap drives an interned context and a string-keyed reference
// through the same writes, compacts the symbol table with a pile of
// rule-style garbage symbols interleaved among the context's ids, remaps the
// context, and asserts every reader still agrees with the reference — by
// name and by (re-resolved) id — and that the reverse-index counters
// survived intact.
func TestContextRemap(t *testing.T) {
	tab := NewSymtab()
	now := time.Date(2005, 3, 7, 18, 0, 0, 0, time.UTC)
	in := NewInternedContext(now, tab)
	ref := NewContext(now)

	users := []string{"tom", "alan", "emily"}
	each := func(fn func(c *Context)) { fn(in); fn(ref) }
	garbage := func(i int) { tab.Intern(fmt.Sprintf("dead-%d", i)) }

	garbage(0)
	each(func(c *Context) { c.SetUsers(users) })
	garbage(1)
	each(func(c *Context) { c.SetNumber("living room/temperature", 28) })
	each(func(c *Context) { c.SetNumber("temperature", 21) })
	garbage(2)
	each(func(c *Context) { c.SetBool("tv/power", true) })
	each(func(c *Context) { c.SetLocation("tom", "living room") })
	each(func(c *Context) { c.SetLocation("alan", "kitchen") })
	each(func(c *Context) { c.SetLocation("emily", "") }) // away
	garbage(3)
	each(func(c *Context) { c.RecordEvent("alan", "home-from-work") })
	garbage(4)

	// Mark and compact: only the context's own ids survive.
	live := &IDSet{}
	in.MarkLive(live)
	remap, _ := tab.Compact(live)
	in.Remap(remap, tab.Len())

	for i := 0; i < 5; i++ {
		if _, ok := tab.Lookup(fmt.Sprintf("dead-%d", i)); ok {
			t.Fatalf("garbage symbol dead-%d survived compaction", i)
		}
	}

	// Value reads by name (re-interning goes through the compacted ids).
	for _, name := range []string{"temperature", "living room/temperature", "kitchen/temperature"} {
		gv, gok := in.Number(name)
		wv, wok := ref.Number(name)
		if gv != wv || gok != wok {
			t.Fatalf("Number(%q) = %v,%v after remap, reference %v,%v", name, gv, gok, wv, wok)
		}
	}
	if gv, gok := in.Bool("tv/power"); !gok || !gv {
		t.Fatalf("Bool(tv/power) = %v,%v after remap", gv, gok)
	}

	// Presence readers, id-indexed via re-interned ids.
	tom, alan, emily := tab.Intern("tom"), tab.Intern("alan"), tab.Intern("emily")
	lr, kitchen := tab.Intern("living room"), tab.Intern("kitchen")
	if !in.AtID(tom, lr) || !in.AtID(alan, kitchen) || in.AtHomeID(emily) {
		t.Fatalf("presence slots wrong after remap: tom@lr=%v alan@kitchen=%v emily-home=%v",
			in.AtID(tom, lr), in.AtID(alan, kitchen), in.AtHomeID(emily))
	}
	if !in.AnyoneAtID(lr) || !in.AnyoneAtID(kitchen) || !in.AnyoneHome() {
		t.Fatal("reverse-index counters wrong after remap")
	}
	if in.EveryoneHome() {
		t.Fatal("EveryoneHome true with emily away")
	}
	each(func(c *Context) { c.SetLocation("emily", "kitchen") })
	if !in.EveryoneHome() {
		t.Fatal("EveryoneHome false after emily returns (userIDs not remapped?)")
	}

	// Arrival store.
	if key, ok := tab.Lookup("alan|home-from-work"); !ok || !in.HasEventKeyID(key) {
		t.Fatalf("arrival key lost in remap (ok=%v)", ok)
	}
	if name, ok := tab.Lookup(EventDepKey("home-from-work")); !ok || !in.HasEventNameID(name) {
		t.Fatalf("arrival name index lost in remap (ok=%v)", ok)
	}

	// TTL-expired events must NOT survive an epoch (see
	// TestCompactReclaimsExpiredEvents); fresh ones must.

	// Post-remap writes must keep working (new ids append past the live set).
	each(func(c *Context) { c.SetNumber("hall/darkness", 3) })
	if gv, gok := in.Number("hall/darkness"); !gok || gv != 3 {
		t.Fatalf("fresh write after remap = %v,%v", gv, gok)
	}
	// ...and the unqualified resolution cache was dropped: "darkness" must
	// now see the new qualified key.
	if gv, gok := in.Number("darkness"); !gok || gv != 3 {
		t.Fatalf("unqualified resolution after remap = %v,%v, want 3,true", gv, gok)
	}
}

// TestCompactReclaimsExpiredEvents: an arrival event older than the TTL is
// invisible to every reader, so a compaction epoch reclaims its ids and
// prunes it from the event store — otherwise event-name churn would regrow
// the store forever. Fresh events survive, and the readers keep agreeing
// with the string-keyed reference (whose map keeps expired entries but
// TTL-gates them) before and after.
func TestCompactReclaimsExpiredEvents(t *testing.T) {
	tab := NewSymtab()
	now := time.Date(2005, 3, 7, 18, 0, 0, 0, time.UTC)
	in := NewInternedContext(now, tab)
	ref := NewContext(now)
	in.EventTTL, ref.EventTTL = time.Minute, time.Minute

	each := func(fn func(c *Context)) { fn(in); fn(ref) }
	each(func(c *Context) { c.RecordEvent("alan", "old-event") })
	each(func(c *Context) { c.Now = c.Now.Add(2 * time.Minute) })
	each(func(c *Context) { c.RecordEvent("emily", "fresh-event") })

	live := &IDSet{}
	in.MarkLive(live)
	remap, _ := tab.Compact(live)
	in.Remap(remap, tab.Len())

	if _, ok := tab.Lookup("alan|old-event"); ok {
		t.Fatal("expired event key survived compaction")
	}
	if _, ok := tab.Lookup(EventDepKey("old-event")); ok {
		t.Fatal("expired event's name id survived compaction (no fresh key under it)")
	}
	if _, ok := in.Clone().Events["alan|old-event"]; ok {
		t.Fatal("expired event still in the Events map after compaction")
	}
	for _, probe := range []struct{ person, event string }{
		{"alan", "old-event"}, {"emily", "fresh-event"},
		{Someone, "old-event"}, {Someone, "fresh-event"},
	} {
		if got, want := in.HasEvent(probe.person, probe.event), ref.HasEvent(probe.person, probe.event); got != want {
			t.Fatalf("HasEvent(%q,%q) = %v after compaction, reference %v", probe.person, probe.event, got, want)
		}
	}

	// Re-recording the reclaimed event re-interns fresh ids and is visible
	// again on both sides.
	each(func(c *Context) { c.RecordEvent("alan", "old-event") })
	if !in.HasEvent("alan", "old-event") || !ref.HasEvent("alan", "old-event") {
		t.Fatal("re-recorded event invisible after reclamation")
	}
}
