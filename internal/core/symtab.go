package core

import (
	"hash/maphash"
	"strings"
	"sync"
)

// Symtab is a per-home symbol table: an append-only interner mapping strings
// to dense uint32 ids. The hot evaluation path never touches strings — rule
// conditions are bound to symbol ids at registration (Bind), the context
// stores values in id-indexed slices, and the engine's dirty-key set is a
// bitset over ids — so the symtab is the single point where names and ids
// meet. Ids are assigned in intern order starting at 0 and are never reused.
//
// Each name is stored once, in names. The lookup index is an open-addressed
// hash table over it: a power-of-two slice of id+1 entries (0 marks an empty
// slot), probed linearly from the name's hash and doubled when it is more
// than three quarters full. A table therefore costs 4 bytes per slot on top
// of its names, where a map would hold every name a second time as a key.
//
// A Symtab is owned by one home (its rule database creates it; the home's
// engine and context share it). Interning happens on cold paths — rule
// registration, first sight of a device variable — under an internal lock,
// so concurrent readers (HTTP observability, a second oracle engine over the
// same database) stay safe without taxing per-evaluation work.
//
// Ids are stable between compaction epochs only. Compact renumbers the live
// symbols densely and drops the dead ones, so a home that churns rules with
// unique names does not grow its id space forever; every layer holding ids
// must rewrite them through the returned remap table (see the epoch/remap
// contract in the package README). registry.DB.CompactSymtab coordinates an
// epoch across all holders.
type Symtab struct {
	mu    sync.RWMutex
	names []string
	index []uint32 // id+1 by hash slot, 0 when empty; len 0 or a power of two
	epoch uint64
}

// symSeed seeds every table's name hash; ids never depend on it.
var symSeed = maphash.MakeSeed()

// DeadID is the remap-table entry for a symbol dropped by Compact. Holders
// of an id that remaps to DeadID must discard the state attached to it (by
// construction such state was unreachable, or the id would have been marked
// live).
const DeadID = ^uint32(0)

// NewSymtab returns an empty symbol table.
func NewSymtab() *Symtab {
	return &Symtab{}
}

// Intern returns the id for name, assigning the next dense id on first
// sight. The same name always maps to the same id.
func (t *Symtab) Intern(name string) uint32 {
	t.mu.RLock()
	_, id, ok := t.find(name)
	t.mu.RUnlock()
	if ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	slot, id, ok := t.find(name)
	if ok {
		return id
	}
	id = uint32(len(t.names))
	t.names = append(t.names, name)
	if len(t.names)*4 > len(t.index)*3 {
		t.rehash()
	} else {
		t.index[slot] = id + 1
	}
	return id
}

// find probes the index for name. It returns the name's id, or, when the
// name is absent, the empty slot where it would go (-1 for an empty index).
// The caller holds mu.
func (t *Symtab) find(name string) (slot int, id uint32, ok bool) {
	if len(t.index) == 0 {
		return -1, 0, false
	}
	mask := len(t.index) - 1
	for i := int(maphash.String(symSeed, name)) & mask; ; i = (i + 1) & mask {
		v := t.index[i]
		if v == 0 {
			return i, 0, false
		}
		if t.names[v-1] == name {
			return i, v - 1, true
		}
	}
}

// rehash rebuilds the index over names at the smallest power-of-two size,
// 8 or more, that keeps it at most three quarters full. The caller holds mu
// for writing.
func (t *Symtab) rehash() {
	size := 8
	for len(t.names)*4 > size*3 {
		size *= 2
	}
	t.index = make([]uint32, size)
	mask := size - 1
	for id, name := range t.names {
		i := int(maphash.String(symSeed, name)) & mask
		for t.index[i] != 0 {
			i = (i + 1) & mask
		}
		t.index[i] = uint32(id) + 1
	}
}

// Lookup returns the id for an already-interned name.
func (t *Symtab) Lookup(name string) (uint32, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, id, ok := t.find(name)
	return id, ok
}

// Name returns the string for an id. It panics on ids the table never
// assigned, exactly like an out-of-range slice index.
func (t *Symtab) Name(id uint32) string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.names[id]
}

// Len returns how many symbols have been interned.
func (t *Symtab) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.names)
}

// Epoch returns how many compaction epochs the table has run. Ids are only
// comparable within one epoch.
func (t *Symtab) Epoch() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.epoch
}

// Compact renumbers the live symbols densely, dropping every id not in
// live, and returns the remap table (old id → new id, DeadID for dropped
// symbols) and the new epoch. Renumbering preserves relative order, so the
// remap is monotonically increasing over live ids and a name's id never
// grows. A dropped name is forgotten entirely: re-interning it later
// assigns a fresh id at the end of the table. The index is rebuilt at the
// size the live names need.
//
// Compact only renumbers the table itself. The caller owns the coordination
// problem — every structure holding ids from this table must be rewritten
// through the remap before the next use; registry.DB.CompactSymtab runs the
// whole epoch under one lock so no holder can observe mixed ids.
func (t *Symtab) Compact(live *IDSet) (remap []uint32, epoch uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	remap = make([]uint32, len(t.names))
	next := uint32(0)
	for id, name := range t.names {
		if !live.Has(uint32(id)) {
			remap[id] = DeadID
			continue
		}
		remap[id] = next
		t.names[next] = name
		next++
	}
	// Release the dropped tail so a heavily churned table actually shrinks.
	t.names = append([]string(nil), t.names[:next]...)
	t.rehash()
	t.epoch++
	return remap, t.epoch
}

// minSuffixMatch scans a population of interned ids and returns the id whose
// name is the lexicographically smallest one ending in suffix, or -1 when
// none matches. This is the slow half of unqualified-name resolution (the
// fast half is the per-generation cache in Context); taking the table lock
// once for the whole scan keeps the recompute cheap.
func (t *Symtab) minSuffixMatch(pop []uint32, suffix string) int32 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	best := ""
	slot := int32(-1)
	for _, id := range pop {
		name := t.names[id]
		if strings.HasSuffix(name, suffix) && (slot < 0 || name < best) {
			best = name
			slot = int32(id)
		}
	}
	return slot
}

// IDSet is a set of symbol ids: a bitset for O(1) membership plus an
// insertion-ordered id list for iteration and O(set-size) clearing. The
// engine uses one as its dirty-key set; Reset retains capacity, so a
// steady-state evaluation pass allocates nothing.
type IDSet struct {
	words []uint64
	ids   []uint32
}

// Add inserts id and reports whether it was newly added.
func (s *IDSet) Add(id uint32) bool {
	w := int(id >> 6)
	for w >= len(s.words) {
		s.words = append(s.words, 0)
	}
	bit := uint64(1) << (id & 63)
	if s.words[w]&bit != 0 {
		return false
	}
	s.words[w] |= bit
	s.ids = append(s.ids, id)
	return true
}

// AddAll inserts every id.
func (s *IDSet) AddAll(ids []uint32) {
	for _, id := range ids {
		s.Add(id)
	}
}

// Has reports membership.
func (s *IDSet) Has(id uint32) bool {
	w := int(id >> 6)
	return w < len(s.words) && s.words[w]&(uint64(1)<<(id&63)) != 0
}

// IntersectsAny reports whether any of ids is in the set; ids is typically
// a rule's (small, sorted) dependency list.
func (s *IDSet) IntersectsAny(ids []uint32) bool {
	for _, id := range ids {
		if s.Has(id) {
			return true
		}
	}
	return false
}

// IDs returns the member ids in insertion order. The slice is owned by the
// set and valid until the next Add or Reset.
func (s *IDSet) IDs() []uint32 { return s.ids }

// Len returns the number of members.
func (s *IDSet) Len() int { return len(s.ids) }

// Reset empties the set, retaining capacity.
func (s *IDSet) Reset() {
	for _, id := range s.ids {
		s.words[id>>6] = 0
	}
	s.ids = s.ids[:0]
}
