// Package registry implements the CADEL rule database: indexed storage for
// compiled rule objects with the access paths the paper's home server needs —
// most importantly the "extract all rules controlling the same device"
// operation that feeds conflict detection (the paper measures it at 10 ms or
// less over 10,000 rules).
//
// Rules serialize as their original CADEL source text plus metadata; import
// recompiles the source, so the database file format is human-readable CADEL,
// mirroring the paper's "CADEL DB".
package registry

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/core"
)

// Errors reported by the database.
var (
	ErrDuplicateID = errors.New("registry: rule id already registered")
	ErrNotFound    = errors.New("registry: rule not found")
)

// DB is a concurrency-safe, indexed rule database. Every DB owns a symbol
// table: Add interns the rule's id and dependency keys, binds the condition
// tree (core.Bind) and maintains the id-indexed dependency index the
// engine's interned hot path reads. A rule object therefore belongs to at
// most one DB at a time.
//
// Rules are indexed by symbol id, not by string: syms holds, for every id
// of the symbol table, the rule whose ID is that symbol and the rules whose
// dependency set holds it. Get looks the rule ID up in the symbol table and
// indexes syms; ByDepID indexes it directly. The device-name index (byName)
// is the one map, the paper's indexed extraction for conflict checks.
type DB struct {
	mu       sync.RWMutex
	tab      *core.Symtab
	syms     []symRules              // symbol id → rules; up to the symtab length at the last Add
	byName   map[string][]*core.Rule // device name → rules; made on first Add
	timeDep  []*core.Rule            // rules whose readiness can change with time alone
	gen      uint64                  // bumped on every Add/Remove
	seq      uint64
	removals uint64 // bumped on every Remove
	// inserted holds the live rules in Seq order. It is copy-on-remove: Add
	// only appends past the end and Remove builds a new backing array, so a
	// slice handed out by Changes is never written to afterwards.
	inserted []*core.Rule
	// retired is an upper-bound estimate of symbol ids orphaned by Remove
	// since the last compaction epoch (a removed rule's dependency ids,
	// identity symbols and condition variables may still be shared by live
	// rules, so this overcounts). The engine compares it against the symtab
	// length as its compaction watermark.
	retired uint64
}

// symRules is the index entry of one symbol id.
type symRules struct {
	rule *core.Rule   // the live rule whose ID is this symbol
	deps []*core.Rule // the live rules whose dependency set holds this symbol
}

// New returns an empty database with a fresh symbol table.
func New() *DB {
	return &DB{tab: core.NewSymtab()}
}

// Symtab returns the database's symbol table. The engine evaluating this
// database's rules shares it, so bound conditions and interned context keys
// agree on ids; in a fleet each home's database (and thus symtab) is its
// own.
func (db *DB) Symtab() *core.Symtab { return db.tab }

// Add registers a rule and assigns its sequence number.
func (db *DB) Add(r *core.Rule) error {
	if r == nil || r.ID == "" {
		return errors.New("registry: rule must have an id")
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.get(r.ID) != nil {
		return fmt.Errorf("%w: %q", ErrDuplicateID, r.ID)
	}
	db.seq++
	r.Seq = db.seq
	r.Bound = core.Bind(r.Cond, db.tab)
	r.Holds = core.CollectHolds(r.Bound)
	r.IDSym = db.tab.Intern(r.ID) + 1
	r.OwnerSym = db.tab.Intern(r.Owner) + 1
	r.DeviceSym = db.tab.Intern(r.Device.Key()) + 1
	deps := core.CondDeps(r.Cond)
	r.DepIDs = deps.IDsIn(db.tab)
	if n := db.tab.Len(); n > len(db.syms) {
		db.syms = slices.Grow(db.syms, n-len(db.syms))[:n]
	}
	db.syms[r.IDSym-1].rule = r
	for _, id := range r.DepIDs {
		db.syms[id].deps = append(db.syms[id].deps, r)
	}
	if db.byName == nil {
		db.byName = make(map[string][]*core.Rule)
	}
	db.byName[r.Device.Name] = append(db.byName[r.Device.Name], r)
	if deps.Time {
		db.timeDep = append(db.timeDep, r)
	}
	db.inserted = append(db.inserted, r)
	db.gen++
	return nil
}

// Remove deletes a rule by id.
func (db *DB) Remove(id string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	r := db.get(id)
	if r == nil {
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	db.syms[r.IDSym-1].rule = nil
	for _, depID := range r.DepIDs {
		db.syms[depID].deps = removeRule(db.syms[depID].deps, id)
	}
	// An emptied device-name entry is deleted, not left as an empty slice:
	// a home churning uniquely-named devices would otherwise grow the map
	// without bound (the map-key twin of the symtab id leak).
	if list := removeRule(db.byName[r.Device.Name], id); len(list) > 0 {
		db.byName[r.Device.Name] = list
	} else {
		delete(db.byName, r.Device.Name)
	}
	db.timeDep = removeRule(db.timeDep, id)
	if i, found := db.seqIndex(r.Seq); found {
		db.inserted = append(db.inserted[:i:i], db.inserted[i+1:]...)
	}
	// Rough id-orphan estimate: the dependency ids, the three identity
	// symbols, and one condition-variable id per dependency (variable names
	// and dependency keys intern separately: "temperature" vs
	// "num/temperature").
	db.retired += uint64(2*len(r.DepIDs) + 3)
	db.removals++
	db.gen++
	return nil
}

// seqIndex binary-searches inserted for the first rule with Seq >= seq;
// found reports an exact match.
func (db *DB) seqIndex(seq uint64) (int, bool) {
	return slices.BinarySearchFunc(db.inserted, seq, func(r *core.Rule, seq uint64) int {
		return cmp.Compare(r.Seq, seq)
	})
}

// get returns the live rule with the given id, or nil; the caller holds mu.
func (db *DB) get(id string) *core.Rule {
	sym, ok := db.tab.Lookup(id)
	if !ok || int(sym) >= len(db.syms) {
		return nil
	}
	return db.syms[sym].rule
}

// removeRule returns list without the rule of the given id, in a new
// backing array, so a slice handed out before stays as it was.
func removeRule(list []*core.Rule, id string) []*core.Rule {
	for i, r := range list {
		if r.ID == id {
			return append(list[:i:i], list[i+1:]...)
		}
	}
	return list
}

// Get returns the rule with the given id.
func (db *DB) Get(id string) (*core.Rule, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	r := db.get(id)
	return r, r != nil
}

// Len returns the number of registered rules.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.inserted)
}

// All returns every rule in insertion order.
func (db *DB) All() []*core.Rule {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return append(make([]*core.Rule, 0, len(db.inserted)), db.inserted...)
}

// Changes is one consistent reading of the database for a caller that
// keeps state about the rules it has synced: the live rules whose Seq is
// greater than seq, in Seq order (the rules added since the caller last
// synced at seq; Changes(0) is every live rule), plus the generation and
// the removal counter (bumped on every Remove) at the same instant. The
// added slice is shared with the database and must not be modified; later
// Adds and Removes never write to it.
func (db *DB) Changes(seq uint64) (added []*core.Rule, gen, removals uint64) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	i, found := db.seqIndex(seq)
	if found {
		i++
	}
	return db.inserted[i:len(db.inserted):len(db.inserted)], db.gen, db.removals
}

// SameDevice returns all rules whose target matches the reference — the
// indexed extraction step of the paper's conflict check (experiment E2a).
func (db *DB) SameDevice(ref core.DeviceRef) []*core.Rule {
	db.mu.RLock()
	defer db.mu.RUnlock()
	candidates := db.byName[ref.Name]
	out := make([]*core.Rule, 0, len(candidates))
	for _, r := range candidates {
		if r.Device.Matches(ref) {
			out = append(out, r)
		}
	}
	return out
}

// SameDeviceScan is the unindexed baseline for the ablation benchmark: a
// linear scan over every rule.
func (db *DB) SameDeviceScan(ref core.DeviceRef) []*core.Rule {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []*core.Rule
	for _, r := range db.inserted {
		if r.Device.Matches(ref) {
			out = append(out, r)
		}
	}
	return out
}

// ByOwner returns the rules registered by a user, in insertion order.
func (db *DB) ByOwner(owner string) []*core.Rule {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := []*core.Rule{}
	for _, r := range db.inserted {
		if r.Owner == owner {
			out = append(out, r)
		}
	}
	return out
}

// ByDepID returns the rules whose dependency set (core.CondDeps) contains the
// given interned dependency key. This is the inverted index behind the
// engine's incremental evaluation: a dirtied key maps straight to the rules
// it can affect. The returned slice is the
// index's own backing array: callers must not modify it and should treat it
// as a point-in-time snapshot (a concurrent Add or Remove replaces the
// index entry rather than mutating the returned elements in place).
func (db *DB) ByDepID(id uint32) []*core.Rule {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if int(id) >= len(db.syms) {
		return nil
	}
	return db.syms[id].deps
}

// TimeDependent returns the rules whose readiness can change with the
// passage of time alone (time windows, duration holds, arrival TTLs). The
// engine re-evaluates them whenever the clock advances, regardless of which
// context keys were dirtied.
func (db *DB) TimeDependent() []*core.Rule {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]*core.Rule, len(db.timeDep))
	copy(out, db.timeDep)
	return out
}

// Generation returns a counter that increments on every Add and Remove. The
// engine compares it against the generation of its last pass to detect rule
// churn without diffing the whole database.
func (db *DB) Generation() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.gen
}

// Retired returns the upper-bound estimate of symbol ids orphaned by rule
// removals since the last compaction epoch. The engine's dead-id watermark
// reads it; CompactSymtab resets it.
func (db *DB) Retired() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.retired
}

// CompactResult reports one symbol-compaction epoch.
type CompactResult struct {
	// Before and After are the symtab lengths around the epoch.
	Before, After int
	// Epoch is the symtab's epoch counter after compaction.
	Epoch uint64
}

// CompactSymtab runs one symbol-compaction epoch over the database and its
// symbol table, coordinating every id holder under the database lock so no
// Add or Remove can interleave with the renumbering:
//
//  1. every registered rule's ids are marked live (identity symbols,
//     dependency ids, bound condition tree), then mark — typically the
//     engine marking its context's populated slots — adds the rest;
//  2. the symtab compacts, renumbering live ids densely;
//  3. every rule is rewritten through the remap table and the id-indexed
//     rule and dependency index is rebuilt;
//  4. remapped hands the remap table to the caller so it can rewrite its own
//     id-indexed state (context slices, engine reconciliation state) before
//     anything can evaluate again.
//
// ifGen guards against state the caller synced going stale: when the
// database generation no longer equals it, some rule was added or removed
// after the caller's last sync and the epoch is refused (ok=false) — the
// caller retries at its next sync point. Both callbacks run under the
// database lock and must not call back into the database.
func (db *DB) CompactSymtab(ifGen uint64, mark func(live *core.IDSet), remapped func(remap []uint32)) (CompactResult, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.gen != ifGen {
		return CompactResult{}, false
	}
	live := &core.IDSet{}
	for _, r := range db.inserted {
		r.MarkLiveIDs(live)
	}
	if mark != nil {
		mark(live)
	}
	res := CompactResult{Before: db.tab.Len()}
	remap, epoch := db.tab.Compact(live)
	res.After, res.Epoch = db.tab.Len(), epoch
	syms := make([]symRules, res.After)
	for _, r := range db.inserted {
		r.RemapIDs(remap)
		syms[r.IDSym-1].rule = r
		for _, dep := range r.DepIDs {
			syms[dep].deps = append(syms[dep].deps, r)
		}
	}
	db.syms = syms
	if remapped != nil {
		remapped(remap)
	}
	db.retired = 0
	return res, true
}

// Record is the serialized form of one rule: its CADEL source plus metadata.
// The database file format and the fleet store's rule records both use it, so
// a persisted rule is always human-readable CADEL.
type Record struct {
	ID     string `json:"id"`
	Owner  string `json:"owner"`
	Source string `json:"source"`
}

type exportDoc struct {
	Rules []Record `json:"rules"`
}

// Records returns every rule's serialized form in insertion order. The fleet
// store snapshots a home's rule database through this.
func (db *DB) Records() []Record {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]Record, 0, len(db.inserted))
	for _, r := range db.inserted {
		out = append(out, Record{ID: r.ID, Owner: r.Owner, Source: r.Source})
	}
	return out
}

// Export serializes all rules (insertion order) as JSON-wrapped CADEL
// source. This is the import/export mechanism of Sect. 4.3(iv).
func (db *DB) Export() ([]byte, error) {
	return json.MarshalIndent(exportDoc{Rules: db.Records()}, "", "  ")
}

// DecodeExport reads the rules of an Export document, in export order. The
// caller recompiles and checks each before it registers it.
func DecodeExport(data []byte) ([]Record, error) {
	var doc exportDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("registry: decode import: %w", err)
	}
	return doc.Rules, nil
}
