// Package engine implements the paper's rule execution module: it maintains
// the current context from sensor events, re-evaluates the registered rule
// objects whenever the context changes, arbitrates rules that want the same
// device with the context-attached priority table, and dispatches the
// winning actions to the appliances.
//
// Evaluation is incremental. Every context write marks the dependency keys
// it invalidates (core.NumberDirtyKeys and friends) in a dirty set, and an
// evaluation pass only re-evaluates the rules whose dependency set
// (core.CondDeps, inverted-indexed by registry.DB.ByDepID) intersects it —
// plus the time-dependent rules whenever the clock has advanced, and rules
// added since the last pass. Per-rule readiness is cached between passes, so
// arbitration reconciles only the devices whose ready-set actually changed,
// or whose contextual priority order was touched by the dirty keys.
//
// The hot path is symbol-interned. The engine shares the rule database's
// symbol table (core.Symtab): device events resolve to interned context-key
// and dirty-key ids through a per-signature cache, the context stores values
// in id-indexed slices, conditions evaluate in their pre-bound form
// (core.Bind — no map lookup, no string compare per leaf), the dirty set is
// an id bitset, and per-pass scratch is reused — so a steady-state
// single-key event evaluates with zero heap allocations.
//
// WithFullScan keeps the paper's naive evaluator as the one oracle the
// interned incremental path must agree with. It is naive in every respect:
// a map-backed context, unbound conditions (per-leaf name resolution), plain
// string ingest with no dirty marking, no dependency index, and no symbol
// ids held — every pass re-evaluates every rule and re-arbitrates every
// device.
//
// Arbitration is reconciliation-style: for every device the engine tracks
// which rule currently "owns" it (the highest-priority rule whose condition
// holds). When ownership changes — a higher-priority user's rule becomes
// ready, or the current owner's condition lapses — the new owner's action is
// dispatched. This reproduces the hand-offs of the paper's Fig. 1 time
// chart (stereo: Tom → Emily; TV: Alan → Emily).
//
// The firing path is id-indexed end to end: rules and devices are addressed
// by their interned identity (core.Rule.IDSym/DeviceSym), per-rule readiness
// is a bit slice, per-device ready-sets and ownership are DeviceSym-indexed
// slices, quantified presence conditions and arrivals evaluate against the
// context's counter-backed interned store, and winner selection goes through
// conflict.Table.ArbitrateWinner's owner-rank scan — so a steady-state pass,
// including one that re-arbitrates without an ownership change, performs no
// map iteration and no allocation. The ranked list (and its allocation) is
// built only when ownership actually changes and the suppressed set must be
// logged.
//
// Symbol ids are stable only within a compaction epoch. Rule churn with
// unique names retires ids forever, so the engine watches a dead-id
// watermark (registry.DB.Retired vs symtab size) at churn-pass boundaries
// and runs an epoch (CompactSymbols) that renumbers the live ids densely
// and rewrites every holder — database rules and indexes, context slices,
// the engine's reconciliation state, the priority table's caches — under
// one registry lock (see the epoch/remap contract in internal/core's
// README). Steady-state passes never check the watermark, so the zero-alloc
// hot path is untouched.
package engine

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/conflict"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/registry"
)

// BatchDispatcher applies all actions fired by one evaluation pass as a
// single batch, recording any dispatch error in each entry's Err field in
// place. It is invoked outside the engine lock, at most once per pass, and
// must not return before every entry has been dispatched (the engine appends
// the batch to its log when it returns). The fleet hub wires this to a
// dispatch worker pool so a pass's actions go out in parallel.
type BatchDispatcher func(batch []Fired)

// Fired records one dispatched action for the scenario log.
type Fired struct {
	Time       time.Time
	Rule       *core.Rule
	Suppressed []*core.Rule // ready rules that lost arbitration
	Err        error        // dispatch error, if any
}

func (f Fired) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s  %-24s %-22s (rule %s, owner %s)",
		f.Time.Format("15:04"), f.Rule.Device.Key(), f.Rule.Action.String(), f.Rule.ID, f.Rule.Owner)
	if len(f.Suppressed) > 0 {
		names := make([]string, len(f.Suppressed))
		for i, r := range f.Suppressed {
			names[i] = r.Owner
		}
		fmt.Fprintf(&sb, " [over %s]", strings.Join(names, ","))
	}
	if f.Err != nil {
		fmt.Fprintf(&sb, " ERROR: %v", f.Err)
	}
	return sb.String()
}

// orderDep caches what one contextual priority order's context reads, so a
// pass can tell whether the dirty keys or the clock may have flipped which
// order applies.
type orderDep struct {
	device core.DeviceRef
	time   bool     // the context can change with the clock alone (DepSet.Time)
	ids    []uint32 // the context's interned dependency keys
}

// cachedVar is the resolved ingest plan for one device-variable signature.
type cachedVar struct {
	kind     device.VarKind
	user     string   // presence-* specials: the user moving
	userID   uint32   // interned user (presence-* specials)
	keyIDs   []uint32 // interned context keys the value writes
	dirtyIDs []uint32 // interned dependency ids the write invalidates
}

// arrIDs is the resolved ingest plan for one arrival signature: the interned
// "person|event" key and the event name's dependency id (which doubles as
// the dirty key).
type arrIDs struct {
	key, name uint32
}

// Engine is the rule execution module.
type Engine struct {
	mu            sync.Mutex
	ctx           *core.Context
	db            *registry.DB
	tab           *core.Symtab // shared with db; nil in full-scan mode
	priorities    *conflict.Table
	batchDispatch BatchDispatcher // nil: fired actions are only logged
	now           func() time.Time

	fullScan bool // naive oracle: map-backed context, every rule every pass
	quiet    bool // migration import: reconcile ownership, observe nothing (see SetQuiet)

	passes  uint64 // evaluation passes run
	batches uint64 // dispatch batches handed out (≤ one per pass)
	logCap  int    // keep at most this many log entries; 0 = unbounded
	// compactFloor is the symbol-count floor for automatic symbol
	// compaction (see WithCompactFloor); <= 0 disables the watermark.
	compactFloor int

	// Incremental-evaluation state (unused in full-scan mode).
	dirtyIDs   core.IDSet   // dirty dependency ids
	allDirty   bool         // re-evaluate everything on the next pass
	dbGen      uint64       // registry generation at the last pass
	tblGen     uint64       // priority-table generation at the last pass
	tblDeps    []orderDep   // cached contextual-order dependencies for tblGen
	lastEvalAt time.Time    // clock reading of the last pass
	timeRules  []*core.Rule // cached db.TimeDependent() for dbGen
	syncedSeq  uint64       // rules with Seq <= syncedSeq are synced from the db
	removals   uint64       // db removal counter at the last sync

	// Id-indexed reconciliation state: rules and devices are addressed by
	// their interned identity (core.Rule.IDSym / DeviceSym), so the per-pass
	// bookkeeping is slice indexing and bitsets instead of string-keyed
	// map-of-map juggling.
	readyBits  []bool           // rule IDSym → readiness at the last pass
	readyRules [][]*core.Rule   // device DeviceSym → ready rules
	devRefs    []core.DeviceRef // device DeviceSym → reference
	devOwner   []uint32         // device DeviceSym → owning rule IDSym (0 = none)
	devSeen    core.IDSet       // DeviceSyms that ever had a ready rule
	devRank    []uint32         // DeviceSym → lexicographic rank among seen devices
	rankStale  bool             // devSeen grew; devRank must be rebuilt

	// Ingest caches: first sight of a device variable, an arrival signature,
	// a place name or the EPG feed interns its keys; every later event with
	// the same signature reuses the ids without building a string. Every
	// event reaches the ingest path as an ingest.Event of byte slices, so the
	// caches are keyed by signature byte strings (see appendSig) and
	// consulted with the allocation-free m[string(b)] lookup form. Each map
	// is made on its first write and dropped on symbol compaction.
	varCacheB   map[string]*cachedVar
	arrCacheB   map[string]arrIDs // "person|event" → interned ids
	placeSlot   map[string]uint32 // place name → interned place id + 1
	programsDep uint32            // interned core.ProgramsDepKey
	sigScratch  []byte            // the signature being ingested

	// Per-pass scratch, reused across passes and cleared on exit so a
	// steady-state pass allocates nothing.
	scCandSet core.IDSet   // candidate rule IDSyms (dedup)
	scCands   []*core.Rule // candidate rules
	scDevs    core.IDSet   // DeviceSyms whose ready-set changed
	scDevIDs  []uint32     // reconciliation-order scratch

	// Cached observability snapshot: rebuilt only when the context data (or
	// its clock) actually changed since the last Snapshot call.
	snap    *core.Context
	snapVer uint64

	// Metrics (WithMetrics): deltas accumulate in the plain mAcc fields
	// under the engine lock and flush to the shared atomic block at firing
	// passes and every 32nd pass, so a steady-state pass amortizes to well
	// under one atomic add; the histograms are sampled on the same cadence.
	em   *obs.EngineMetrics
	mAcc metricsAcc

	// Firing trace (WithTrace): a bounded ring of structured pass records,
	// possibly shared with other engines, captured on the interned path with
	// every slot's slices reused in place, so steady-state capture allocates
	// nothing once the ring has cycled. traceID tags this engine's records;
	// traceSeq numbers them.
	tr       *TraceRing
	traceID  uint64
	traceSeq uint64

	owners map[string]string // full-scan mode: device key → owning rule ID
	log    []Fired
	onFire func(Fired)
}

// Option configures the engine.
type Option interface{ apply(*Engine) }

type optionFunc func(*Engine)

func (f optionFunc) apply(e *Engine) { f(e) }

// WithEventTTL sets how long arrival events stay fresh in the context.
func WithEventTTL(ttl time.Duration) Option {
	return optionFunc(func(e *Engine) { e.ctx.EventTTL = ttl })
}

// WithOnFire installs a callback invoked (outside the engine lock) after
// every dispatched action.
func WithOnFire(fn func(Fired)) Option {
	return optionFunc(func(e *Engine) { e.onFire = fn })
}

// WithBatchDispatcher routes each pass's fired actions through fn as one
// batch; without it fired actions are logged but applied to no device. fn
// must fill every entry's Err before returning; the engine then appends the
// whole batch to its log under a single lock acquisition.
func WithBatchDispatcher(fn BatchDispatcher) Option {
	return optionFunc(func(e *Engine) { e.batchDispatch = fn })
}

// WithLogLimit caps the fired-action log at roughly n entries, discarding the
// oldest. A fleet-scale hub sets a cap so millions of long-lived homes do not
// grow their logs without bound; the default (0) keeps everything.
func WithLogLimit(n int) Option {
	return optionFunc(func(e *Engine) { e.logCap = n })
}

// metricsAcc batches metric deltas between flushes to the shared atomic
// block (see Engine.flushMetricsLocked).
type metricsAcc struct {
	passes, checked, fired, suppressed, batches uint64
}

// WithMetrics points the engine at a shared metric block (typically its hub
// shard's obs.ShardMetrics.Engine). The engine batches counter deltas under
// its lock and flushes them at firing passes and every 32nd pass; PassNs
// and DirtyKeys are sampled every 32nd pass. nil disables instrumentation
// (the default), overriding an earlier WithMetrics.
func WithMetrics(m *obs.EngineMetrics) Option {
	return optionFunc(func(e *Engine) { e.em = m })
}

// WithTrace records structured pass records — triggering dirty keys,
// candidate rules, per-device arbitration outcome with winner, losers and
// rank reason — into tr, retrievable via TraceSnapshot. Engines may share
// one ring under its concurrency contract (see TraceRing); its capacity
// then bounds their records together. Tracing runs only on the interned
// evaluation path and keeps it allocation-free once the ring has cycled.
// nil disables tracing (the default), overriding an earlier WithTrace.
func WithTrace(tr *TraceRing) Option {
	return optionFunc(func(e *Engine) { e.tr = tr })
}

// DefaultCompactFloor is the symbol count below which automatic symbol
// compaction never triggers, so small homes never pay a compaction pause.
const DefaultCompactFloor = 4096

// WithCompactFloor tunes the automatic symbol-compaction watermark: at the
// end of an interned evaluation pass that saw rule churn, the engine runs a
// compaction epoch (CompactSymbols) once the symbol table holds at least n
// symbols AND the registry's retired-id estimate says at least half of them
// may be dead. n <= 0 disables automatic compaction entirely.
//
// Compaction rewrites the rule database's symbol ids in place, so it assumes
// no other interned engine holds ids of the same database. A full-scan
// engine holds none, so an oracle sharing the database is unaffected.
func WithCompactFloor(n int) Option {
	return optionFunc(func(e *Engine) { e.compactFloor = n })
}

// WithFullScan selects the naive evaluator of the paper's prototype: every
// pass re-evaluates every registered rule and re-arbitrates every device,
// over a map-backed context with unbound conditions, and the engine holds
// no symbol ids (it neither interns nor compacts). Tests use a full-scan
// engine as the one oracle the interned incremental evaluator must agree
// with; benchmarks use it as the baseline.
func WithFullScan() Option {
	return optionFunc(func(e *Engine) { e.fullScan = true })
}

// New builds an engine over a rule database and priority table. now supplies
// the (simulated or wall) clock; WithBatchDispatcher applies actions. Unless
// WithFullScan is given, the engine adopts the database's symbol table and
// evaluates on the interned incremental hot path.
func New(db *registry.DB, priorities *conflict.Table, now func() time.Time, opts ...Option) *Engine {
	e := &Engine{
		ctx:          core.NewContext(now()),
		db:           db,
		priorities:   priorities,
		now:          now,
		compactFloor: DefaultCompactFloor,
		allDirty:     true,
	}
	for _, o := range opts {
		o.apply(e)
	}
	if e.fullScan {
		e.owners = make(map[string]string)
		e.tr = nil
		return e
	}
	e.tab = db.Symtab()
	ictx := core.NewInternedContext(e.ctx.Now, e.tab)
	ictx.EventTTL = e.ctx.EventTTL
	e.ctx = ictx
	e.programsDep = e.tab.Intern(core.ProgramsDepKey)
	if e.tr != nil {
		e.traceID = e.tr.attach()
	}
	return e
}

// Snapshot returns a read-only snapshot of the current context for
// observability (HTTP stats, scenario logs). The snapshot is cached: as long
// as no context data changed and no pass advanced the clock, repeated calls
// return the same object without cloning, so polling does not tax the engine
// lock. Callers must not mutate the result; use Context for a private copy.
func (e *Engine) Snapshot() *core.Context {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.snap == nil || e.snapVer != e.ctx.Version() || !e.snap.Now.Equal(e.ctx.Now) {
		e.snap = e.ctx.Clone()
		e.snapVer = e.ctx.Version()
	}
	return e.snap
}

// Context returns a mutation-safe copy of the current context. The deep
// clone happens outside the engine lock, from the cached snapshot.
func (e *Engine) Context() *core.Context {
	return e.Snapshot().Clone()
}

// Log returns the fired-action log.
func (e *Engine) Log() []Fired {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Fired, len(e.log))
	copy(out, e.log)
	return out
}

// Passes returns the number of evaluation passes the engine has run. The
// fleet hub reads it to measure ingestion coalescing (events handled per
// pass), and tests use it to pin down "a burst is one pass" semantics.
func (e *Engine) Passes() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.passes
}

// DispatchBatches returns how many dispatch batches the engine has handed
// out. Every pass dispatches its fired set as at most one batch, so this is
// bounded by Passes.
func (e *Engine) DispatchBatches() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.batches
}

// flushMetricsLocked publishes the batched metric deltas to the shared
// atomic block. Called with e.mu held, at firing passes and every 32nd
// pass; FlushMetrics exposes it so a stats snapshot can drain the remainder.
func (e *Engine) flushMetricsLocked() {
	a := &e.mAcc
	if a.passes != 0 {
		e.em.Passes.Add(a.passes)
	}
	if a.checked != 0 {
		e.em.RulesChecked.Add(a.checked)
	}
	if a.fired != 0 {
		e.em.RulesFired.Add(a.fired)
	}
	if a.suppressed != 0 {
		e.em.RulesSuppressed.Add(a.suppressed)
	}
	if a.batches != 0 {
		e.em.DispatchBatches.Add(a.batches)
	}
	*a = metricsAcc{}
}

// FlushMetrics publishes any batched metric deltas immediately. The fleet
// hub calls it per home before reading the shard blocks, so stats and
// scrapes observe exact counts instead of up-to-seven-pass-stale ones.
func (e *Engine) FlushMetrics() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.em != nil {
		e.flushMetricsLocked()
	}
}

// Owners returns a snapshot of the device → owning-rule-ID map.
func (e *Engine) Owners() map[string]string {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.fullScan {
		out := make(map[string]string, e.devSeen.Len())
		for _, dev := range e.devSeen.IDs() {
			if o := e.devOwner[dev]; o != 0 {
				out[e.tab.Name(dev-1)] = e.tab.Name(o - 1)
			}
		}
		return out
	}
	out := make(map[string]string, len(e.owners))
	for k, v := range e.owners {
		out[k] = v
	}
	return out
}

// SetFavorites registers a user's favourite keywords ("my favorite movie").
// Favourites are configuration rather than sensor state, so the next pass
// re-evaluates everything.
func (e *Engine) SetFavorites(user string, keywords []string) {
	e.mu.Lock()
	e.ctx.SetFavorites(user, keywords)
	e.allDirty = true
	e.mu.Unlock()
	e.Tick()
}

// Favorites returns a user's favourite keywords, nil when none are set. The
// slice is the engine's own: SetFavorites replaces it rather than writing
// into it, and callers must not modify it.
func (e *Engine) Favorites(user string) []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ctx.Favorites[user]
}

// SetUsers registers the known users (needed by nobody/everyone).
func (e *Engine) SetUsers(users []string) {
	e.mu.Lock()
	e.ctx.SetUsers(users)
	e.allDirty = true
	e.mu.Unlock()
	e.Tick()
}

// ---- event entry points (wired to UPnP event subscriptions) ----

// HandleDeviceEvent ingests a UPnP property-change event from a device: the
// server passes the device's identity and the changed variables; the engine
// copies them into a pooled ingest.Event, maps them onto context keys
// through the same ingest as IngestEvent, marks the matching dependency keys
// dirty, and re-evaluates. The engine keeps nothing that aliases vars. The
// event is pooled rather than an Engine field because hub homes never call
// this, and one more field moves every Engine up a heap size class.
func (e *Engine) HandleDeviceEvent(deviceType, friendlyName, location string, vars map[string]string) {
	ev := ingest.AcquireEvent()
	ev.Fill(deviceType, friendlyName, location, vars)
	e.mu.Lock()
	e.ingestEventLocked(ev)
	ev.Release()
	e.evaluateLocked()
}

// ingestStringLocked is the full-scan oracle's ingest: plain string writes
// into the map-backed context, with no caches and no dirty marking (the
// oracle re-evaluates every rule on every pass).
func (e *Engine) ingestStringLocked(deviceType, friendlyName, location string, vars map[string]string) {
	for name, value := range vars {
		switch device.KindOfVar(name) {
		case device.VarKindSpecial:
			e.applySpecialLocked(name, value)
		case device.VarKindNumber:
			if f, err := strconv.ParseFloat(value, 64); err == nil {
				for _, key := range device.ContextKeys(deviceType, friendlyName, location, name) {
					e.ctx.SetNumber(key, f)
				}
			}
		case device.VarKindBool:
			b := value == "1" || value == "true"
			for _, key := range device.ContextKeys(deviceType, friendlyName, location, name) {
				e.ctx.SetBool(key, b)
			}
		default:
			// String vars (mode) are not observable by CADEL conditions in
			// this version; ignored.
		}
	}
}

func (e *Engine) applySpecialLocked(name, value string) {
	switch {
	case strings.HasPrefix(name, "presence-"):
		user := strings.TrimPrefix(name, "presence-")
		if user == "" {
			// A bare "presence-" variable is malformed; recording it would
			// count a phantom "" user in the presence quantifiers. The
			// interned ingest path drops it the same way.
			return
		}
		e.ctx.SetLocation(user, value)
	case name == "event":
		// "person|event|seq"
		parts := strings.SplitN(value, "|", 3)
		if len(parts) >= 2 && parts[0] != "" {
			e.ctx.Now = e.now()
			e.ctx.RecordEvent(parts[0], parts[1])
		}
	case name == "programs":
		e.ctx.SetPrograms(device.DecodePrograms(value))
	}
}

// Tick re-evaluates at the current time; the server calls it after advancing
// the simulation clock so time windows, duration conditions and event TTLs
// progress.
func (e *Engine) Tick() {
	e.mu.Lock()
	e.evaluateLocked()
}

// evaluateLocked runs one reconciliation pass. It is entered with e.mu held
// and releases it before invoking dispatch callbacks. The pass's fired set is
// dispatched as a single batch — one BatchDispatcher call followed by one
// lock re-acquisition to append the whole batch to the log — never a lock
// round-trip per action.
func (e *Engine) evaluateLocked() {
	if e.quiet {
		// Migration import: run the pass for its state transitions (readiness
		// cache, holds, device ownership) but keep it invisible — nothing
		// dispatched, logged, traced or counted. The fired set the pass
		// computes is exactly the set of rules being ADOPTED as current
		// owners (they already fired once on the migration source).
		e.ctx.Now = e.now()
		em, tr := e.em, e.tr
		e.em, e.tr = nil, nil
		e.passLocked()
		e.em, e.tr = em, tr
		e.mu.Unlock()
		return
	}
	e.ctx.Now = e.now()
	e.passes++
	// Metrics: histograms are sampled every 32nd pass (two extra clock
	// reads and four atomic adds, amortized under a nanosecond per pass) so
	// the instrumented steady state stays within TestObsOverheadGate's 5 %.
	var t0 time.Time
	sampled := e.em != nil && e.passes&31 == 0
	if sampled {
		e.em.DirtyKeys.Observe(uint64(e.dirtyIDs.Len()))
		t0 = time.Now()
	}
	fired := e.passLocked()
	if len(fired) > 0 {
		e.batches++
	}
	if e.em != nil {
		e.mAcc.passes++
		if n := len(fired); n > 0 {
			e.mAcc.batches++
			e.mAcc.fired += uint64(n)
			for i := range fired {
				e.mAcc.suppressed += uint64(len(fired[i].Suppressed))
			}
		}
		if sampled {
			e.em.PassNs.Observe(uint64(time.Since(t0)))
		}
		if sampled || len(fired) > 0 {
			e.flushMetricsLocked()
		}
	}

	batchDispatch := e.batchDispatch
	onFire := e.onFire
	e.mu.Unlock()

	if len(fired) == 0 {
		return
	}
	if batchDispatch != nil {
		batchDispatch(fired)
	}

	e.mu.Lock()
	e.log = append(e.log, fired...)
	if e.logCap > 0 && len(e.log) > 2*e.logCap {
		// Trim with hysteresis so a capped log costs one copy per logCap
		// appends, not one per fire.
		e.log = append(e.log[:0:0], e.log[len(e.log)-e.logCap:]...)
	}
	e.mu.Unlock()

	if onFire != nil {
		for i := range fired {
			onFire(fired[i])
		}
	}
}

// passLocked runs one evaluation pass of the engine's mode.
func (e *Engine) passLocked() []Fired {
	if e.fullScan {
		return e.fullScanPassLocked()
	}
	return e.internedPassLocked()
}

// maintainHoldsLocked updates the context's duration-hold marks for one
// rule's condition tree. The interned path iterates the rule's pre-collected
// Duration nodes (usually none) instead of walking the tree.
func (e *Engine) maintainHoldsLocked(r *core.Rule) {
	if !e.fullScan && r.Bound != nil {
		for _, d := range r.Holds {
			if d.Inner.Eval(e.ctx) {
				e.ctx.MarkHeld(d.Key)
			} else {
				e.ctx.ClearHeld(d.Key)
			}
		}
		return
	}
	core.WalkCond(r.Cond, func(c core.Condition) {
		d, ok := c.(*core.Duration)
		if !ok {
			return
		}
		if d.Inner.Eval(e.ctx) {
			e.ctx.MarkHeld(d.Key)
		} else {
			e.ctx.ClearHeld(d.Key)
		}
	})
}

// fullScanPassLocked is the naive evaluator: walk every rule, rebuild every
// device's ready-set, re-arbitrate every device.
func (e *Engine) fullScanPassLocked() []Fired {
	rules := e.db.All()
	if e.em != nil {
		e.mAcc.checked += uint64(len(rules))
	}

	// Maintain duration holds.
	for _, r := range rules {
		e.maintainHoldsLocked(r)
	}

	// Group ready rules by device.
	ready := make(map[string][]*core.Rule)
	refs := make(map[string]core.DeviceRef)
	for _, r := range rules {
		if r.Ready(e.ctx) {
			key := r.Device.Key()
			ready[key] = append(ready[key], r)
			refs[key] = r.Device
		}
	}

	// Reconcile ownership per device.
	var fired []Fired
	keys := make([]string, 0, len(ready))
	for key := range ready {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		ranked := e.priorities.Arbitrate(refs[key], e.ctx, ready[key])
		winner := ranked[0]
		if e.owners[key] == winner.ID {
			continue // already in effect
		}
		e.owners[key] = winner.ID
		fired = append(fired, Fired{
			Time:       e.ctx.Now,
			Rule:       winner,
			Suppressed: ranked[1:],
		})
	}
	// Devices whose owning rule lapsed lose their owner; the device keeps
	// its last state (the paper defines no un-do semantics).
	for key := range e.owners {
		if _, still := ready[key]; !still {
			delete(e.owners, key)
		}
	}
	return fired
}

// syncTableDepsLocked recomputes (and interns) the cached contextual-order
// dependency sets for a new priority-table generation.
func (e *Engine) syncTableDepsLocked(gen uint64) {
	e.tblGen = gen
	e.tblDeps = e.tblDeps[:0]
	for _, o := range e.priorities.Orders() {
		if o.Context != nil {
			deps := core.CondDeps(o.Context)
			e.tblDeps = append(e.tblDeps, orderDep{device: o.Device, time: deps.Time, ids: deps.IDsIn(e.tab)})
		}
	}
}

// internedPassLocked is the id-indexed incremental evaluator — the default
// firing path. Every context write marks the dependency ids it invalidates,
// and the pass re-evaluates only the rules indexed under them (plus the
// time-dependent rules when the clock advanced, and rules added since the
// last pass). Every piece of per-pass bookkeeping is addressed by interned
// ids: candidates are
// deduplicated through a rule-id bitset, readiness lives in an IDSym-indexed
// bit slice, ready rules are grouped in DeviceSym-indexed slices, ownership
// is a DeviceSym-indexed id vector, and reconciliation order comes from a
// cached lexicographic device rank — so a steady-state pass (and a
// steady-state re-arbitration whose winner does not change) performs no map
// iteration, no string comparison and no allocation.
func (e *Engine) internedPassLocked() []Fired {
	nowChanged := !e.ctx.Now.Equal(e.lastEvalAt)
	e.lastEvalAt = e.ctx.Now

	// Sync rule additions and removals with the database. One consistent
	// reading yields the rules added since the last synced Seq and the
	// removal counter; only a moved counter can have left removed rules in
	// the ready lists. Every rule read after the reading (time-dependent
	// list, dependency index) was live at some point after it, so a later
	// removal moves the counter again and is evicted at the next sync.
	var added []*core.Rule
	churned := false
	if e.db.Generation() != e.dbGen {
		churned = true
		var removals uint64
		added, e.dbGen, removals = e.db.Changes(e.syncedSeq)
		if removals != e.removals {
			e.removals = removals
			e.evictRemovedLocked()
		}
		if len(added) > 0 {
			e.syncedSeq = added[len(added)-1].Seq
		}
		e.timeRules = e.db.TimeDependent()
	}

	// Collect the candidate rules to re-evaluate, deduplicated through the
	// rule-id bitset. The index and the time-dependent list can return
	// rules added to the db after this pass's sync; only rules the sync has
	// seen are evaluated (the rest are picked up as added on the next
	// pass).
	cands := e.scCands[:0]
	if e.allDirty {
		all, _, _ := e.db.Changes(0)
		for _, r := range all {
			if r.Seq <= e.syncedSeq && e.scCandSet.Add(r.IDSym) {
				cands = append(cands, r)
			}
		}
	} else {
		for _, depID := range e.dirtyIDs.IDs() {
			for _, r := range e.db.ByDepID(depID) {
				if r.Seq <= e.syncedSeq && e.scCandSet.Add(r.IDSym) {
					cands = append(cands, r)
				}
			}
		}
		if nowChanged {
			for _, r := range e.timeRules {
				if r.Seq <= e.syncedSeq && e.scCandSet.Add(r.IDSym) {
					cands = append(cands, r)
				}
			}
		}
		for _, r := range added {
			if e.scCandSet.Add(r.IDSym) {
				cands = append(cands, r)
			}
		}
	}

	if e.em != nil {
		e.mAcc.checked += uint64(len(cands))
	}

	// Maintain duration holds before readiness: all duration rules are
	// time-dependent, so whenever time advanced they are all candidates and
	// the hold marks stay exactly as the full scan would leave them.
	for _, r := range cands {
		e.maintainHoldsLocked(r)
	}

	// Re-evaluate candidates and diff cached readiness.
	for _, r := range cands {
		rdy := r.ReadyBound(e.ctx)
		for int(r.IDSym) >= len(e.readyBits) {
			e.readyBits = append(e.readyBits, false)
		}
		if rdy == e.readyBits[r.IDSym] {
			continue
		}
		e.readyBits[r.IDSym] = rdy
		dev := r.DeviceSym
		if rdy {
			for int(dev) >= len(e.readyRules) {
				e.readyRules = append(e.readyRules, nil)
				e.devRefs = append(e.devRefs, core.DeviceRef{})
				e.devOwner = append(e.devOwner, 0)
			}
			if e.devSeen.Add(dev) {
				e.rankStale = true
				e.devRefs[dev] = r.Device
			}
			e.readyRules[dev] = append(e.readyRules[dev], r)
		} else {
			e.dropReadyLocked(r)
		}
		e.scDevs.Add(dev)
	}

	// Decide which devices to re-arbitrate: those whose ready-set changed,
	// plus those whose contextual priority order may have flipped.
	if g := e.priorities.Generation(); g != e.tblGen {
		e.syncTableDepsLocked(g)
		for _, dev := range e.devSeen.IDs() {
			if len(e.readyRules[dev]) > 0 {
				e.scDevs.Add(dev)
			}
		}
	} else {
		for _, od := range e.tblDeps {
			touched := e.allDirty || (od.time && nowChanged) || e.dirtyIDs.IntersectsAny(od.ids)
			if !touched {
				continue
			}
			for _, dev := range e.devSeen.IDs() {
				if len(e.readyRules[dev]) > 0 && od.device.Matches(e.devRefs[dev]) {
					e.scDevs.Add(dev)
				}
			}
		}
	}

	// Firing trace: claim and fill a ring slot only when the pass has work
	// (steady empty ticks do not churn the ring). Dirty names resolve
	// through the symtab here, before the pass resets the dirty set; the
	// recorded strings are the interner's own, so records stay valid across
	// compaction epochs.
	var rec *passRec
	if e.tr != nil && (len(cands) > 0 || churned || e.allDirty || e.dirtyIDs.Len() > 0 || e.scDevs.Len() > 0) {
		e.traceSeq++
		rec = e.tr.start(e.traceID, e.traceSeq, e.ctx.Now, e.allDirty)
		for _, id := range e.dirtyIDs.IDs() {
			rec.addDirty(e.tab.Name(id))
		}
		for _, r := range cands {
			rec.addCand(r.ID)
		}
	}

	// Reconcile ownership for the affected devices, ordered by the devices'
	// lexicographic rank so the fired log is deterministic and identical to
	// the full scan's sorted-key order.
	var fired []Fired
	if e.scDevs.Len() > 0 {
		if e.rankStale {
			e.rebuildDevRankLocked()
		}
		devs := append(e.scDevIDs[:0], e.scDevs.IDs()...)
		slices.SortFunc(devs, func(a, b uint32) int { return int(e.devRank[a]) - int(e.devRank[b]) })
		e.scDevIDs = devs
		for _, dev := range devs {
			list := e.readyRules[dev]
			var dec *passDec
			if rec != nil {
				if dec = rec.addDec(); dec != nil {
					dec.setDevice(e.devRefs[dev])
				}
			}
			if len(list) == 0 {
				if dec != nil {
					dec.fired = e.devOwner[dev] != 0 // ownership lapsed
				}
				e.devOwner[dev] = 0
				continue
			}
			var winner *core.Rule
			if dec != nil {
				// The explain variant shares the winner scan but also
				// resolves which priority order applied, so the trace can
				// answer "why does this rule hold the device".
				var ex conflict.Explain
				winner, ex = e.priorities.ArbitrateWinnerExplain(e.devRefs[dev], e.ctx, list)
				dec.setOutcome(winner, ex, list)
			} else {
				winner = e.priorities.ArbitrateWinner(e.devRefs[dev], e.ctx, list)
			}
			if e.devOwner[dev] == winner.IDSym {
				continue
			}
			// Ownership changed: build the full ranked list for the log. The
			// recorded owner comes from the ranked list, not the earlier
			// winner scan: a concurrent Table.Set between the two calls may
			// re-rank, and owner, dispatch and log must agree (the table's
			// generation bump re-arbitrates on the next pass regardless).
			ranked := e.priorities.Arbitrate(e.devRefs[dev], e.ctx, list)
			if e.devOwner[dev] == ranked[0].IDSym {
				continue
			}
			e.devOwner[dev] = ranked[0].IDSym
			if dec != nil {
				dec.fired = true
				if ranked[0] != winner {
					// A concurrent Table.Set re-ranked between the two scans;
					// the trace records the rule that actually took ownership.
					dec.winner, dec.winnerOwner = ranked[0].ID, ranked[0].Owner
				}
			}
			fired = append(fired, Fired{
				Time:       e.ctx.Now,
				Rule:       ranked[0],
				Suppressed: ranked[1:],
			})
		}
	}

	e.dirtyIDs.Reset()
	e.allDirty = false
	clear(cands)
	e.scCands = cands[:0]
	e.scCandSet.Reset()
	e.scDevs.Reset()

	// Dead-id watermark: only passes that saw rule churn can have retired
	// ids, so the steady state never takes the registry lock or the symtab
	// lock here. The epoch runs at this pass boundary, with the engine's
	// cached rule state freshly in sync.
	if churned && e.compactFloor > 0 {
		if n := e.tab.Len(); n >= e.compactFloor && 2*e.db.Retired() >= uint64(n) {
			e.compactLocked()
		}
	}
	return fired
}

// ---- symbol compaction (epoch/remap contract) ----

// CompactStats reports one symbol-compaction epoch.
type CompactStats struct {
	// Before and After are the symbol-table lengths around the epoch.
	Before int `json:"symbols_before"`
	After  int `json:"symbols_after"`
	// Epoch is the symbol table's epoch counter after the compaction.
	Epoch uint64 `json:"epoch"`
}

// SymbolStats is an engine's symbol-table and id-slice footprint, for
// idle-memory observability: how many symbols are interned, an upper-bound
// estimate of how many are dead (retired by rule removals since the last
// epoch), the compaction epoch, and the lengths of the id-indexed stores
// that grow with the id space. All zero for full-scan engines.
type SymbolStats struct {
	Symbols      int    `json:"symbols"`
	DeadEstimate uint64 `json:"dead_estimate"`
	Epoch        uint64 `json:"epoch"`
	NumSlots     int    `json:"num_slots"`
	BoolSlots    int    `json:"bool_slots"`
	LocSlots     int    `json:"loc_slots"`
	EventSlots   int    `json:"event_slots"`
	ReadySlots   int    `json:"ready_slots"`
}

// SymbolStats returns the engine's current symbol footprint.
func (e *Engine) SymbolStats() SymbolStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.tab == nil {
		return SymbolStats{}
	}
	st := SymbolStats{
		Symbols:      e.tab.Len(),
		DeadEstimate: e.db.Retired(),
		Epoch:        e.tab.Epoch(),
		ReadySlots:   len(e.readyBits),
	}
	st.NumSlots, st.BoolSlots, st.LocSlots, st.EventSlots = e.ctx.IDSliceLens()
	return st
}

// CompactSymbols forces a symbol-compaction epoch: run an evaluation pass to
// sync with the rule database, then renumber the live symbols densely and
// rewrite every id holder (database rules and indexes, context slices,
// reconciliation state, priority-table caches). ok is false for full-scan
// engines (they hold no ids) or when concurrent rule churn kept outrunning
// the sync. Automatic compaction calls the same machinery from the
// watermark check at churn-pass boundaries.
func (e *Engine) CompactSymbols() (CompactStats, bool) {
	for attempt := 0; attempt < 3; attempt++ {
		e.mu.Lock()
		if e.fullScan {
			e.mu.Unlock()
			return CompactStats{}, false
		}
		e.evaluateLocked() // releases e.mu
		e.mu.Lock()
		st, ok := e.compactLocked()
		e.mu.Unlock()
		if ok {
			return st, true
		}
	}
	return CompactStats{}, false
}

// compactLocked runs one compaction epoch under the engine lock, at a pass
// boundary. The whole renumbering happens inside the database lock
// (registry.DB.CompactSymtab), so no rule mutation interleaves; the ifGen
// guard refuses the epoch if the database moved past the engine's last sync,
// in which case the caller retries at the next sync point.
func (e *Engine) compactLocked() (CompactStats, bool) {
	if e.fullScan {
		return CompactStats{}, false
	}
	res, ok := e.db.CompactSymtab(e.dbGen, func(live *core.IDSet) {
		e.ctx.MarkLive(live)
	}, func(remap []uint32) {
		e.ctx.Remap(remap, e.tab.Len())
		e.remapStateLocked(remap)
	})
	if !ok {
		return CompactStats{}, false
	}
	// The priority table's per-device caches hold pre-remap ids and cannot
	// notice the renumbering (the symtab pointer is unchanged); invalidating
	// bumps its generation, so the next pass re-syncs the cached order
	// dependencies and re-arbitrates — winners are unchanged, so nothing
	// fires.
	e.priorities.Invalidate()
	if e.em != nil {
		e.em.CompactEpochs.Inc()
	}
	return CompactStats{Before: res.Before, After: res.After, Epoch: res.Epoch}, true
}

// remapStateLocked rewrites the engine's id-indexed reconciliation state for
// a compaction epoch and drops the ingest caches (they memoize pre-remap
// ids; the next event per signature re-interns against the compacted table).
// It runs inside the database lock, after the database rewrote its rules.
func (e *Engine) remapStateLocked(remap []uint32) {
	n := e.tab.Len()

	// Rule readiness: every set bit belongs to a known (hence live) rule.
	readyBits := make([]bool, n+1)
	for i, rdy := range e.readyBits {
		if rdy {
			readyBits[remap[i-1]+1] = true
		}
	}
	e.readyBits = readyBits

	// Device-indexed state: seen devices with remaining state move to their
	// new ids; devices whose rules were all removed earlier may be dead, and
	// by construction their ready list is empty and their owner cleared, so
	// they are simply forgotten.
	readyRules := make([][]*core.Rule, n+1)
	devRefs := make([]core.DeviceRef, n+1)
	devOwner := make([]uint32, n+1)
	var devSeen core.IDSet
	for _, dev := range e.devSeen.IDs() {
		nd := remap[dev-1]
		if nd == core.DeadID {
			continue
		}
		readyRules[nd+1] = e.readyRules[dev]
		devRefs[nd+1] = e.devRefs[dev]
		if o := e.devOwner[dev]; o != 0 {
			devOwner[nd+1] = remap[o-1] + 1
		}
		devSeen.Add(nd + 1)
	}
	e.readyRules, e.devRefs, e.devOwner, e.devSeen = readyRules, devRefs, devOwner, devSeen
	e.devRank = nil
	e.rankStale = true

	// Pending dirty ids (ingested but not yet evaluated): a dirty id that
	// died has no live rule depending on it, so dropping it is sound; new
	// rules re-intern their dependencies and are candidates on their first
	// pass regardless.
	dirty := append([]uint32(nil), e.dirtyIDs.IDs()...)
	e.dirtyIDs = core.IDSet{}
	for _, id := range dirty {
		if nid := remap[id]; nid != core.DeadID {
			e.dirtyIDs.Add(nid)
		}
	}
	e.scCandSet, e.scDevs = core.IDSet{}, core.IDSet{}
	e.scDevIDs = nil

	clear(e.varCacheB)
	clear(e.arrCacheB)
	clear(e.placeSlot)
	e.programsDep = e.tab.Intern(core.ProgramsDepKey)
}

// evictRemovedLocked drops the rules that left the database from the ready
// lists. A removed rule that was not ready left no state behind, so this
// walks the ready rules only. A rule whose id was re-registered is
// evicted too: the database now holds a different rule under its id.
func (e *Engine) evictRemovedLocked() {
	for _, dev := range e.devSeen.IDs() {
		list := e.readyRules[dev]
		kept := list[:0]
		for _, r := range list {
			if cur, ok := e.db.Get(r.ID); ok && cur == r {
				kept = append(kept, r)
				continue
			}
			e.readyBits[r.IDSym] = false
			e.scDevs.Add(dev)
		}
		clear(list[len(kept):])
		e.readyRules[dev] = kept
	}
}

// dropReadyLocked removes a rule from its device's ready list by identity
// (order is irrelevant: arbitration is a total order over the list).
func (e *Engine) dropReadyLocked(r *core.Rule) {
	if int(r.DeviceSym) >= len(e.readyRules) {
		return
	}
	list := e.readyRules[r.DeviceSym]
	for i, x := range list {
		if x == r {
			last := len(list) - 1
			list[i] = list[last]
			list[last] = nil
			e.readyRules[r.DeviceSym] = list[:last]
			return
		}
	}
}

// rebuildDevRankLocked recomputes the lexicographic rank of every seen
// device key. It runs only when a device is seen for the first time — the
// only event that can change relative order — so steady-state passes sort
// device ids by a cached integer rank instead of comparing strings.
func (e *Engine) rebuildDevRankLocked() {
	ids := append([]uint32(nil), e.devSeen.IDs()...)
	slices.SortFunc(ids, func(a, b uint32) int {
		return strings.Compare(e.tab.Name(a-1), e.tab.Name(b-1))
	})
	for _, id := range ids {
		for int(id) >= len(e.devRank) {
			e.devRank = append(e.devRank, 0)
		}
	}
	for rank, id := range ids {
		e.devRank[id] = uint32(rank)
	}
	e.rankStale = false
}
