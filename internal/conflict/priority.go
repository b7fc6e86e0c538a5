package conflict

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
)

// Order is one priority order over users for a device, optionally attached
// to a context condition (Sect. 3.2: "users can define multiple different
// priorities for the same device and attach a context to each of them").
// Users are listed highest-priority first.
type Order struct {
	Device core.DeviceRef
	// Context must hold for this order to apply; nil means the order is the
	// device's default.
	Context core.Condition
	// ContextSource preserves the CADEL text of the context for display and
	// serialization.
	ContextSource string
	Users         []string
}

func (o Order) String() string {
	ctx := "default"
	if o.Context != nil {
		ctx = o.Context.String()
	}
	return fmt.Sprintf("%s [%s]: %s", o.Device, ctx, strings.Join(o.Users, " > "))
}

// Table holds the priority orders of all devices. Contextual orders are
// consulted before the default order; among applicable contextual orders the
// most recently registered wins (users refine priorities over time).
//
// Per-device arbitration state is derived lazily and cached per table
// generation: the match-filtered order list (what OrdersFor returns) and,
// once arbitration has seen a symbol-interned context, the interned owner
// index — each order's context pre-bound (core.Bind) and its user list
// interned into rank vectors — so the steady-state Arbitrate path selects a
// winner with a linear max-scan: no owner-position map, no sort, no
// allocation.
type Table struct {
	mu     sync.Mutex
	orders []Order
	gen    uint64 // bumped on every Set

	// Generation-gated device caches. A cached deviceOrders is immutable
	// once built; Set drops the whole map, so readers holding a previously
	// returned slice keep a consistent snapshot.
	cacheGen uint64
	tab      *core.Symtab
	devs     map[core.DeviceRef]*deviceOrders
}

// deviceOrders is the per-device arbitration cache for one table generation:
// the orders matching the device (contextual most-recent-first, then
// defaults) and, when the table knows a symbol table, the interned index.
type deviceOrders struct {
	orders  []Order
	entries []orderEntry // built iff the table knows a symtab; same indexing as orders
}

// orderEntry is one applicable-order candidate on the interned fast path.
type orderEntry struct {
	bound   core.Condition // order context bound against the symtab; nil for the default
	userIDs []uint32       // interned Users plus one, highest priority first
}

// NewTable returns an empty priority table.
func NewTable() *Table {
	return &Table{}
}

// Set registers (or replaces) an order. Two orders are the same slot when
// they share a device key and context source.
func (t *Table) Set(o Order) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.gen++
	for i, existing := range t.orders {
		if existing.Device.Key() == o.Device.Key() && existing.ContextSource == o.ContextSource {
			t.orders[i] = o
			return
		}
	}
	t.orders = append(t.orders, o)
}

// Invalidate drops the generation-gated per-device caches and bumps the
// table generation, as if every order had been re-registered. The engine
// calls it after a symbol-compaction epoch: the cached entries hold interned
// user-rank vectors and bound order contexts whose ids predate the remap,
// and the symtab pointer itself is unchanged, so the caches cannot notice
// the renumbering on their own. The generation bump makes the engine re-sync
// its cached order dependencies and re-arbitrate, exactly as after a Set.
func (t *Table) Invalidate() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.gen++
	t.devs = nil
	t.tab = nil
}

// Generation returns a counter that increments on every Set. The execution
// engine compares it against the generation of its last evaluation pass to
// notice priority edits without re-arbitrating every device every time.
func (t *Table) Generation() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.gen
}

// Orders returns a snapshot of every registered order in registration order.
func (t *Table) Orders() []Order {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Order, len(t.orders))
	copy(out, t.orders)
	return out
}

// deviceLocked returns the device's cached arbitration state, (re)building
// the cache when the generation moved or a different symbol table shows up.
// tab may be nil (string-keyed callers); a non-nil tab upgrades the cache to
// include the interned index.
func (t *Table) deviceLocked(device core.DeviceRef, tab *core.Symtab) *deviceOrders {
	if t.devs == nil || t.cacheGen != t.gen {
		t.devs = make(map[core.DeviceRef]*deviceOrders)
		t.cacheGen = t.gen
	}
	if tab != nil && tab != t.tab {
		t.tab = tab
		t.devs = make(map[core.DeviceRef]*deviceOrders)
	}
	do := t.devs[device]
	if do == nil {
		do = t.buildDeviceLocked(device)
		t.devs[device] = do
	}
	return do
}

// buildDeviceLocked computes one device's order list and, when a symbol
// table is known, its interned index. Runs once per (device, generation).
func (t *Table) buildDeviceLocked(device core.DeviceRef) *deviceOrders {
	do := &deviceOrders{}
	var defaults []Order
	for _, o := range t.orders {
		if !o.Device.Matches(device) {
			continue
		}
		if o.Context != nil {
			do.orders = append(do.orders, o)
		} else {
			defaults = append(defaults, o)
		}
	}
	// Most recently registered contextual order first.
	for i, j := 0, len(do.orders)-1; i < j; i, j = i+1, j-1 {
		do.orders[i], do.orders[j] = do.orders[j], do.orders[i]
	}
	do.orders = append(do.orders, defaults...)
	if t.tab != nil {
		do.entries = make([]orderEntry, len(do.orders))
		for i, o := range do.orders {
			e := orderEntry{userIDs: make([]uint32, len(o.Users))}
			if o.Context != nil {
				e.bound = core.Bind(o.Context, t.tab)
			}
			for j, u := range o.Users {
				e.userIDs[j] = t.tab.Intern(u) + 1
			}
			do.entries[i] = e
		}
	}
	return do
}

// OrdersFor returns every order whose device matches, contextual orders
// first (most recent first), then the default. The result is a cached,
// generation-gated snapshot shared between callers: treat it as read-only.
func (t *Table) OrdersFor(device core.DeviceRef) []Order {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.deviceLocked(device, nil).orders
}

// Applicable returns the first order that matches the device and whose
// context holds in ctx, or false when none applies.
func (t *Table) Applicable(device core.DeviceRef, ctx *core.Context) (Order, bool) {
	t.mu.Lock()
	orders := t.deviceLocked(device, nil).orders
	t.mu.Unlock()
	for _, o := range orders {
		if o.Context == nil || o.Context.Eval(ctx) {
			return o, true
		}
	}
	return Order{}, false
}

// ArbitrateWinner returns the rule that wins arbitration for the device in
// the current context, without building the ranked list: the applicable
// order is found through the pre-bound entries and the winner through a
// linear max-scan over each rule's interned owner rank — zero allocations
// steady-state, so a reconciliation whose winner is unchanged is free. It
// always agrees with Arbitrate's first element; the engine calls Arbitrate
// only when ownership actually changed and the suppressed list is needed.
//
// Rules must carry their interned identity (registered in the database whose
// symbol table the context shares); contexts without a symbol table fall
// back to the map-keyed path.
func (t *Table) ArbitrateWinner(device core.DeviceRef, ctx *core.Context, rules []*core.Rule) *core.Rule {
	if len(rules) == 0 {
		return nil
	}
	if len(rules) == 1 {
		return rules[0]
	}
	tab := ctx.Symtab()
	if tab == nil {
		return t.Arbitrate(device, ctx, rules)[0]
	}
	t.mu.Lock()
	do := t.deviceLocked(device, tab)
	t.mu.Unlock()
	best, _ := winner(t.applicableUsers(do, ctx), rules...)
	return best
}

// Explain reports how an arbitration winner was picked, for firing traces.
type Explain struct {
	// Ordered reports whether any priority order applied to the device in
	// the current context.
	Ordered bool
	// Context is the CADEL source of the applicable order's context (""
	// for the device's default order); meaningful only when Ordered.
	Context string
	// Rank is the winning owner's position in the applicable order (0 =
	// highest priority); -1 when the owner is unlisted or no order applies,
	// in which case registration sequence decided.
	Rank int
}

// ArbitrateWinnerExplain is ArbitrateWinner plus the explanation the firing
// trace records: which priority order applied (if any) and where the winning
// owner ranks in it. It shares ArbitrateWinner's zero-allocation rank scan
// on the interned path and always returns the same winner — including for a
// single ready rule, where it still resolves the applicable order so the
// trace can say why the sole contender holds the device.
func (t *Table) ArbitrateWinnerExplain(device core.DeviceRef, ctx *core.Context, rules []*core.Rule) (*core.Rule, Explain) {
	if len(rules) == 0 {
		return nil, Explain{Rank: -1}
	}
	tab := ctx.Symtab()
	if tab == nil {
		// String-keyed oracle path: the ranked list plus the applicable
		// order (both allocate; tracing never runs this path steady-state).
		winner := t.Arbitrate(device, ctx, rules)[0]
		ex := Explain{Rank: -1}
		if order, ok := t.Applicable(device, ctx); ok {
			ex.Ordered = true
			ex.Context = order.ContextSource
			for i, u := range order.Users {
				if u == winner.Owner {
					ex.Rank = i
					break
				}
			}
		}
		return winner, ex
	}
	t.mu.Lock()
	do := t.deviceLocked(device, tab)
	t.mu.Unlock()
	users, idx := t.applicableEntry(do, ctx)
	best, bestRank := winner(users, rules...)
	ex := Explain{Rank: -1}
	if idx >= 0 {
		ex.Ordered = true
		ex.Context = do.orders[idx].ContextSource
		if bestRank < 1<<30 {
			ex.Rank = bestRank
		}
	}
	return best, ex
}

// winner is the interned arbitration order, shared by ArbitrateWinner,
// ArbitrateWinnerExplain and Arbitrate: it returns the rule that ranks first
// — its owner highest in the applicable order's user vector (see ownerRank),
// then the earliest registration — and that owner's rank. Of equal rules the
// first wins, so winner(users, b, a) returns a only when a ranks strictly
// ahead of b: that is Arbitrate's sort comparator.
func winner(users []uint32, rules ...*core.Rule) (*core.Rule, int) {
	best, bestRank := rules[0], ownerRank(users, rules[0].OwnerSym)
	for _, r := range rules[1:] {
		if rk := ownerRank(users, r.OwnerSym); rk < bestRank || (rk == bestRank && r.Seq < best.Seq) {
			best, bestRank = r, rk
		}
	}
	return best, bestRank
}

// ownerRank returns the owner's highest-priority position in the applicable
// order's interned user vector, or a rank below every listed owner when
// absent (or when no order applies). User vectors hold ids plus one, so an
// unregistered rule (OwnerSym 0) never matches.
func ownerRank(users []uint32, owner uint32) int {
	for i, u := range users {
		if u == owner {
			return i
		}
	}
	return 1 << 30
}

// Arbitrate ranks rules that want to act on the same device in the current
// context. The winner is first. Ranking: position of the rule's owner in the
// applicable priority order (absent owners rank below present ones; the
// first mention wins if a user is listed twice), then registration sequence
// as the deterministic fallback. The comparator is a total order, so the
// result does not depend on the input order. Symbol-interned contexts rank
// through the same owner-rank index as ArbitrateWinner; string-keyed
// contexts build the owner-position map (oracle path).
func (t *Table) Arbitrate(device core.DeviceRef, ctx *core.Context, rules []*core.Rule) []*core.Rule {
	if len(rules) <= 1 {
		out := make([]*core.Rule, len(rules))
		copy(out, rules)
		return out
	}
	if tab := ctx.Symtab(); tab != nil {
		t.mu.Lock()
		do := t.deviceLocked(device, tab)
		t.mu.Unlock()
		users := t.applicableUsers(do, ctx)
		out := make([]*core.Rule, len(rules))
		copy(out, rules)
		sort.SliceStable(out, func(i, j int) bool {
			first, _ := winner(users, out[j], out[i])
			return first != out[j]
		})
		return out
	}
	rank := func(*core.Rule) int { return 1 << 30 }
	if order, ok := t.Applicable(device, ctx); ok {
		pos := make(map[string]int, len(order.Users))
		for i, u := range order.Users {
			if _, dup := pos[u]; !dup {
				pos[u] = i
			}
		}
		rank = func(r *core.Rule) int {
			if i, ok := pos[r.Owner]; ok {
				return i
			}
			return 1 << 30
		}
	}
	out := make([]*core.Rule, len(rules))
	copy(out, rules)
	sort.SliceStable(out, func(i, j int) bool {
		ri, rj := rank(out[i]), rank(out[j])
		if ri != rj {
			return ri < rj
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// applicableUsers returns the first applicable cached order's interned user
// vector, or nil when no order applies (every owner then ranks equal and
// registration order decides).
func (t *Table) applicableUsers(do *deviceOrders, ctx *core.Context) []uint32 {
	users, _ := t.applicableEntry(do, ctx)
	return users
}

// applicableEntry is applicableUsers plus the index of the applicable order
// (into do.orders), or -1 when none applies.
func (t *Table) applicableEntry(do *deviceOrders, ctx *core.Context) ([]uint32, int) {
	for i := range do.entries {
		if do.entries[i].bound == nil || do.entries[i].bound.Eval(ctx) {
			return do.entries[i].userIDs, i
		}
	}
	return nil, -1
}
