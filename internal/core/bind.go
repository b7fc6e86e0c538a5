package core

import (
	"repro/internal/simplex"
)

// Bind rewrites a condition tree into its pre-bound form against a symbol
// table: every variable-reading leaf (Compare, BoolIs, presence and
// arrival leaves) is replaced by a bound node holding the interned symbol
// ids it reads, so Eval on the bound tree performs no map lookup and no
// string building. And/Or/Duration nodes are rebuilt around their bound
// children; leaves with nothing to bind (time windows, EPG, foreign kinds)
// are shared with the original tree.
//
// A bound tree is only meaningful against contexts backed by the same
// symbol table (NewInternedContext). Binding does not change semantics:
// bound nodes delegate String, Vars and dependency extraction to the node
// they wrap, so logs, indexes and the conflict checker see the original
// condition.
func Bind(c Condition, tab *Symtab) Condition {
	switch n := c.(type) {
	case nil:
		return nil
	case *And:
		return &And{Terms: bindTerms(n.Terms, tab)}
	case *Or:
		return &Or{Terms: bindTerms(n.Terms, tab)}
	case *Compare:
		return &BoundCompare{Compare: n, ID: tab.Intern(n.Var)}
	case *BoolIs:
		return &BoundBoolIs{BoolIs: n, ID: tab.Intern(n.Var)}
	case *Presence:
		b := &BoundPresence{Presence: n, home: n.Place == "home"}
		if n.Person == Someone {
			b.anyone = true
		} else {
			b.person = tab.Intern(n.Person)
		}
		if !b.home {
			b.place = tab.Intern(n.Place)
		}
		return b
	case *Nobody:
		b := &BoundNobody{Nobody: n, home: n.Place == "home"}
		if !b.home {
			b.place = tab.Intern(n.Place)
		}
		return b
	case *Everyone:
		b := &BoundEveryone{Everyone: n, home: n.Place == "home"}
		if !b.home {
			b.place = tab.Intern(n.Place)
		}
		return b
	case *Arrival:
		b := &BoundArrival{Arrival: n, nameID: tab.Intern(EventDepKey(n.Event))}
		if n.Person != Someone {
			b.keyID = tab.Intern(n.Person + "|" + n.Event)
		}
		return b
	case *Duration:
		return &Duration{Inner: Bind(n.Inner, tab), Seconds: n.Seconds, Key: n.Key}
	default:
		return c
	}
}

func bindTerms(terms []Condition, tab *Symtab) []Condition {
	out := make([]Condition, len(terms))
	for i, t := range terms {
		out[i] = Bind(t, tab)
	}
	return out
}

// CollectHolds returns every Duration node in the tree, in depth-first
// order. The engine calls it once at registration so hold maintenance can
// iterate a (usually empty) slice instead of re-walking the condition tree
// every pass.
func CollectHolds(c Condition) []*Duration {
	var out []*Duration
	WalkCond(c, func(n Condition) {
		if d, ok := n.(*Duration); ok {
			out = append(out, d)
		}
	})
	return out
}

// compareNum applies a numeric relation; shared by Compare and
// BoundCompare.
func compareNum(op simplex.Relation, v, want float64) bool {
	switch op {
	case simplex.LE:
		return v <= want
	case simplex.GE:
		return v >= want
	case simplex.LT:
		return v < want
	case simplex.GT:
		return v > want
	case simplex.EQ:
		return v == want
	default:
		return false
	}
}

// BoundCompare is a Compare whose variable is resolved to a symbol id.
type BoundCompare struct {
	*Compare
	// ID is the interned symbol of Var.
	ID uint32
}

// Eval implements Condition over the interned store.
func (b *BoundCompare) Eval(ctx *Context) bool {
	v, ok := ctx.NumberID(b.ID)
	return ok && compareNum(b.Op, v, b.Value)
}

// AddCondDeps implements DepsProvider by delegating to the wrapped leaf.
func (b *BoundCompare) AddCondDeps(d *DepSet) { d.AddKey(NumberDepKey(b.Var)) }

// BoundBoolIs is a BoolIs whose variable is resolved to a symbol id.
type BoundBoolIs struct {
	*BoolIs
	// ID is the interned symbol of Var.
	ID uint32
}

// Eval implements Condition over the interned store.
func (b *BoundBoolIs) Eval(ctx *Context) bool {
	v, ok := ctx.BoolID(b.ID)
	return ok && v == b.Want
}

// AddCondDeps implements DepsProvider by delegating to the wrapped leaf.
func (b *BoundBoolIs) AddCondDeps(d *DepSet) { d.AddKey(BoolDepKey(b.Var)) }

// BoundPresence is a Presence whose person and place are resolved to symbol
// ids, so Eval reads the context's dense location slots and reverse-index
// counters.
type BoundPresence struct {
	*Presence
	person uint32 // interned Person (unused when anyone)
	place  uint32 // interned Place (unused when home)
	anyone bool   // Person == Someone
	home   bool   // Place == "home"
}

// Eval implements Condition over the interned presence store.
func (b *BoundPresence) Eval(ctx *Context) bool {
	switch {
	case b.anyone && b.home:
		return ctx.AnyoneHome()
	case b.anyone:
		return ctx.AnyoneAtID(b.place)
	case b.home:
		return ctx.AtHomeID(b.person)
	default:
		return ctx.AtID(b.person, b.place)
	}
}

// AddCondDeps implements DepsProvider by delegating to the wrapped leaf.
func (b *BoundPresence) AddCondDeps(d *DepSet) {
	if b.Person == Someone {
		d.AddKey(LocationWildcardKey)
	} else {
		d.AddKey(LocationDepKey(b.Person))
	}
}

// BoundNobody is a Nobody whose place is resolved to a symbol id.
type BoundNobody struct {
	*Nobody
	place uint32
	home  bool
}

// Eval implements Condition over the interned presence store.
func (b *BoundNobody) Eval(ctx *Context) bool {
	if b.home {
		return !ctx.AnyoneHome()
	}
	return !ctx.AnyoneAtID(b.place)
}

// AddCondDeps implements DepsProvider by delegating to the wrapped leaf.
func (b *BoundNobody) AddCondDeps(d *DepSet) { d.AddKey(LocationWildcardKey) }

// BoundEveryone is an Everyone whose place is resolved to a symbol id.
type BoundEveryone struct {
	*Everyone
	place uint32
	home  bool
}

// Eval implements Condition over the interned presence store.
func (b *BoundEveryone) Eval(ctx *Context) bool {
	if b.home {
		return ctx.EveryoneHome()
	}
	return ctx.EveryoneAtID(b.place)
}

// AddCondDeps implements DepsProvider by delegating to the wrapped leaf.
func (b *BoundEveryone) AddCondDeps(d *DepSet) { d.AddKey(LocationWildcardKey) }

// BoundArrival is an Arrival with its interned "person|event" key and
// event-name ids, read by the context's id-indexed event store.
type BoundArrival struct {
	*Arrival
	keyID  uint32 // interned "person|event" (unused for Someone)
	nameID uint32 // interned EventDepKey(Event)
}

// Eval implements Condition over the interned event store.
func (b *BoundArrival) Eval(ctx *Context) bool {
	if b.Person == Someone {
		return ctx.HasEventNameID(b.nameID)
	}
	return ctx.HasEventKeyID(b.keyID)
}

// AddCondDeps implements DepsProvider by delegating to the wrapped leaf.
func (b *BoundArrival) AddCondDeps(d *DepSet) {
	d.AddKey(EventDepKey(b.Event))
	d.Time = true
}
