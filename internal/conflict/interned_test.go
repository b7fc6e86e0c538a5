package conflict

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/simplex"
)

// internedFixture builds a registry (so rules carry their interned identity)
// and an interned context sharing its symbol table — the setup under which
// ArbitrateWinner takes the owner-rank fast path.
func internedFixture(t *testing.T, owners []string) (*registry.DB, *core.Context, []*core.Rule) {
	t.Helper()
	db := registry.New()
	rules := make([]*core.Rule, len(owners))
	for i, owner := range owners {
		rules[i] = core.NewRule(fmt.Sprintf("r%d", i), owner,
			core.DeviceRef{Name: "tv"},
			core.Action{Verb: "turn-on"},
			core.Always{})
		if err := db.Add(rules[i]); err != nil {
			t.Fatal(err)
		}
	}
	ctx := core.NewInternedContext(time.Date(2005, 3, 7, 18, 0, 0, 0, time.UTC), db.Symtab())
	return db, ctx, rules
}

// TestArbitrateWinnerMatchesArbitrate pins the contract: the rank-scan
// winner is always Arbitrate's first element, across random tables, random
// contexts and random ready subsets.
func TestArbitrateWinnerMatchesArbitrate(t *testing.T) {
	owners := []string{"tom", "alan", "emily", "guest", "visitor"}
	_, ctx, rules := internedFixture(t, owners)
	ctx.SetUsers(owners[:3])
	rng := rand.New(rand.NewSource(42))

	contexts := []struct {
		cond   core.Condition
		source string
	}{
		{nil, ""},
		{&core.Arrival{Person: "emily", Event: "home-from-shopping"}, "emily got home from shopping"},
		{&core.Nobody{Place: "bedroom"}, "nobody at bedroom"},
		{&core.Presence{Person: "tom", Place: "living room"}, "tom at living room"},
		{&core.Compare{Var: "temperature", Op: simplex.GT, Value: 25}, "hot"},
	}

	tbl := NewTable()
	for step := 0; step < 500; step++ {
		switch rng.Intn(6) {
		case 0: // table churn
			users := append([]string(nil), owners...)
			rng.Shuffle(len(users), func(i, j int) { users[i], users[j] = users[j], users[i] })
			cc := contexts[rng.Intn(len(contexts))]
			tbl.Set(Order{
				Device:        core.DeviceRef{Name: "tv"},
				Context:       cc.cond,
				ContextSource: cc.source,
				Users:         users[:rng.Intn(len(users)+1)],
			})
		case 1: // context churn
			switch rng.Intn(4) {
			case 0:
				ctx.SetLocation("tom", []string{"", "living room", "bedroom"}[rng.Intn(3)])
			case 1:
				ctx.RecordEvent("emily", "home-from-shopping")
			case 2:
				ctx.Now = ctx.Now.Add(time.Duration(rng.Intn(10)) * time.Minute)
			default:
				ctx.SetNumber("temperature", float64(10+rng.Intn(30)))
			}
		}
		subset := make([]*core.Rule, 0, len(rules))
		for _, r := range rules {
			if rng.Intn(3) > 0 {
				subset = append(subset, r)
			}
		}
		if len(subset) == 0 {
			continue
		}
		winner := tbl.ArbitrateWinner(core.DeviceRef{Name: "tv"}, ctx, subset)
		ranked := tbl.Arbitrate(core.DeviceRef{Name: "tv"}, ctx, subset)
		if winner != ranked[0] {
			t.Fatalf("step %d: ArbitrateWinner = %s, Arbitrate[0] = %s", step, winner.ID, ranked[0].ID)
		}
	}
}

// TestArbitrateWinnerStringContextFallback: without a symbol table the
// winner must still come out of the map-keyed path.
func TestArbitrateWinnerStringContextFallback(t *testing.T) {
	_, _, rules := internedFixture(t, []string{"tom", "alan"})
	tbl := NewTable()
	tbl.Set(Order{Device: core.DeviceRef{Name: "tv"}, Users: []string{"alan", "tom"}})
	ctx := core.NewContext(time.Now())
	winner := tbl.ArbitrateWinner(core.DeviceRef{Name: "tv"}, ctx, rules)
	if winner.Owner != "alan" {
		t.Fatalf("winner = %s, want alan", winner.Owner)
	}
}

// TestArbitrateWinnerDegenerate covers the empty and single-rule inputs.
func TestArbitrateWinnerDegenerate(t *testing.T) {
	_, ctx, rules := internedFixture(t, []string{"tom"})
	tbl := NewTable()
	if got := tbl.ArbitrateWinner(core.DeviceRef{Name: "tv"}, ctx, nil); got != nil {
		t.Fatalf("winner of no rules = %v, want nil", got)
	}
	if got := tbl.ArbitrateWinner(core.DeviceRef{Name: "tv"}, ctx, rules[:1]); got != rules[0] {
		t.Fatalf("winner of one rule = %v, want the rule", got)
	}
}

// TestOrdersForGenerationCache pins the satellite fix: repeated OrdersFor
// calls without table edits return the same cached slice; a Set refreshes
// it.
func TestOrdersForGenerationCache(t *testing.T) {
	tbl := NewTable()
	ref := core.DeviceRef{Name: "tv"}
	tbl.Set(Order{Device: ref, Users: []string{"tom", "alan"}})

	first := tbl.OrdersFor(ref)
	second := tbl.OrdersFor(ref)
	if len(first) != 1 || len(second) != 1 {
		t.Fatalf("orders = %d/%d, want 1/1", len(first), len(second))
	}
	if &first[0] != &second[0] {
		t.Fatal("idle OrdersFor calls should return the cached slice")
	}

	tbl.Set(Order{Device: ref, Users: []string{"alan", "tom"}})
	third := tbl.OrdersFor(ref)
	if third[0].Users[0] != "alan" {
		t.Fatalf("post-edit first user = %q, want alan", third[0].Users[0])
	}
	// The previously returned snapshot is immutable history.
	if first[0].Users[0] != "tom" {
		t.Fatalf("pre-edit snapshot mutated: %q", first[0].Users[0])
	}
}
