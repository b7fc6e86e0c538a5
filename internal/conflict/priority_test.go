package conflict

import (
	"testing"

	"repro/internal/core"
)

func tvRef() core.DeviceRef { return core.DeviceRef{Name: "tv"} }

// tvRule builds a rule on the tv with the given registration sequence number.
func tvRule(id, owner string, seq uint64, verb string) *core.Rule {
	r := core.NewRule(id, owner, tvRef(), core.Action{Verb: verb}, nil)
	r.Seq = seq
	return r
}

func arrivedCtx(person, event string) *core.Context {
	ctx := core.NewContext(baseTime)
	ctx.Users = []string{"tom", "alan", "emily"}
	if person != "" {
		ctx.RecordEvent(person, event)
	}
	return ctx
}

func TestTableSetReplaces(t *testing.T) {
	tbl := NewTable()
	tbl.Set(Order{Device: tvRef(), Users: []string{"tom", "alan"}})
	tbl.Set(Order{Device: tvRef(), Users: []string{"alan", "tom"}})
	orders := tbl.OrdersFor(tvRef())
	if len(orders) != 1 {
		t.Fatalf("orders = %d, want 1 (replaced)", len(orders))
	}
	if orders[0].Users[0] != "alan" {
		t.Errorf("first user = %q, want alan", orders[0].Users[0])
	}
}

func TestApplicableContextualBeforeDefault(t *testing.T) {
	tbl := NewTable()
	tbl.Set(Order{Device: tvRef(), Users: []string{"tom", "alan", "emily"}}) // default
	tbl.Set(Order{
		Device:        tvRef(),
		Context:       &core.Arrival{Person: "alan", Event: "home-from-work"},
		ContextSource: "alan got home from work",
		Users:         []string{"alan", "tom", "emily"},
	})

	// Context holds: contextual order applies.
	ctx := arrivedCtx("alan", "home-from-work")
	order, ok := tbl.Applicable(tvRef(), ctx)
	if !ok || order.Users[0] != "alan" {
		t.Errorf("applicable = %+v ok=%v, want alan first", order, ok)
	}

	// Context does not hold: default order applies.
	idle := arrivedCtx("", "")
	order, ok = tbl.Applicable(tvRef(), idle)
	if !ok || order.Users[0] != "tom" {
		t.Errorf("applicable = %+v ok=%v, want default tom first", order, ok)
	}
}

func TestApplicableNone(t *testing.T) {
	tbl := NewTable()
	if _, ok := tbl.Applicable(tvRef(), arrivedCtx("", "")); ok {
		t.Error("empty table should have no applicable order")
	}
}

func TestArbitratePaperScenario(t *testing.T) {
	// Fig. 1 / Sect. 3.1: Alan has higher priority on the TV in the context
	// that he got home from work; Emily has the highest priority in the
	// context that she got home from shopping.
	tbl := NewTable()
	tbl.Set(Order{
		Device:        tvRef(),
		Context:       &core.Arrival{Person: "alan", Event: "home-from-work"},
		ContextSource: "alan got home from work",
		Users:         []string{"alan", "tom", "emily"},
	})
	tbl.Set(Order{
		Device:        tvRef(),
		Context:       &core.Arrival{Person: "emily", Event: "home-from-shopping"},
		ContextSource: "emily got home from shopping",
		Users:         []string{"emily", "alan", "tom"},
	})

	tomRule := tvRule("t", "tom", 1, "turn-off")
	alanRule := tvRule("a", "alan", 2, "turn-on")
	emilyRule := tvRule("e", "emily", 3, "turn-on")
	rules := []*core.Rule{tomRule, alanRule, emilyRule}

	// Alan just got home from work: his order applies.
	got := tbl.Arbitrate(tvRef(), arrivedCtx("alan", "home-from-work"), rules)
	if got[0].Owner != "alan" {
		t.Errorf("winner = %s, want alan", got[0].Owner)
	}

	// Emily got home from shopping: her (later-registered) contextual order
	// wins even if Alan's event also fired.
	ctx := arrivedCtx("alan", "home-from-work")
	ctx.RecordEvent("emily", "home-from-shopping")
	got = tbl.Arbitrate(tvRef(), ctx, rules)
	if got[0].Owner != "emily" {
		t.Errorf("winner = %s, want emily", got[0].Owner)
	}

	// No context: no order applies → registration order.
	got = tbl.Arbitrate(tvRef(), arrivedCtx("", ""), rules)
	if got[0].Owner != "tom" {
		t.Errorf("winner = %s, want tom (lowest seq)", got[0].Owner)
	}
}

func TestArbitrateUnknownOwnersRankLast(t *testing.T) {
	tbl := NewTable()
	tbl.Set(Order{Device: tvRef(), Users: []string{"alan"}})
	known := tvRule("a", "alan", 9, "")
	unknown := tvRule("g", "guest", 1, "")
	got := tbl.Arbitrate(tvRef(), arrivedCtx("", ""), []*core.Rule{unknown, known})
	if got[0].Owner != "alan" {
		t.Errorf("winner = %s, want alan (guest not in order)", got[0].Owner)
	}
}

func TestArbitrateSingleAndEmpty(t *testing.T) {
	tbl := NewTable()
	one := tvRule("a", "x", 1, "")
	if got := tbl.Arbitrate(tvRef(), arrivedCtx("", ""), []*core.Rule{one}); len(got) != 1 {
		t.Error("single rule should pass through")
	}
	if got := tbl.Arbitrate(tvRef(), arrivedCtx("", ""), nil); len(got) != 0 {
		t.Error("no rules should yield empty")
	}
}

func TestArbitrateDoesNotMutateInput(t *testing.T) {
	tbl := NewTable()
	tbl.Set(Order{Device: tvRef(), Users: []string{"b", "a"}})
	r1 := tvRule("1", "a", 1, "")
	r2 := tvRule("2", "b", 2, "")
	input := []*core.Rule{r1, r2}
	_ = tbl.Arbitrate(tvRef(), arrivedCtx("", ""), input)
	if input[0] != r1 || input[1] != r2 {
		t.Error("Arbitrate mutated its input slice")
	}
}

func TestOrderString(t *testing.T) {
	o := Order{Device: tvRef(), Users: []string{"a", "b"}}
	if o.String() == "" {
		t.Error("empty string")
	}
	o.Context = &core.Arrival{Person: "alan", Event: "home-from-work"}
	if o.String() == "" {
		t.Error("empty string with context")
	}
}

func TestOrdersForLocationMatching(t *testing.T) {
	tbl := NewTable()
	tbl.Set(Order{Device: core.DeviceRef{Name: "light", Location: "hall"}, Users: []string{"a"}})
	if got := tbl.OrdersFor(core.DeviceRef{Name: "light", Location: "hall"}); len(got) != 1 {
		t.Errorf("hall light orders = %d, want 1", len(got))
	}
	if got := tbl.OrdersFor(core.DeviceRef{Name: "light", Location: "kitchen"}); len(got) != 0 {
		t.Errorf("kitchen light orders = %d, want 0", len(got))
	}
	if got := tbl.OrdersFor(core.DeviceRef{Name: "light"}); len(got) != 1 {
		t.Errorf("unlocated light orders = %d, want 1", len(got))
	}
}
