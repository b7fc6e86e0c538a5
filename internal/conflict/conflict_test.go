package conflict

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/simplex"
	"repro/internal/vocab"
)

var baseTime = time.Date(2005, 3, 7, 18, 30, 0, 0, time.UTC)

func cmp(v string, op simplex.Relation, val float64) *core.Compare {
	return &core.Compare{Var: v, Op: op, Value: val}
}

func mkRule(id, owner, device, verb string, cond core.Condition, settings map[string]core.Value) *core.Rule {
	if cond == nil {
		cond = core.Always{}
	}
	return &core.Rule{
		ID: id, Owner: owner,
		Device: core.DeviceRef{Name: device},
		Action: core.Action{Verb: verb, Settings: settings},
		Cond:   cond,
	}
}

func TestConsistent(t *testing.T) {
	var c Checker
	tests := []struct {
		name string
		cond core.Condition
		want bool
	}{
		{
			name: "satisfiable bounds",
			cond: &core.And{Terms: []core.Condition{
				cmp("temp", simplex.GT, 26), cmp("humid", simplex.GT, 65),
			}},
			want: true,
		},
		{
			name: "contradictory bounds",
			cond: &core.And{Terms: []core.Condition{
				cmp("temp", simplex.GT, 28), cmp("temp", simplex.LT, 25),
			}},
			want: false,
		},
		{
			name: "contradiction hidden in one or-branch",
			cond: &core.Or{Terms: []core.Condition{
				&core.And{Terms: []core.Condition{cmp("t", simplex.GT, 5), cmp("t", simplex.LT, 3)}},
				cmp("h", simplex.GT, 50),
			}},
			want: true, // second branch is fine
		},
		{
			name: "bool contradiction",
			cond: &core.And{Terms: []core.Condition{
				&core.BoolIs{Var: "door/locked", Want: true},
				&core.BoolIs{Var: "door/locked", Want: false},
			}},
			want: false,
		},
		{
			name: "presence in two rooms",
			cond: &core.And{Terms: []core.Condition{
				&core.Presence{Person: "tom", Place: "living room"},
				&core.Presence{Person: "tom", Place: "kitchen"},
			}},
			want: false,
		},
		{
			name: "presence home plus concrete room",
			cond: &core.And{Terms: []core.Condition{
				&core.Presence{Person: "tom", Place: "home"},
				&core.Presence{Person: "tom", Place: "kitchen"},
			}},
			want: true,
		},
		{
			name: "presence vs nobody",
			cond: &core.And{Terms: []core.Condition{
				&core.Presence{Person: "tom", Place: "living room"},
				&core.Nobody{Place: "living room"},
			}},
			want: false,
		},
		{
			name: "nobody home vs someone somewhere",
			cond: &core.And{Terms: []core.Condition{
				&core.Presence{Person: "tom", Place: "kitchen"},
				&core.Nobody{Place: "home"},
			}},
			want: false,
		},
		{
			name: "disjoint time windows",
			cond: &core.And{Terms: []core.Condition{
				&core.TimeWindow{FromMin: 6 * 60, ToMin: 9 * 60, Weekday: -1},
				&core.TimeWindow{FromMin: 20 * 60, ToMin: 22 * 60, Weekday: -1},
			}},
			want: false,
		},
		{
			name: "wrapping night window overlaps early morning",
			cond: &core.And{Terms: []core.Condition{
				&core.TimeWindow{FromMin: 22 * 60, ToMin: 30 * 60, Weekday: -1},
				&core.TimeWindow{FromMin: 5 * 60, ToMin: 7 * 60, Weekday: -1},
			}},
			want: true,
		},
		{
			name: "weekday mismatch",
			cond: &core.And{Terms: []core.Condition{
				&core.TimeWindow{FromMin: 0, ToMin: 1440, Weekday: 1},
				&core.TimeWindow{FromMin: 0, ToMin: 1440, Weekday: 2},
			}},
			want: false,
		},
		{
			name: "arrivals and onair never contradict",
			cond: &core.And{Terms: []core.Condition{
				&core.Arrival{Person: "alan", Event: "home-from-work"},
				&core.Arrival{Person: "emily", Event: "home-from-shopping"},
				&core.OnAir{Keyword: "baseball game"},
				&core.OnAir{Keyword: "movie"},
			}},
			want: true,
		},
		{
			name: "always",
			cond: core.Always{},
			want: true,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			rule := mkRule("r", "tom", "tv", "turn-on", tt.cond, nil)
			got, err := c.Consistent(rule)
			if err != nil {
				t.Fatalf("Consistent: %v", err)
			}
			if got != tt.want {
				t.Errorf("Consistent = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestFindConflictsPaperScenario(t *testing.T) {
	// The paper's E2 shape: rules over the same device with 2-inequality
	// conditions; overlapping conditions with different actions conflict.
	var c Checker
	tomAircon := mkRule("tom-ac", "tom", "air conditioner", "turn-on",
		&core.And{Terms: []core.Condition{
			cmp("temperature", simplex.GT, 26), cmp("humidity", simplex.GT, 65),
		}},
		map[string]core.Value{"temperature": {IsNumber: true, Number: 25, Unit: "celsius"}})
	alanAircon := mkRule("alan-ac", "alan", "air conditioner", "turn-on",
		&core.And{Terms: []core.Condition{
			cmp("temperature", simplex.GT, 25), cmp("humidity", simplex.GT, 60),
		}},
		map[string]core.Value{"temperature": {IsNumber: true, Number: 24, Unit: "celsius"}})

	conflicts, err := c.FindConflicts(alanAircon, []*core.Rule{tomAircon})
	if err != nil {
		t.Fatal(err)
	}
	if len(conflicts) != 1 {
		t.Fatalf("conflicts = %v, want 1 (conditions overlap above 26C/65%%, settings differ)", conflicts)
	}
	if conflicts[0].String() == "" {
		t.Error("conflict should describe itself")
	}

	// Emily's band (>29C, >75%) still overlaps Alan's (>25C, >60%):
	// both hold at e.g. 30C/80%.
	emilyAircon := mkRule("emily-ac", "emily", "air conditioner", "turn-on",
		&core.And{Terms: []core.Condition{
			cmp("temperature", simplex.GT, 29), cmp("humidity", simplex.GT, 75),
		}},
		map[string]core.Value{"temperature": {IsNumber: true, Number: 27, Unit: "celsius"}})
	conflicts, err = c.FindConflicts(emilyAircon, []*core.Rule{alanAircon, tomAircon})
	if err != nil {
		t.Fatal(err)
	}
	if len(conflicts) != 2 {
		t.Errorf("conflicts = %d, want 2", len(conflicts))
	}
}

func TestNoConflictCases(t *testing.T) {
	var c Checker
	base := mkRule("a", "tom", "tv", "turn-on",
		cmp("temperature", simplex.GT, 28), nil)

	tests := []struct {
		name  string
		other *core.Rule
	}{
		{
			name:  "different device",
			other: mkRule("b", "alan", "stereo", "turn-off", cmp("temperature", simplex.GT, 20), nil),
		},
		{
			name:  "same action",
			other: mkRule("b", "alan", "tv", "turn-on", cmp("temperature", simplex.GT, 20), nil),
		},
		{
			name:  "disjoint conditions",
			other: mkRule("b", "alan", "tv", "turn-off", cmp("temperature", simplex.LT, 10), nil),
		},
		{
			name:  "same id skipped",
			other: mkRule("a", "alan", "tv", "turn-off", cmp("temperature", simplex.GT, 20), nil),
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			conflicts, err := c.FindConflicts(base, []*core.Rule{tt.other})
			if err != nil {
				t.Fatal(err)
			}
			if len(conflicts) != 0 {
				t.Errorf("conflicts = %v, want none", conflicts)
			}
		})
	}
}

func TestConflictBoundaryStrictness(t *testing.T) {
	// temp > 28 vs temp < 28 share no point; temp >= 28 vs temp <= 28 share 28.
	var c Checker
	strictA := mkRule("a", "x", "fan", "turn-on", cmp("t", simplex.GT, 28), nil)
	strictB := mkRule("b", "y", "fan", "turn-off", cmp("t", simplex.LT, 28), nil)
	ok, err := c.Conflicts(strictA, strictB)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("strict > and < at the same bound must not conflict")
	}
	looseA := mkRule("a", "x", "fan", "turn-on", cmp("t", simplex.GE, 28), nil)
	looseB := mkRule("b", "y", "fan", "turn-off", cmp("t", simplex.LE, 28), nil)
	ok, err = c.Conflicts(looseA, looseB)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error(">= and <= at the same bound share the boundary point")
	}
}

func TestConflictsSymmetric(t *testing.T) {
	var c Checker
	r := rand.New(rand.NewSource(3))
	ops := []simplex.Relation{simplex.GT, simplex.GE, simplex.LT, simplex.LE}
	f := func() bool {
		a := mkRule("a", "x", "dev", "turn-on",
			cmp("v", ops[r.Intn(4)], float64(r.Intn(10))), nil)
		b := mkRule("b", "y", "dev", "turn-off",
			cmp("v", ops[r.Intn(4)], float64(r.Intn(10))), nil)
		ab, err1 := c.Conflicts(a, b)
		ba, err2 := c.Conflicts(b, a)
		return err1 == nil && err2 == nil && ab == ba
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestIntervalFastPathAgrees cross-checks the production checker's
// per-variable interval decision against the simplex oracle on random
// single-variable terms.
func TestIntervalFastPathAgrees(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	ops := []simplex.Relation{simplex.GT, simplex.GE, simplex.LT, simplex.LE, simplex.EQ}
	vars := []string{"a", "b"}
	var c Checker
	f := func() bool {
		n := 1 + r.Intn(5)
		term := make(core.Term, 0, n)
		for i := 0; i < n; i++ {
			term = append(term, cmp(vars[r.Intn(2)], ops[r.Intn(5)], float64(r.Intn(11)-5)))
		}
		s, err1 := SimplexTermFeasible(term)
		iv, err2 := c.TermFeasible(term)
		return err1 == nil && err2 == nil && s == iv
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestTermFeasibleCoupledConstraints: comparisons over several variables
// are decided per variable — one variable's empty range makes the term
// infeasible however the others are bounded — and agree with the simplex
// oracle, which solves them as one linear system.
func TestTermFeasibleCoupledConstraints(t *testing.T) {
	var c Checker
	for _, tt := range []struct {
		term core.Term
		want bool
	}{
		{core.Term{cmp("x", simplex.GE, 6), cmp("y", simplex.GE, 6)}, true},
		{core.Term{cmp("x", simplex.GE, 6), cmp("y", simplex.LE, 5), cmp("x", simplex.LE, 7), cmp("y", simplex.GT, 4)}, true},
		{core.Term{cmp("x", simplex.GE, 6), cmp("y", simplex.GE, 0), cmp("x", simplex.LE, 5)}, false},
		{core.Term{cmp("x", simplex.EQ, 6), cmp("y", simplex.EQ, 6), cmp("y", simplex.GT, 6)}, false},
	} {
		ok, err := c.TermFeasible(tt.term)
		if err != nil || ok != tt.want {
			t.Errorf("TermFeasible(%v) = %v, %v; want %v", tt.term, ok, err, tt.want)
		}
		oracle, err := SimplexTermFeasible(tt.term)
		if err != nil || oracle != tt.want {
			t.Errorf("SimplexTermFeasible(%v) = %v, %v; want %v", tt.term, oracle, err, tt.want)
		}
	}
}

func TestFindConflictsFromCADELSources(t *testing.T) {
	// End-to-end: parse + compile two users' CADEL rules and detect their
	// conflict, as the home server does on registration.
	lex := vocab.Default()
	compiler := core.NewCompiler(lex)
	parse := func(src, id, owner string) *core.Rule {
		t.Helper()
		cmd, err := lang.Parse(src, lex)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		rule, err := compiler.CompileRule(cmd.(*lang.RuleDef), id, owner)
		if err != nil {
			t.Fatalf("compile %q: %v", src, err)
		}
		return rule
	}
	tom := parse("If temperature is higher than 26 degrees and humidity is higher than 65 percent, "+
		"turn on the air conditioner with 25 degrees of temperature setting.", "tom-1", "tom")
	alan := parse("If temperature is higher than 25 degrees and humidity is higher than 60 percent, "+
		"turn on the air conditioner with 24 degrees of temperature setting.", "alan-1", "alan")

	var c Checker
	conflicts, err := c.FindConflicts(alan, []*core.Rule{tom})
	if err != nil {
		t.Fatal(err)
	}
	if len(conflicts) != 1 {
		t.Fatalf("conflicts = %v, want exactly one", conflicts)
	}
}

func TestDNFConflictAcrossOrBranches(t *testing.T) {
	var c Checker
	// a: (cold) or (hot); b: hot → conflict through the second branch.
	a := mkRule("a", "x", "fan", "turn-off", &core.Or{Terms: []core.Condition{
		cmp("t", simplex.LT, 5),
		cmp("t", simplex.GT, 30),
	}}, nil)
	b := mkRule("b", "y", "fan", "turn-on", cmp("t", simplex.GT, 35), nil)
	ok, err := c.Conflicts(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("conflict through or-branch not detected")
	}
}

func TestManyCandidates(t *testing.T) {
	// The paper's workload: 100 same-device rules, each with a 2-inequality
	// condition, checked against a new rule.
	var c Checker
	var candidates []*core.Rule
	for i := 0; i < 100; i++ {
		candidates = append(candidates, mkRule(
			fmt.Sprintf("r%d", i), "u", "air conditioner", "turn-on",
			&core.And{Terms: []core.Condition{
				cmp("temperature", simplex.GT, float64(20+i%10)),
				cmp("humidity", simplex.GT, float64(50+i%20)),
			}},
			map[string]core.Value{"temperature": {IsNumber: true, Number: float64(20 + i%8)}},
		))
	}
	newRule := mkRule("new", "v", "air conditioner", "turn-on",
		&core.And{Terms: []core.Condition{
			cmp("temperature", simplex.GT, 26),
			cmp("humidity", simplex.GT, 65),
		}},
		map[string]core.Value{"temperature": {IsNumber: true, Number: 19}})
	conflicts, err := c.FindConflicts(newRule, candidates)
	if err != nil {
		t.Fatal(err)
	}
	if len(conflicts) != 100 {
		t.Errorf("conflicts = %d, want 100 (all overlap, all settings differ)", len(conflicts))
	}
}
