package conflict

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/alloctest"
	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/simplex"
	"repro/internal/vocab"
)

// randomAtom draws one atom of any kind. Constants sit on a 0.5 grid, far
// from the simplex oracle's strict gap; places include "home", presences
// include someone, and time windows include midnight-wrapping, whole-day
// and weekday-restricted ones.
func randomAtom(r *rand.Rand) core.Condition {
	places := []string{"living room", "kitchen", homePlace}
	persons := []string{"tom", "alan", core.Someone}
	switch r.Intn(9) {
	case 0, 1:
		ops := []simplex.Relation{simplex.GT, simplex.GE, simplex.LT, simplex.LE, simplex.EQ}
		return cmp([]string{"a", "b", "c"}[r.Intn(3)], ops[r.Intn(len(ops))], float64(r.Intn(13)-6)/2)
	case 2:
		return &core.BoolIs{Var: []string{"tv/power", "door/locked"}[r.Intn(2)], Want: r.Intn(2) == 0}
	case 3:
		return &core.Presence{Person: persons[r.Intn(len(persons))], Place: places[r.Intn(len(places))]}
	case 4:
		return &core.Nobody{Place: places[r.Intn(len(places))]}
	case 5:
		return &core.Everyone{Place: places[r.Intn(len(places))]}
	case 6:
		// Half-hour grid; ToMin up to 30:00 so some windows wrap past
		// midnight the way "night" (22:00-30:00) does.
		w := &core.TimeWindow{FromMin: 30 * r.Intn(48), ToMin: 30 * r.Intn(61), Weekday: -1}
		if r.Intn(3) == 0 {
			w.Weekday = r.Intn(3)
		}
		return w
	case 7:
		return &core.Arrival{Person: persons[r.Intn(len(persons))], Event: "home-from-work"}
	default:
		return &core.OnAir{Keyword: "baseball game"}
	}
}

// TestProductionMatchesSimplexOracle draws random terms over every atom kind
// and checks the production decision — whole and split into two joined
// halves — against the simplex oracle.
func TestProductionMatchesSimplexOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1405))
	var c Checker
	outcomes := map[bool]int{}
	for i := 0; i < 20000; i++ {
		term := make(core.Term, r.Intn(8))
		for k := range term {
			term[k] = randomAtom(r)
		}
		want, err := SimplexTermFeasible(term)
		if err != nil {
			t.Fatalf("oracle on %v: %v", term, err)
		}
		got, err := c.TermFeasible(term)
		if err != nil || got != want {
			t.Fatalf("TermFeasible(%v) = %v, %v; oracle %v", term, got, err, want)
		}
		split := r.Intn(len(term) + 1)
		got, err = jointFeasible(term[:split], term[split:])
		if err != nil || got != want {
			t.Fatalf("jointFeasible(%v | %v) = %v, %v; oracle %v", term[:split], term[split:], got, err, want)
		}
		outcomes[want]++
	}
	// Both outcomes must be common, or the suite checks nothing.
	if outcomes[true] < 2000 || outcomes[false] < 2000 {
		t.Fatalf("outcome mix too skewed to be meaningful: %v", outcomes)
	}
}

// TestProductionRejectsWhatOracleRejects: a comparison the simplex oracle
// refuses is an error in production too, unless a non-numeric contradiction
// already decided the term.
func TestProductionRejectsWhatOracleRejects(t *testing.T) {
	var c Checker
	for _, bad := range []*core.Compare{
		{Var: "x", Op: simplex.GT, Value: math.NaN()},
		{Var: "x", Op: simplex.LE, Value: math.Inf(1)},
		{Var: "x", Op: simplex.Relation(99), Value: 1},
	} {
		term := core.Term{cmp("x", simplex.GT, 0), bad}
		if _, err := SimplexTermFeasible(term); !errors.Is(err, simplex.ErrBadConstraint) {
			t.Fatalf("oracle on %v: err = %v", bad, err)
		}
		if _, err := c.TermFeasible(term); !errors.Is(err, simplex.ErrBadConstraint) {
			t.Errorf("TermFeasible with %v: err = %v, want ErrBadConstraint", bad, err)
		}
		decided := core.Term{&core.BoolIs{Var: "p", Want: true}, bad, &core.BoolIs{Var: "p", Want: false}}
		want, err1 := SimplexTermFeasible(decided)
		got, err2 := c.TermFeasible(decided)
		if err1 != nil || err2 != nil || got != want {
			t.Errorf("contradiction before %v: got %v, %v; oracle %v, %v", bad, got, err2, want, err1)
		}
	}
}

// TestStrictGapDivergence pins the one documented difference between the
// production checker and the simplex oracle: a strict interval narrower
// than the solver's strict gap (1e-7) is feasible, but the oracle says no.
func TestStrictGapDivergence(t *testing.T) {
	var c Checker
	term := core.Term{cmp("x", simplex.GT, 1), cmp("x", simplex.LT, 1+1e-8)}
	got, err := c.TermFeasible(term)
	if err != nil || !got {
		t.Errorf("TermFeasible = %v, %v; want feasible (x = 1+5e-9)", got, err)
	}
	oracle, err := SimplexTermFeasible(term)
	if err != nil || oracle {
		t.Errorf("SimplexTermFeasible = %v, %v; want infeasible (slack below strict gap)", oracle, err)
	}
}

// fig1Compiler returns a compiler over the default lexicon with the Fig. 1
// household registered: three users and their condition and configuration
// words.
func fig1Compiler(t *testing.T) (*core.Compiler, *vocab.Lexicon) {
	t.Helper()
	lex := vocab.Default()
	for _, u := range []string{"tom", "alan", "emily"} {
		if err := lex.Add(vocab.Entry{Phrase: u, Kind: vocab.KindPerson}); err != nil {
			t.Fatal(err)
		}
	}
	compiler := core.NewCompiler(lex)
	for _, w := range []struct{ src, owner string }{
		{"Let's call the condition that temperature is higher than 26 degrees and humidity is higher than 65 percent hot and stuffy", "tom"},
		{"Let's call the condition that temperature is higher than 25 degrees and humidity is higher than 60 percent muggy", "alan"},
		{"Let's call the condition that temperature is higher than 29 degrees and humidity is higher than 75 percent sticky", "emily"},
		{"Let's call the configuration that 50 percent of brightness setting half-lighting", "tom"},
	} {
		cmd, err := lang.Parse(w.src, lex)
		if err != nil {
			t.Fatalf("parse %q: %v", w.src, err)
		}
		switch d := cmd.(type) {
		case *lang.CondDef:
			if err := lex.DefineCondWord(d.Name, d.Expr.String(), w.owner); err != nil {
				t.Fatal(err)
			}
		case *lang.ConfDef:
			parts := ""
			for i, item := range d.Confs {
				if i > 0 {
					parts += " and "
				}
				parts += item.String()
			}
			if err := lex.DefineConfWord(d.Name, parts, w.owner); err != nil {
				t.Fatal(err)
			}
		}
	}
	return compiler, lex
}

// fig1Rules is the Fig. 1 household's rule set.
var fig1Rules = []struct{ src, owner string }{
	{"In the evening, if i am in the living room, play the stereo with jazz of mode setting and 40 percent of volume setting.", "tom"},
	{"When i am in the living room, turn on the floor lamp with half-lighting.", "tom"},
	{"If i am in the living room and hot and stuffy, turn on the air conditioner at the living room with 25 degrees of temperature setting and 60 percent of humidity setting.", "tom"},
	{"If i am in the living room and a baseball game is on air, turn on the tv with 1 of channel setting.", "alan"},
	{"If emily is in the living room and a baseball game is on air, record the video recorder.", "alan"},
	{"If i am in the living room and muggy, turn on the air conditioner at the living room with 24 degrees of temperature setting and 55 percent of humidity setting.", "alan"},
	{"If i am in the living room and my favorite movie is on air, turn on the tv with 3 of channel setting.", "emily"},
	{"When i am in the living room and my favorite movie is on air, play the stereo with movie of mode setting.", "emily"},
	{"When i am in the living room and my favorite movie is on air, turn on the fluorescent light.", "emily"},
	{"If i am in the living room and sticky, turn on the air conditioner at the living room with 27 degrees of temperature setting and 65 percent of humidity setting.", "emily"},
}

// fillerRule draws one filler shaped like the home_rich benchmark's: stereo
// rules over the bedroom temperature, and climate rules over the living
// room's temperature or humidity that switch the living-room air
// conditioner or the stereo, with presence and time-window variants.
func fillerRule(r *rand.Rand) string {
	if r.Intn(3) == 0 {
		return fmt.Sprintf("If temperature at the bedroom is higher than %d degrees, play the stereo with %d percent of volume setting.",
			15+r.Intn(20), r.Intn(90))
	}
	sensor := []string{
		"temperature at the living room is higher than %d degrees",
		"temperature at the living room is lower than %d degrees",
		"humidity at the living room is higher than %d percent",
		"humidity at the living room is lower than %d percent",
	}[r.Intn(4)]
	cond := fmt.Sprintf(sensor, 20+r.Intn(50))
	switch r.Intn(4) {
	case 0:
		cond = "i am in the living room and " + cond
	case 1:
		cond = "nobody is at home and " + cond
	}
	act := []string{
		"turn on the air conditioner at the living room with 24 degrees of temperature setting",
		"turn off the air conditioner at the living room",
		"play the stereo with 30 percent of volume setting",
		"stop the stereo",
	}[r.Intn(4)]
	prefix := []string{"", "At night, ", "In the evening, ", "In the morning, "}[r.Intn(4)]
	return prefix + "if " + cond + ", " + act + "."
}

// TestFindConflictsMatchesSimplexOracle registers seeded CADEL-compiled
// rule sets — Fig. 1 plus home_rich-shaped stereo and climate fillers — and
// checks that the production checker and the simplex oracle report the
// same conflicts in the same order for every rule.
func TestFindConflictsMatchesSimplexOracle(t *testing.T) {
	owners := []string{"tom", "alan", "emily"}
	var c Checker
	total := 0
	for seed := int64(1); seed <= 4; seed++ {
		compiler, lex := fig1Compiler(t)
		r := rand.New(rand.NewSource(seed))
		var rules []*core.Rule
		add := func(src, owner string) {
			cmd, err := lang.Parse(src, lex)
			if err != nil {
				t.Fatalf("parse %q: %v", src, err)
			}
			rule, err := compiler.CompileRule(cmd.(*lang.RuleDef), fmt.Sprintf("r%d", len(rules)), owner)
			if err != nil {
				t.Fatalf("compile %q: %v", src, err)
			}
			rules = append(rules, rule)
		}
		for _, fr := range fig1Rules {
			add(fr.src, fr.owner)
		}
		for i := 0; i < 120; i++ {
			add(fillerRule(r), owners[r.Intn(len(owners))])
		}
		for i, rule := range rules {
			got, err := c.FindConflicts(rule, rules[:i])
			if err != nil {
				t.Fatal(err)
			}
			want, err := SimplexFindConflicts(rule, rules[:i])
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d, %s (%s): %d conflicts, oracle %d", seed, rule.ID, rule.Source, len(got), len(want))
			}
			for k := range got {
				if got[k].New != want[k].New || got[k].Existing != want[k].Existing {
					t.Fatalf("seed %d, %s: conflict %d is %v, oracle %v", seed, rule.ID, k, got[k], want[k])
				}
			}
			total += len(got)
		}
	}
	if total == 0 {
		t.Fatal("no conflicts found: the equivalence checked nothing")
	}
	t.Logf("%d conflicts agree", total)
}

// TestTermFeasibleZeroAlloc: deciding a Fig. 1 joint term — Alan's muggy
// air-conditioner rule against Tom's hot-and-stuffy one, presence and all —
// allocates nothing.
func TestTermFeasibleZeroAlloc(t *testing.T) {
	term := core.Term{
		&core.Presence{Person: "alan", Place: "living room"},
		cmp("temperature", simplex.GT, 25), cmp("humidity", simplex.GT, 60),
		&core.Presence{Person: "tom", Place: "living room"},
		cmp("temperature", simplex.GT, 26), cmp("humidity", simplex.GT, 65),
		&core.TimeWindow{FromMin: 17 * 60, ToMin: 22 * 60, Weekday: -1},
		&core.TimeWindow{FromMin: 22 * 60, ToMin: 30 * 60, Weekday: -1},
	}
	var c Checker
	if ok, err := c.TermFeasible(term[:6]); err != nil || !ok {
		t.Fatalf("joint term infeasible: %v, %v", ok, err)
	}
	if ok, err := c.TermFeasible(term); err != nil || ok {
		t.Fatalf("evening and night overlap: %v, %v", ok, err)
	}
	if n, _ := alloctest.PerCall(200, func() {
		_, _ = c.TermFeasible(term[:6])
		_, _ = c.TermFeasible(term)
	}); n != 0 {
		t.Errorf("TermFeasible allocates %v per run, want 0", n)
	}
}
