package lang

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/vocab"
)

// roundTripSrcs are the TestPrintRoundTrip sources.
var roundTripSrcs = []string{
	"If humidity is higher than 80 percent and temperature is higher than 28 degrees, turn on the air conditioner with 25 degrees of temperature setting.",
	"After evening, if someone returns home and the hall is dark, turn on the light at the hall.",
	"At night, if entrance door is unlocked for 1 hour, turn on the alarm.",
	"Let's call the condition that humidity is higher than 60 % and temperature is higher than 28 degrees sweltering",
	"Let's call the configuration that 50 percent of brightness setting and 20 percent of volume setting cozy mood",
	"If hot and stuffy, turn on the air conditioner with 25 degrees of temperature setting and 60 percent of humidity setting.",
	"When i am in the living room, turn on the floor lamp with half-lighting.",
	"If alan is in the living room and a baseball game is on air, turn on the tv.",
	"If my favorite movie is on air, turn on the tv.",
	"Turn off the stereo when nobody is at the living room.",
	"At 22:00, turn off the fluorescent light.",
	"If the tv is turned on from 22:00 to 23:00, turn off the tv.",
	"If the entrance door is open for 10 minutes after 22:00, turn on the alarm.",
	"If temperature at the living room is higher than 28 degrees, turn on the air conditioner at the living room.",
	"If ( tom is at the living room or alan is at the kitchen ) and the hall is dark, turn on the light.",
	"At every monday 8 o'clock, turn on the coffee maker.",
	"If temperature is at most 10 degrees, turn on the heater.",
}

// TestPrintRoundTrip checks the printer-stability property: parsing a
// command, printing it, re-parsing the printed form and printing again must
// yield the same text.
func TestPrintRoundTrip(t *testing.T) {
	lex := testLexicon(t)
	for _, src := range roundTripSrcs {
		cmd1, err := Parse(src, lex)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		printed1 := cmd1.String()
		cmd2, err := Parse(printed1, lex)
		if err != nil {
			t.Errorf("reparse of %q failed: %v\n(from %q)", printed1, err, src)
			continue
		}
		printed2 := cmd2.String()
		if printed1 != printed2 {
			t.Errorf("round trip unstable:\n  src:    %q\n  first:  %q\n  second: %q", src, printed1, printed2)
		}
	}
}

func TestPrintPrecedenceParens(t *testing.T) {
	lex := testLexicon(t)
	cmd, err := Parse("If ( humidity is over 60 percent or temperature is over 30 degrees ) and the hall is dark, turn on the fan.", lex)
	if err != nil {
		t.Fatal(err)
	}
	printed := cmd.String()
	reparsed, err := Parse(printed, lex)
	if err != nil {
		t.Fatalf("reparse %q: %v", printed, err)
	}
	and, ok := reparsed.(*RuleDef).Pre.Expr.(*BinaryExpr)
	if !ok || and.Op != "and" {
		t.Fatalf("printed form %q lost grouping: %v", printed, reparsed.(*RuleDef).Pre.Expr)
	}
	if or, ok := and.L.(*BinaryExpr); !ok || or.Op != "or" {
		t.Fatalf("printed form %q lost inner or", printed)
	}
}

func TestWalkVisitsAllNodes(t *testing.T) {
	lex := testLexicon(t)
	expr, err := ParseCondExpr("humidity is over 60 percent and temperature is over 28 degrees or the hall is dark", lex)
	if err != nil {
		t.Fatal(err)
	}
	var atoms, binaries int
	Walk(expr, func(e CondExpr) {
		switch e.(type) {
		case *CondAtom:
			atoms++
		case *BinaryExpr:
			binaries++
		}
	})
	if atoms != 3 || binaries != 2 {
		t.Errorf("walk counted %d atoms, %d binaries; want 3, 2", atoms, binaries)
	}
	Walk(nil, func(CondExpr) { t.Error("walk of nil should not visit") })
}

// TestSeededRoundTrip generates rules from the default vocabulary's verbs,
// states, units, places, periods, weekdays and events with a fixed seed,
// and checks that printing a parsed rule loses nothing: the printed form
// re-parses to a deeply equal AST.
func TestSeededRoundTrip(t *testing.T) {
	lex := testLexicon(t)
	g := newRuleGen(lex, 20)
	for i := 0; i < 1000; i++ {
		src := g.rule()
		cmd1, err := Parse(src, lex)
		if err != nil {
			t.Fatalf("generated rule %d failed to parse: %q: %v", i, src, err)
		}
		printed := cmd1.String()
		cmd2, err := Parse(printed, lex)
		if err != nil {
			t.Fatalf("printed form failed to reparse: %q (from %q): %v", printed, src, err)
		}
		if !reflect.DeepEqual(cmd1, cmd2) {
			a, _ := json.Marshal(cmd1)
			b, _ := json.Marshal(cmd2)
			t.Fatalf("printing lost a field:\n  src:     %q\n  printed: %q\n  parsed:  %s\n  reparsed:%s", src, printed, a, b)
		}
	}
}

// ruleGen builds well-formed CADEL rules from a lexicon's phrase tables.
type ruleGen struct {
	r                                         *rand.Rand
	verbs, units, places, periods, days, evts []string
	boolStates, cmpStates, arrivals           []string
}

func newRuleGen(lex *vocab.Lexicon, seed int64) *ruleGen {
	g := &ruleGen{r: rand.New(rand.NewSource(seed))}
	phrases := func(k vocab.Kind) []string {
		var out []string
		for _, e := range lex.Entries(k) {
			out = append(out, e.Phrase)
		}
		return out
	}
	g.verbs = phrases(vocab.KindVerb)
	g.places = phrases(vocab.KindPlace)
	g.periods = phrases(vocab.KindPeriodName)
	g.days = phrases(vocab.KindWeekday)
	g.evts = phrases(vocab.KindEvent)
	for _, e := range lex.Entries(vocab.KindUnit) {
		if e.MetaValue(vocab.MetaUnitCanon) == "second" {
			g.units = append(g.units, e.Phrase)
		}
	}
	for _, e := range lex.Entries(vocab.KindState) {
		switch vocab.StateKind(e.MetaValue(vocab.MetaStateKind)) {
		case vocab.StateBool:
			g.boolStates = append(g.boolStates, e.Phrase)
		case vocab.StateCompare:
			g.cmpStates = append(g.cmpStates, e.Phrase)
		case vocab.StateArrival:
			g.arrivals = append(g.arrivals, e.Phrase)
		}
	}
	return g
}

func (g *ruleGen) pick(s []string) string { return s[g.r.Intn(len(s))] }

func (g *ruleGen) num() string {
	if g.r.Intn(4) == 0 {
		return strconv.Itoa(g.r.Intn(100)) + "." + strconv.Itoa(1+g.r.Intn(9))
	}
	return strconv.Itoa(g.r.Intn(1000))
}

func (g *ruleGen) timeOfDay() string {
	var tod string
	switch g.r.Intn(5) {
	case 0:
		tod = fmt.Sprintf("%d:%02d", g.r.Intn(24), g.r.Intn(60))
	case 1:
		tod = fmt.Sprintf("%d %s", 1+g.r.Intn(12), g.pick([]string{"am", "pm"}))
	case 2:
		tod = fmt.Sprintf("%d o'clock", g.r.Intn(24))
	default:
		tod = g.pick(g.periods)
	}
	if g.r.Intn(4) == 0 {
		tod = "every " + g.pick(g.days) + " " + tod
	}
	return tod
}

func (g *ruleGen) timeSpec() string {
	return g.pick([]string{"after", "at", "until", "before", "during"}) + " " + g.timeOfDay()
}

func (g *ruleGen) suffixes() string {
	var s string
	switch g.r.Intn(6) {
	case 0:
		s += " for " + strconv.Itoa(1+g.r.Intn(90)) + " " + g.pick(g.units)
	case 1:
		s += " for " + strconv.Itoa(1+g.r.Intn(90)) + " " + g.pick(g.units) + " after " + g.timeOfDay()
	case 2:
		s += " from " + g.timeOfDay() + " to " + g.timeOfDay()
	}
	if g.r.Intn(4) == 0 {
		s += " " + g.timeSpec()
	}
	return s
}

func (g *ruleGen) atom() string {
	loc := func() string {
		if g.r.Intn(3) == 0 {
			return " at the " + g.pick(g.places)
		}
		return ""
	}
	var a string
	switch g.r.Intn(8) {
	case 0, 1:
		unit := g.pick([]string{"degrees", "percent", "lux", "degrees celsius"})
		a = g.pick([]string{"temperature", "humidity", "illuminance"}) + loc() + " is " +
			g.pick(g.cmpStates) + " " + g.num() + " " + unit
	case 2:
		a = g.pick([]string{"the tv", "the entrance door", "a window", "the stereo"}) + loc() +
			" is " + g.pick(g.boolStates)
	case 3:
		a = "the " + g.pick(g.places) + " is " + g.pick([]string{"dark", "bright", "empty", "occupied"})
	case 4:
		who := g.pick([]string{"tom is", "alan is", "someone is", "nobody is", "everyone is", "i am"})
		a = who + " " + g.pick([]string{"at", "in"}) + " the " + g.pick(g.places)
	case 5:
		a = g.pick([]string{"someone", "tom", "emily"}) + " " + g.pick(g.arrivals)
	case 6:
		a = g.pick([]string{"a ", "the ", ""}) + g.pick(g.evts) + " is on air"
		if g.r.Intn(3) == 0 {
			a = "my favorite movie is on air"
		}
	default:
		a = "hot and stuffy"
	}
	return a + g.suffixes()
}

func (g *ruleGen) expr(depth int) string {
	n := 1 + g.r.Intn(3)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(g.pick([]string{" and ", " or "}))
		}
		if depth > 0 && g.r.Intn(5) == 0 {
			sb.WriteString("( " + g.expr(depth-1) + " )")
		} else {
			sb.WriteString(g.atom())
		}
	}
	return sb.String()
}

func (g *ruleGen) rule() string {
	action := g.pick(g.verbs) + " " + g.pick([]string{"the ", "a ", ""}) +
		g.pick([]string{"tv", "light", "air conditioner", "stereo", "floor lamp", "video recorder"})
	if g.r.Intn(3) == 0 {
		action += " at the " + g.pick(g.places)
	}
	switch g.r.Intn(5) {
	case 0:
		action += " with " + strconv.Itoa(g.r.Intn(40)) + " degrees of temperature setting"
	case 1:
		action += " with " + g.pick([]string{"jazz", "movie", "quiet"}) + " of mode setting and " +
			strconv.Itoa(g.r.Intn(100)) + " percent of volume setting"
	case 2:
		action += " with half-lighting"
	}
	cond := g.pick([]string{"if", "when"}) + " " + g.expr(1)
	switch g.r.Intn(4) {
	case 0:
		return g.timeSpec() + ", " + cond + ", " + action + "."
	case 1:
		return action + " " + cond + "."
	case 2:
		return g.timeSpec() + ", " + action + "."
	default:
		return cond + ", " + action + "."
	}
}
