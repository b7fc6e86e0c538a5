package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"repro/internal/lang"
	"repro/internal/simplex"
	"repro/internal/vocab"
)

// ErrCompile can be matched with errors.Is against any compilation failure.
var ErrCompile = errors.New("core: compile error")

const maxWordDepth = 8

// Compiler translates parsed CADEL commands into executable rule objects,
// expanding user-defined condition and configuration words from the lexicon.
type Compiler struct {
	Lexicon *vocab.Lexicon
}

// NewCompiler returns a compiler over the given lexicon.
func NewCompiler(lex *vocab.Lexicon) *Compiler {
	return &Compiler{Lexicon: lex}
}

// CompileRule compiles a parsed RuleDef into a rule object owned by owner.
func (c *Compiler) CompileRule(def *lang.RuleDef, id, owner string) (*Rule, error) {
	rule := NewRule(id, owner, DeviceRef{
		Name:     def.Object.Device,
		Location: def.Object.Location,
	}, Action{Verb: def.Verb}, nil)
	rule.Source = def.String()

	settings, err := c.compileConfig(def.Config, 0)
	if err != nil {
		return nil, err
	}
	rule.Action.Settings = settings

	var conds []Condition
	for _, clause := range []*lang.CondClause{def.Pre, def.Post} {
		if clause == nil {
			continue
		}
		cond, err := c.compileClause(clause, owner)
		if err != nil {
			return nil, err
		}
		conds = append(conds, cond)
	}
	switch { // with no clause the rule keeps NewRule's Always{}
	case len(conds) == 1:
		rule.Cond = conds[0]
	case len(conds) > 1:
		rule.Cond = &And{Terms: conds}
	}
	// A located rule ("... the air conditioner at the living room") scopes
	// its unqualified numeric sensor variables to the same room: the user's
	// "temperature" means the temperature where the device is. Duration
	// keys are derived from condition content, so they are recomputed after
	// scoping.
	if rule.Device.Location != "" {
		WalkCond(rule.Cond, func(c Condition) {
			if cmp, ok := c.(*Compare); ok && !strings.Contains(cmp.Var, "/") {
				cmp.Var = rule.Device.Location + "/" + cmp.Var
			}
		})
		WalkCond(rule.Cond, func(c Condition) {
			if d, ok := c.(*Duration); ok {
				d.Key = durationKey(d.Inner, d.Seconds)
			}
		})
	}
	return rule, nil
}

// CompileCondExpr compiles a standalone condition expression (used for
// user-word definitions and ad-hoc queries).
func (c *Compiler) CompileCondExpr(expr lang.CondExpr, owner string) (Condition, error) {
	return c.compileExpr(expr, owner, make(map[string]bool))
}

func (c *Compiler) compileClause(clause *lang.CondClause, owner string) (Condition, error) {
	var conds []Condition
	if clause.Time != nil {
		win, err := c.timeWindow(clause.Time)
		if err != nil {
			return nil, err
		}
		conds = append(conds, win)
	}
	if clause.Expr != nil {
		cond, err := c.compileExpr(clause.Expr, owner, make(map[string]bool))
		if err != nil {
			return nil, err
		}
		conds = append(conds, cond)
	}
	switch len(conds) {
	case 0:
		return Always{}, nil
	case 1:
		return conds[0], nil
	default:
		return &And{Terms: conds}, nil
	}
}

func (c *Compiler) compileExpr(expr lang.CondExpr, owner string, expanding map[string]bool) (Condition, error) {
	switch e := expr.(type) {
	case *lang.BinaryExpr:
		left, err := c.compileExpr(e.L, owner, expanding)
		if err != nil {
			return nil, err
		}
		right, err := c.compileExpr(e.R, owner, expanding)
		if err != nil {
			return nil, err
		}
		if e.Op == "and" {
			return &And{Terms: flattenAnd(left, right)}, nil
		}
		return &Or{Terms: flattenOr(left, right)}, nil
	case *lang.CondAtom:
		return c.compileAtom(e, owner)
	case *lang.UserCond:
		return c.expandUserCond(e, owner, expanding)
	default:
		return nil, fmt.Errorf("%w: unknown expression %T", ErrCompile, expr)
	}
}

// flattenAnd merges adjacent And nodes into one.
func flattenAnd(left, right Condition) []Condition {
	var terms []Condition
	if a, ok := left.(*And); ok {
		terms = append(terms, a.Terms...)
	} else {
		terms = append(terms, left)
	}
	if a, ok := right.(*And); ok {
		terms = append(terms, a.Terms...)
	} else {
		terms = append(terms, right)
	}
	return terms
}

func flattenOr(left, right Condition) []Condition {
	var terms []Condition
	if o, ok := left.(*Or); ok {
		terms = append(terms, o.Terms...)
	} else {
		terms = append(terms, left)
	}
	if o, ok := right.(*Or); ok {
		terms = append(terms, o.Terms...)
	} else {
		terms = append(terms, right)
	}
	return terms
}

func (c *Compiler) expandUserCond(uc *lang.UserCond, owner string, expanding map[string]bool) (Condition, error) {
	name := vocab.Normalize(uc.Name)
	if expanding[name] {
		return nil, fmt.Errorf("%w: condition word %q is defined in terms of itself", ErrCompile, name)
	}
	if len(expanding) >= maxWordDepth {
		return nil, fmt.Errorf("%w: condition word nesting deeper than %d", ErrCompile, maxWordDepth)
	}
	entry, ok := c.Lexicon.Lookup(vocab.KindCondWord, name)
	if !ok {
		return nil, fmt.Errorf("%w: unknown condition word %q", ErrCompile, name)
	}
	src := entry.MetaValue(vocab.MetaSource)
	expr, err := lang.ParseCondExpr(src, c.Lexicon)
	if err != nil {
		return nil, fmt.Errorf("%w: definition of %q: %v", ErrCompile, name, err)
	}
	expanding[name] = true
	cond, err := c.compileExpr(expr, owner, expanding)
	delete(expanding, name)
	if err != nil {
		return nil, err
	}
	return c.applyQualifiers(cond, uc.Period, uc.Time)
}

func (c *Compiler) compileAtom(atom *lang.CondAtom, owner string) (Condition, error) {
	base, err := c.compileSubjectState(atom, owner)
	if err != nil {
		return nil, err
	}
	return c.applyQualifiers(base, atom.Period, atom.Time)
}

// applyQualifiers wraps a condition with its optional period and time
// qualifiers.
func (c *Compiler) applyQualifiers(base Condition, period *lang.PeriodSpec, ts *lang.TimeSpec) (Condition, error) {
	cond := base
	if period != nil {
		switch period.Kind {
		case lang.PeriodFor:
			cond = &Duration{Inner: cond, Seconds: period.Seconds, Key: durationKey(cond, period.Seconds)}
		case lang.PeriodFromTo:
			from, err := c.timeOfDayMinutes(period.From)
			if err != nil {
				return nil, err
			}
			to, err := c.timeOfDayMinutes(period.To)
			if err != nil {
				return nil, err
			}
			cond = &And{Terms: []Condition{cond, &TimeWindow{FromMin: from, ToMin: to, Weekday: weekdayOf(period.From, period.To)}}}
		case lang.PeriodAfter:
			start, err := c.timeOfDayMinutes(period.After)
			if err != nil {
				return nil, err
			}
			windowed := &And{Terms: []Condition{cond, &TimeWindow{FromMin: start, ToMin: 24 * 60, Weekday: weekdayOfOne(period.After)}}}
			cond = &Duration{Inner: windowed, Seconds: period.Seconds, Key: durationKey(windowed, period.Seconds)}
		}
	}
	if ts != nil {
		win, err := c.timeWindow(ts)
		if err != nil {
			return nil, err
		}
		if and, ok := cond.(*And); ok {
			cond = &And{Terms: append(append([]Condition{}, and.Terms...), win)}
		} else {
			cond = &And{Terms: []Condition{cond, win}}
		}
	}
	return cond, nil
}

func (c *Compiler) compileSubjectState(atom *lang.CondAtom, owner string) (Condition, error) {
	st := atom.State
	subj := atom.Subject
	switch st.Kind {
	case vocab.StatePresence:
		person, err := subjectPerson(subj, owner)
		if err != nil {
			return nil, err
		}
		switch subj.Kind {
		case lang.SubNobody:
			return &Nobody{Place: st.Place}, nil
		case lang.SubEveryone:
			return &Everyone{Place: st.Place}, nil
		default:
			return &Presence{Person: person, Place: st.Place}, nil
		}
	case vocab.StateArrival:
		if subj.Kind == lang.SubNobody || subj.Kind == lang.SubEveryone {
			return nil, fmt.Errorf("%w: %q cannot be the subject of an arrival event", ErrCompile, subj.String())
		}
		person, err := subjectPerson(subj, owner)
		if err != nil {
			return nil, err
		}
		return &Arrival{Person: person, Event: st.Event}, nil
	case vocab.StateBool:
		varName := qualifyVar(subj, st.Var)
		return &BoolIs{Var: varName, Want: st.Bool}, nil
	case vocab.StateCompare:
		if st.Value == nil {
			return nil, fmt.Errorf("%w: comparison without a value", ErrCompile)
		}
		op, err := relationOf(st.Op)
		if err != nil {
			return nil, err
		}
		value, err := canonicalNumber(*st.Value)
		if err != nil {
			return nil, err
		}
		varName := c.sensorVar(subj)
		return &Compare{Var: varName, Op: op, Value: value}, nil
	case vocab.StateOnAir:
		name := subj.Name
		if subj.My || strings.HasPrefix(name, "favorite ") {
			category := strings.TrimPrefix(name, "favorite ")
			return &OnAir{Category: category, FavoriteOf: owner}, nil
		}
		return &OnAir{Keyword: name}, nil
	default:
		return nil, fmt.Errorf("%w: unsupported state kind %q", ErrCompile, st.Kind)
	}
}

func subjectPerson(subj lang.Subject, owner string) (string, error) {
	switch subj.Kind {
	case lang.SubMe:
		if owner == "" {
			return "", fmt.Errorf("%w: rule with \"i\" needs an owner", ErrCompile)
		}
		return owner, nil
	case lang.SubSomeone:
		return Someone, nil
	case lang.SubPerson, lang.SubDevice, lang.SubEvent, lang.SubPlace:
		return subj.Name, nil
	default:
		return Someone, nil
	}
}

// qualifyVar builds the boolean state variable name "subject/state-var",
// optionally location-prefixed.
func qualifyVar(subj lang.Subject, stateVar string) string {
	parts := make([]string, 0, 3)
	if subj.Location != "" {
		parts = append(parts, subj.Location)
	}
	if subj.Name != "" {
		parts = append(parts, subj.Name)
	}
	parts = append(parts, stateVar)
	return strings.Join(parts, "/")
}

// sensorVar canonicalises a numeric sensor variable via the parameter table
// ("humidity" stays "humidity") and prefixes the location when present.
func (c *Compiler) sensorVar(subj lang.Subject) string {
	name := subj.Name
	if e, ok := c.Lexicon.Lookup(vocab.KindParameter, name); ok {
		name = e.Canon
	}
	if subj.Location != "" {
		return subj.Location + "/" + name
	}
	return name
}

func relationOf(op string) (simplex.Relation, error) {
	switch op {
	case "gt":
		return simplex.GT, nil
	case "ge":
		return simplex.GE, nil
	case "lt":
		return simplex.LT, nil
	case "le":
		return simplex.LE, nil
	case "eq":
		return simplex.EQ, nil
	default:
		return 0, fmt.Errorf("%w: unknown comparison %q", ErrCompile, op)
	}
}

// canonicalNumber converts a parsed value to canonical units (Fahrenheit to
// Celsius; everything else is already canonical).
func canonicalNumber(v lang.Value) (float64, error) {
	if !v.IsNumber {
		return 0, fmt.Errorf("%w: expected a numeric value, got %q", ErrCompile, v.Word)
	}
	if v.Unit == "fahrenheit" {
		return (v.Number - 32) * 5 / 9, nil
	}
	return v.Number, nil
}

// timeWindow converts a TimeSpec to a TimeWindow condition.
func (c *Compiler) timeWindow(ts *lang.TimeSpec) (*TimeWindow, error) {
	from, to, err := c.timeBounds(ts.Time)
	if err != nil {
		return nil, err
	}
	day := -1
	if ts.Time.Every != "" {
		if e, ok := c.Lexicon.Lookup(vocab.KindWeekday, ts.Time.Every); ok {
			day, _ = strconv.Atoi(e.MetaValue(vocab.MetaDay))
		}
	}
	switch ts.Prep {
	case "at", "in", "during":
		if ts.Time.Kind == lang.TimeClock {
			// "at 18:00" as a window: the enclosing minute.
			return &TimeWindow{FromMin: from, ToMin: from + 1, Weekday: day}, nil
		}
		return &TimeWindow{FromMin: from, ToMin: to, Weekday: day}, nil
	case "after":
		return &TimeWindow{FromMin: from, ToMin: 24 * 60, Weekday: day}, nil
	case "before":
		return &TimeWindow{FromMin: 0, ToMin: from, Weekday: day}, nil
	case "until":
		end := to
		if ts.Time.Kind == lang.TimeClock {
			end = from
		}
		return &TimeWindow{FromMin: 0, ToMin: end, Weekday: day}, nil
	default:
		return nil, fmt.Errorf("%w: unknown time preposition %q", ErrCompile, ts.Prep)
	}
}

// timeBounds resolves a TimeOfDay to [from, to) minutes since midnight.
func (c *Compiler) timeBounds(tod lang.TimeOfDay) (int, int, error) {
	switch tod.Kind {
	case lang.TimeClock:
		return tod.Minutes, tod.Minutes, nil
	case lang.TimePeriod:
		e, ok := c.Lexicon.Lookup(vocab.KindPeriodName, tod.Name)
		if !ok {
			return 0, 0, fmt.Errorf("%w: unknown day period %q", ErrCompile, tod.Name)
		}
		from, err1 := strconv.Atoi(e.MetaValue(vocab.MetaFromMin))
		to, err2 := strconv.Atoi(e.MetaValue(vocab.MetaToMin))
		if err1 != nil || err2 != nil {
			return 0, 0, fmt.Errorf("%w: malformed period %q", ErrCompile, tod.Name)
		}
		return from, to, nil
	case lang.TimeAllDay:
		return 0, 24 * 60, nil
	default:
		return 0, 0, fmt.Errorf("%w: unknown time kind", ErrCompile)
	}
}

func (c *Compiler) timeOfDayMinutes(tod *lang.TimeOfDay) (int, error) {
	from, _, err := c.timeBounds(*tod)
	return from, err
}

func weekdayOf(a, b *lang.TimeOfDay) int {
	if d := weekdayOfOne(a); d >= 0 {
		return d
	}
	return weekdayOfOne(b)
}

func weekdayOfOne(tod *lang.TimeOfDay) int {
	if tod == nil || tod.Every == "" {
		return -1
	}
	days := map[string]int{
		"sunday": 0, "monday": 1, "tuesday": 2, "wednesday": 3,
		"thursday": 4, "friday": 5, "saturday": 6,
	}
	if d, ok := days[tod.Every]; ok {
		return d
	}
	return -1
}

// compileConfig converts configuration items to settings, expanding
// user-defined configuration words.
func (c *Compiler) compileConfig(items []lang.ConfItem, depth int) (map[string]Value, error) {
	if len(items) == 0 {
		return nil, nil
	}
	if depth > maxWordDepth {
		return nil, fmt.Errorf("%w: configuration word nesting deeper than %d", ErrCompile, maxWordDepth)
	}
	out := make(map[string]Value, len(items))
	for _, item := range items {
		if item.Parameter != "" {
			val, err := compileValue(item.Value)
			if err != nil {
				return nil, err
			}
			if _, dup := out[item.Parameter]; dup {
				return nil, fmt.Errorf("%w: parameter %q configured twice", ErrCompile, item.Parameter)
			}
			out[item.Parameter] = val
			continue
		}
		// Word item: a user-defined configuration word or a bare mode word.
		word := vocab.Normalize(item.Value.Word)
		if entry, ok := c.Lexicon.Lookup(vocab.KindConfWord, word); ok {
			inner, err := lang.ParseConfItems(entry.MetaValue(vocab.MetaSource), c.Lexicon)
			if err != nil {
				return nil, fmt.Errorf("%w: definition of %q: %v", ErrCompile, word, err)
			}
			expanded, err := c.compileConfig(inner, depth+1)
			if err != nil {
				return nil, err
			}
			for k, v := range expanded {
				if _, dup := out[k]; dup {
					return nil, fmt.Errorf("%w: parameter %q configured twice (via %q)", ErrCompile, k, word)
				}
				out[k] = v
			}
			continue
		}
		if _, dup := out["mode"]; dup {
			return nil, fmt.Errorf("%w: ambiguous bare configuration word %q", ErrCompile, word)
		}
		out["mode"] = Value{Word: word}
	}
	return out, nil
}

func compileValue(v lang.Value) (Value, error) {
	if v.IsNumber {
		num, err := canonicalNumber(v)
		if err != nil {
			return Value{}, err
		}
		unit := v.Unit
		if unit == "fahrenheit" {
			unit = "celsius"
		}
		return Value{IsNumber: true, Number: num, Unit: unit}, nil
	}
	return Value{Word: vocab.Normalize(v.Word)}, nil
}

// durationKey derives a stable identifier for a duration condition from its
// inner condition text and hold time. Identical inner conditions share hold
// tracking, which is semantically sound.
func durationKey(inner Condition, seconds float64) string {
	h := fnv.New64a()
	_, _ = h.Write([]byte(inner.String()))
	_, _ = h.Write([]byte(strconv.FormatFloat(seconds, 'g', -1, 64)))
	return "dur-" + strconv.FormatUint(h.Sum64(), 36)
}
