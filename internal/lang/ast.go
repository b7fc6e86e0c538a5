package lang

import (
	"fmt"
	"strconv"

	"repro/internal/vocab"
)

// Command is a parsed CADEL command: a rule definition, a user condition-word
// definition (CondDef) or a configuration-word definition (ConfDef).
type Command interface {
	fmt.Stringer
	isCommand()
}

// RuleDef is the main production: [PreCondition] Verb Object [Configuration]
// [PostCondition].
type RuleDef struct {
	Pre      *CondClause
	Verb     string // canonical verb id, e.g. "turn-on"
	VerbText string // surface form, e.g. "turn on"
	Object   Object
	Config   []ConfItem
	Post     *CondClause
}

func (*RuleDef) isCommand() {}

// CondDef defines a new condition word: "Let's call the condition that
// <CondExpr> <name>".
type CondDef struct {
	Expr CondExpr
	Name string
}

func (*CondDef) isCommand() {}

// ConfDef defines a new configuration word: "Let's call the configuration
// that <RowOfConfs> <name>".
type ConfDef struct {
	Confs []ConfItem
	Name  string
}

func (*ConfDef) isCommand() {}

// Object is the action target: a device name with an optional location
// modifier ("the light at the hall").
type Object struct {
	Article  string // "", "a", "an", "the"
	Device   string
	Location string
}

// ConfItem is one element of a Configuration: either "<value> of <parameter>
// setting" or a user-defined configuration word.
type ConfItem struct {
	Parameter string // canonical parameter variable; empty for bare words
	Value     Value
}

// Value is a setting or comparison value: a number with a unit, or a word
// (e.g. a mode name or a user-defined configuration word).
type Value struct {
	IsNumber bool
	Number   float64
	Unit     string // canonical unit ("celsius", "percent", "second")
	UnitText string // surface form ("degrees")
	Word     string
}

// CondClause is a pre- or post-condition: an optional leading TimeSpec and an
// optional condition expression introduced by "if" or "when".
type CondClause struct {
	Keyword string // "if", "when" or "" for a bare TimeSpec
	Time    *TimeSpec
	Expr    CondExpr // nil for a bare TimeSpec
}

// CondExpr is a boolean combination of condition atoms.
type CondExpr interface {
	fmt.Stringer
	isCondExpr()
}

// BinaryExpr combines two condition expressions with "and" or "or".
type BinaryExpr struct {
	Op   string // "and" | "or"
	L, R CondExpr
}

func (*BinaryExpr) isCondExpr() {}

// CondAtom is a single sensed condition: subject + state, with optional
// period ("for 1 hour") and time ("after 22:00") qualifiers.
type CondAtom struct {
	Subject Subject
	State   State
	Period  *PeriodSpec
	Time    *TimeSpec
}

func (*CondAtom) isCondExpr() {}

// UserCond references a user-defined condition word ("hot and stuffy").
type UserCond struct {
	Name   string
	Period *PeriodSpec
	Time   *TimeSpec
}

func (*UserCond) isCondExpr() {}

// SubjectKind classifies a condition subject.
type SubjectKind int

// Subject kinds.
const (
	SubDevice SubjectKind = iota + 1 // a device or sensor (default)
	SubPerson                        // a named user
	SubMe                            // "I" — the rule's owner
	SubSomeone
	SubNobody
	SubEveryone
	SubEvent // a broadcast keyword ("baseball game", "my favorite movie")
	SubPlace // a room ("the hall is dark")
)

// Subject is the left-hand side of a condition atom.
type Subject struct {
	Kind     SubjectKind
	Article  string
	My       bool // "my favorite movie"
	Name     string
	Location string // "temperature at the living room"
}

// State is the sensed predicate of a condition atom.
type State struct {
	Kind  vocab.StateKind
	Be    string // "", "is", "are", "am"
	Text  string // surface form of the state phrase
	Var   string // bool state variable ("power", "dark", "locked")
	Bool  bool   // desired bool value
	Op    string // gt/ge/lt/le/eq for comparisons
	Value *Value // comparison value
	Place string // presence target
	Event string // arrival event canonical name
}

// TimeKind classifies a TimeOfTheDay.
type TimeKind int

// Time kinds.
const (
	TimeClock  TimeKind = iota + 1 // "18:00", "6 pm"
	TimePeriod                     // "evening", "night"
	TimeAllDay                     // whole day, used with "every <weekday>"
)

// TimeOfDay is a clock time or a named day period, optionally restricted to
// a weekday ("every monday").
type TimeOfDay struct {
	Kind    TimeKind
	Minutes int    // for TimeClock: minutes since midnight
	Name    string // for TimePeriod
	Every   string // weekday name, "" if unrestricted
}

// TimeSpec is a time qualifier: "after evening", "at 18:00", "until night".
type TimeSpec struct {
	Prep string // after | at | until | before | in | during
	Time TimeOfDay
}

// PeriodKind classifies a PeriodSpec.
type PeriodKind int

// Period kinds.
const (
	PeriodFor    PeriodKind = iota + 1 // "for 1 hour"
	PeriodFromTo                       // "from 18:00 to 22:00"
	PeriodAfter                        // "for 10 minutes after 18:00"
)

// PeriodSpec is a duration qualifier on a condition.
type PeriodSpec struct {
	Kind     PeriodKind
	Seconds  float64 // for PeriodFor / PeriodAfter
	Amount   float64 // surface amount ("1" in "for 1 hour")
	UnitText string  // surface unit ("hour")
	From, To *TimeOfDay
	After    *TimeOfDay
}

// ---- printing ----
//
// String renders each node back to normalized CADEL text. The language-level
// round-trip property is Print(Parse(Print(x))) == Print(x). Every node
// appends its text to one byte slice; a command's String allocates that
// slice once at a capacity that fits typical rules, and the result.

// printCap is the starting capacity of a command's text buffer.
const printCap = 256

// cat appends strings to b.
func cat(b []byte, parts ...string) []byte {
	for _, s := range parts {
		b = append(b, s...)
	}
	return b
}

func (r *RuleDef) String() string {
	return string(r.appendText(make([]byte, 0, printCap)))
}

func (r *RuleDef) appendText(b []byte) []byte {
	if r.Pre != nil {
		b = append(r.Pre.appendText(b), ", "...)
	}
	verb := r.VerbText
	if verb == "" {
		verb = r.Verb
	}
	b = r.Object.appendText(cat(b, verb, " "))
	if len(r.Config) > 0 {
		b = appendConfs(append(b, " with "...), r.Config)
	}
	if r.Post != nil {
		b = r.Post.appendText(append(b, ' '))
	}
	return b
}

func (d *CondDef) String() string {
	b := appendExpr(cat(make([]byte, 0, printCap), "let's call the condition that "), d.Expr)
	return string(cat(b, " ", d.Name))
}

func (d *ConfDef) String() string {
	b := appendConfs(cat(make([]byte, 0, printCap), "let's call the configuration that "), d.Confs)
	return string(cat(b, " ", d.Name))
}

func appendConfs(b []byte, items []ConfItem) []byte {
	for i, c := range items {
		if i > 0 {
			b = append(b, " and "...)
		}
		b = c.appendText(b)
	}
	return b
}

func (o Object) String() string { return string(o.appendText(nil)) }

func (o Object) appendText(b []byte) []byte {
	if o.Article != "" {
		b = cat(b, o.Article, " ")
	}
	b = append(b, o.Device...)
	if o.Location != "" {
		b = cat(b, " at the ", o.Location)
	}
	return b
}

func (c ConfItem) String() string { return string(c.appendText(nil)) }

func (c ConfItem) appendText(b []byte) []byte {
	b = c.Value.appendText(b)
	if c.Parameter != "" {
		b = cat(b, " of ", c.Parameter, " setting")
	}
	return b
}

func (v Value) String() string { return string(v.appendText(nil)) }

func (v Value) appendText(b []byte) []byte {
	if !v.IsNumber {
		return append(b, v.Word...)
	}
	b = strconv.AppendFloat(b, v.Number, 'g', -1, 64)
	unit := v.UnitText
	if unit == "" {
		unit = v.Unit
	}
	if unit != "" {
		b = cat(b, " ", unit)
	}
	return b
}

func (c *CondClause) String() string { return string(c.appendText(nil)) }

func (c *CondClause) appendText(b []byte) []byte {
	if c.Time != nil {
		b = c.Time.appendText(b)
		if c.Expr != nil {
			b = append(b, ", "...)
		}
	}
	if c.Expr != nil {
		kw := c.Keyword
		if kw == "" {
			kw = "if"
		}
		b = appendExpr(cat(b, kw, " "), c.Expr)
	}
	return b
}

// appendExpr appends the text of one of the three CondExpr node types.
func appendExpr(b []byte, e CondExpr) []byte {
	switch e := e.(type) {
	case *BinaryExpr:
		return e.appendText(b)
	case *CondAtom:
		return e.appendText(b)
	case *UserCond:
		return e.appendText(b)
	}
	return b
}

func (x *BinaryExpr) String() string { return string(x.appendText(nil)) }

// appendText parenthesizes what the parser would otherwise group
// differently: "and" binds tighter than "or" and both associate to the
// left, so an inner "or" under "and" and any right operand except an "and"
// under "or" get parentheses.
func (x *BinaryExpr) appendText(b []byte) []byte {
	l, ok := x.L.(*BinaryExpr)
	b = appendOperand(b, x.L, ok && x.Op == "and" && l.Op == "or")
	b = cat(b, " ", x.Op, " ")
	r, ok := x.R.(*BinaryExpr)
	return appendOperand(b, x.R, ok && (x.Op == "and" || r.Op == "or"))
}

func appendOperand(b []byte, e CondExpr, paren bool) []byte {
	if !paren {
		return appendExpr(b, e)
	}
	return append(appendExpr(append(b, "( "...), e), " )"...)
}

func (a *CondAtom) String() string { return string(a.appendText(nil)) }

func (a *CondAtom) appendText(b []byte) []byte {
	b = a.State.appendText(append(a.Subject.appendText(b), ' '))
	return appendQualifiers(b, a.Period, a.Time)
}

func (u *UserCond) String() string { return string(u.appendText(nil)) }

func (u *UserCond) appendText(b []byte) []byte {
	return appendQualifiers(append(b, u.Name...), u.Period, u.Time)
}

func appendQualifiers(b []byte, period *PeriodSpec, ts *TimeSpec) []byte {
	if period != nil {
		b = period.appendText(append(b, ' '))
	}
	if ts != nil {
		b = ts.appendText(append(b, ' '))
	}
	return b
}

func (s Subject) String() string { return string(s.appendText(nil)) }

func (s Subject) appendText(b []byte) []byte {
	switch s.Kind {
	case SubMe:
		return append(b, "i"...)
	case SubSomeone:
		return append(b, "someone"...)
	case SubNobody:
		return append(b, "nobody"...)
	case SubEveryone:
		return append(b, "everyone"...)
	}
	if s.Article != "" {
		b = cat(b, s.Article, " ")
	}
	if s.My {
		b = append(b, "my "...)
	}
	b = append(b, s.Name...)
	if s.Location != "" {
		b = cat(b, " at the ", s.Location)
	}
	return b
}

func (s State) String() string { return string(s.appendText(nil)) }

func (s State) appendText(b []byte) []byte {
	if s.Be != "" {
		b = cat(b, s.Be, " ")
	}
	b = append(b, s.Text...)
	switch s.Kind {
	case vocab.StateCompare:
		if s.Value != nil {
			b = s.Value.appendText(append(b, ' '))
		}
	case vocab.StatePresence:
		b = cat(b, " the ", s.Place)
	}
	return b
}

func (t TimeOfDay) String() string { return string(t.appendText(nil)) }

func (t TimeOfDay) appendText(b []byte) []byte {
	sep := ""
	if t.Every != "" {
		b = cat(b, "every ", t.Every)
		sep = " "
	}
	switch t.Kind {
	case TimeClock:
		b = appendClock(append(b, sep...), t.Minutes)
	case TimePeriod:
		b = cat(b, sep, t.Name)
	}
	return b
}

// appendClock appends minutes since midnight as "h:mm".
func appendClock(b []byte, minutes int) []byte {
	b = append(strconv.AppendInt(b, int64(minutes/60), 10), ':')
	if m := minutes % 60; m >= 0 && m < 10 {
		b = append(b, '0')
	}
	return strconv.AppendInt(b, int64(minutes%60), 10)
}

func (t *TimeSpec) String() string { return string(t.appendText(nil)) }

func (t *TimeSpec) appendText(b []byte) []byte {
	return t.Time.appendText(cat(b, t.Prep, " "))
}

func (p *PeriodSpec) String() string { return string(p.appendText(nil)) }

func (p *PeriodSpec) appendText(b []byte) []byte {
	switch p.Kind {
	case PeriodFor, PeriodAfter:
		b = strconv.AppendFloat(append(b, "for "...), p.Amount, 'g', -1, 64)
		b = cat(b, " ", p.UnitText)
		if p.Kind == PeriodAfter {
			b = p.After.appendText(append(b, " after "...))
		}
	case PeriodFromTo:
		b = p.From.appendText(append(b, "from "...))
		b = p.To.appendText(append(b, " to "...))
	}
	return b
}

// Walk visits every CondExpr node in the expression tree in depth-first
// order.
func Walk(e CondExpr, visit func(CondExpr)) {
	if e == nil {
		return
	}
	visit(e)
	if b, ok := e.(*BinaryExpr); ok {
		Walk(b.L, visit)
		Walk(b.R, visit)
	}
}
