package lang

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/vocab"
)

// ParseError reports a syntax error with its byte offset in the input.
type ParseError struct {
	Pos int
	Msg string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("cadel: parse error at offset %d: %s", e.Pos, e.Msg)
}

// ErrParse can be matched with errors.Is against any parse failure.
var ErrParse = errors.New("cadel: parse error")

// Is lets callers match parse errors with errors.Is(err, ErrParse).
func (e *ParseError) Is(target error) bool { return target == ErrParse }

// Parse parses one CADEL command (RuleDef, CondDef or ConfDef) against the
// given lexicon.
//
// Besides the AST it returns, Parse allocates the token slice, lowercased
// copies of capitalized words, and the text of multi-word names and of the
// error it returns. Lookahead reuses one window, and a speculative state
// parse formats no error and keeps no value.
func Parse(input string, lex *vocab.Lexicon) (Command, error) {
	toks, err := Lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{lex: lex, toks: toks}
	cmd, err := p.parseCommand()
	if err != nil {
		return nil, err
	}
	p.skipStops()
	if !p.at(TokEOF) {
		return nil, p.errorf("unexpected trailing input %q", p.cur().Text)
	}
	return cmd, nil
}

// ParseCondExpr parses a standalone condition expression. Used when
// expanding user-defined condition words whose definitions are stored as
// source text.
func ParseCondExpr(input string, lex *vocab.Lexicon) (CondExpr, error) {
	toks, err := Lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{lex: lex, toks: toks}
	expr, err := p.parseCondExpr()
	if err != nil {
		return nil, err
	}
	p.skipStops()
	if !p.at(TokEOF) {
		return nil, p.errorf("unexpected trailing input %q", p.cur().Text)
	}
	return expr, nil
}

// ParseConfItems parses a standalone RowOfConfs ("25 degrees of temperature
// setting and ..."). Used when expanding user-defined configuration words.
func ParseConfItems(input string, lex *vocab.Lexicon) ([]ConfItem, error) {
	toks, err := Lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{lex: lex, toks: toks}
	items, err := p.parseConfItems(false)
	if err != nil {
		return nil, err
	}
	p.skipStops()
	if !p.at(TokEOF) {
		return nil, p.errorf("unexpected trailing input %q", p.cur().Text)
	}
	return items, nil
}

// parser is a recursive-descent parser over one token slice. Lookahead
// windows returned by wordsAhead share the win array and are only valid until
// the next call. While probe is set, errors are not formatted: errorf and
// expected return errProbe, and parseState keeps no value nodes.
type parser struct {
	lex   *vocab.Lexicon
	toks  []Token
	pos   int
	probe bool
	win   [maxAhead]string
}

// maxAhead is the longest phrase, in words, that matchLex can recognize.
const maxAhead = 6

// errProbe is the error of every failed speculative parse.
var errProbe = &ParseError{Msg: "speculative parse failed"}

func (p *parser) cur() Token          { return p.toks[p.pos] }
func (p *parser) at(t TokenType) bool { return p.cur().Type == t }
func (p *parser) next()               { p.pos++ }
func (p *parser) save() int           { return p.pos }
func (p *parser) restore(mark int)    { p.pos = mark }

func (p *parser) errorf(format string, args ...any) error {
	if p.probe {
		return errProbe
	}
	return &ParseError{Pos: p.cur().Pos, Msg: fmt.Sprintf(format, args...)}
}

// expected reports "expected <what>, got <current token>". It boxes the
// token text only when the error is reported, so a probe allocates nothing.
func (p *parser) expected(what string) error {
	if p.probe {
		return errProbe
	}
	return p.errorf("expected %s, got %q", what, p.cur().Text)
}

func (p *parser) word() string {
	if p.at(TokWord) {
		return p.cur().Text
	}
	return ""
}

// eatWord consumes the current token if it is the given word.
func (p *parser) eatWord(w string) bool {
	if p.word() == w {
		p.next()
		return true
	}
	return false
}

func (p *parser) skipCommas() {
	for p.at(TokComma) {
		p.next()
	}
}

func (p *parser) skipStops() {
	for p.at(TokStop) || p.at(TokComma) {
		p.next()
	}
}

// wordsAhead returns up to maxAhead consecutive word-token texts starting at
// pos, in the parser's window: valid only until the next call.
func (p *parser) wordsAhead() []string {
	n := 0
	for i := p.pos; i < len(p.toks) && n < maxAhead && p.toks[i].Type == TokWord; i++ {
		p.win[n] = p.toks[i].Text
		n++
	}
	return p.win[:n]
}

// matchLex matches the longest lexicon phrase of the given kinds at the
// current position and consumes it.
func (p *parser) matchLex(kinds ...vocab.Kind) (vocab.Entry, bool) {
	e, n, ok := p.lex.MatchLongest(p.wordsAhead(), kinds...)
	if !ok {
		return vocab.Entry{}, false
	}
	p.pos += n
	return e, true
}

// eatPhrase consumes the upcoming word tokens if they spell phrase, a
// single-spaced lowercase constant.
func (p *parser) eatPhrase(phrase string) bool {
	i := p.pos
	for phrase != "" {
		var w string
		w, phrase, _ = strings.Cut(phrase, " ")
		if i >= len(p.toks) || p.toks[i].Type != TokWord || p.toks[i].Text != w {
			return false
		}
		i++
	}
	p.pos = i
	return true
}

// joinWords returns the texts of tokens [from, to), joined by single spaces.
// A one-word name is the token's own text.
func (p *parser) joinWords(from, to int) string {
	switch to - from {
	case 0:
		return ""
	case 1:
		return p.toks[from].Text
	}
	n := to - from - 1
	for _, t := range p.toks[from:to] {
		n += len(t.Text)
	}
	var sb strings.Builder
	sb.Grow(n)
	for i, t := range p.toks[from:to] {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(t.Text)
	}
	return sb.String()
}

func (p *parser) parseCommand() (Command, error) {
	switch {
	case p.eatPhrase("let's call the condition that"):
		expr, err := p.parseCondExpr()
		if err != nil {
			return nil, err
		}
		name, err := p.collectName()
		if err != nil {
			return nil, err
		}
		return &CondDef{Expr: expr, Name: name}, nil
	case p.eatPhrase("let's call the configuration that"):
		items, err := p.parseConfItems(false)
		if err != nil {
			return nil, err
		}
		name, err := p.collectName()
		if err != nil {
			return nil, err
		}
		return &ConfDef{Confs: items, Name: name}, nil
	default:
		return p.parseRuleDef()
	}
}

// collectName gathers the trailing words of a CondDef/ConfDef as the new
// word's name.
func (p *parser) collectName() (string, error) {
	start := p.pos
	for p.at(TokWord) {
		p.next()
	}
	if p.pos == start {
		return "", p.errorf("expected a name for the new word")
	}
	return p.joinWords(start, p.pos), nil
}

func (p *parser) parseRuleDef() (*RuleDef, error) {
	rule := &RuleDef{}

	pre, err := p.tryParseCondClause()
	if err != nil {
		return nil, err
	}
	rule.Pre = pre
	p.skipCommas()
	p.eatWord("then")
	p.skipCommas()

	verb, ok := p.matchLex(vocab.KindVerb)
	if !ok {
		return nil, p.expected(`a verb (e.g. "turn on")`)
	}
	rule.Verb = verb.Canon
	rule.VerbText = verb.Phrase

	obj, err := p.parseObject()
	if err != nil {
		return nil, err
	}
	rule.Object = obj

	if p.eatWord("with") {
		items, err := p.parseConfItems(true)
		if err != nil {
			return nil, err
		}
		rule.Config = items
	}

	p.skipCommas()
	post, err := p.tryParseCondClause()
	if err != nil {
		return nil, err
	}
	rule.Post = post
	return rule, nil
}

// tryParseCondClause parses "[TimeSpec] if/when CondExpr" or a bare TimeSpec.
// It returns nil (no error) when the input does not start a clause.
func (p *parser) tryParseCondClause() (*CondClause, error) {
	mark := p.save()
	ts := p.tryParseTimeSpec()
	p.skipCommas()
	kw := p.word()
	if kw == "if" || kw == "when" {
		p.next()
		expr, err := p.parseCondExpr()
		if err != nil {
			return nil, err
		}
		p.eatWord("then")
		return &CondClause{Keyword: kw, Time: ts, Expr: expr}, nil
	}
	if ts != nil {
		return &CondClause{Time: ts}, nil
	}
	p.restore(mark)
	return nil, nil
}

func (p *parser) parseObject() (Object, error) {
	var obj Object
	switch p.word() {
	case "a", "an", "the":
		obj.Article = p.word()
		p.next()
	}
	start := p.pos
	for p.at(TokWord) && !deviceBoundary[p.word()] && p.pos-start < 6 {
		p.next()
	}
	if p.pos == start {
		return obj, p.expected("a device name")
	}
	obj.Device = p.joinWords(start, p.pos)

	// Optional location modifier: "at the hall", "in the living room".
	if p.word() == "at" || p.word() == "in" {
		mark := p.save()
		p.next()
		p.eatArticle()
		if loc, ok := p.parsePlace(); ok {
			obj.Location = loc
		} else {
			p.restore(mark)
		}
	}
	return obj, nil
}

// deviceBoundary ends a device name; placeStop ends an ad-hoc place name.
var (
	deviceBoundary = map[string]bool{
		"with": true, "if": true, "when": true, "at": true, "in": true,
		"until": true, "after": true, "for": true, "and": true, "or": true,
		"then": true, "before": true, "during": true,
	}
	placeStop = map[string]bool{
		"and": true, "or": true, "if": true, "when": true, "for": true,
		"after": true, "until": true, "with": true, "then": true, "is": true,
		"are": true, "to": true, "before": true,
	}
)

func (p *parser) eatArticle() {
	switch p.word() {
	case "a", "an", "the":
		p.next()
	}
}

// parsePlace matches a known place from the lexicon, or consumes up to three
// words as an ad-hoc place name.
func (p *parser) parsePlace() (string, bool) {
	if e, ok := p.matchLex(vocab.KindPlace); ok {
		return e.Canon, true
	}
	start := p.pos
	for p.at(TokWord) && !placeStop[p.word()] && p.pos-start < 3 {
		p.next()
	}
	if p.pos == start {
		return "", false
	}
	return p.joinWords(start, p.pos), true
}

// ---- condition expressions ----

func (p *parser) parseCondExpr() (CondExpr, error) {
	left, err := p.parseAndExpr()
	if err != nil {
		return nil, err
	}
	for p.word() == "or" {
		mark := p.save()
		p.next()
		right, err := p.parseAndExpr()
		if err != nil {
			p.restore(mark)
			break
		}
		left = &BinaryExpr{Op: "or", L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseAndExpr() (CondExpr, error) {
	left, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.word() == "and" {
		mark := p.save()
		p.next()
		right, err := p.parsePrimary()
		if err != nil {
			// Backtrack: the "and" belongs to an enclosing construct
			// (e.g. the name of a CondDef like "hot and stuffy").
			p.restore(mark)
			break
		}
		left = &BinaryExpr{Op: "and", L: left, R: right}
	}
	return left, nil
}

func (p *parser) parsePrimary() (CondExpr, error) {
	if p.at(TokLParen) {
		p.next()
		expr, err := p.parseCondExpr()
		if err != nil {
			return nil, err
		}
		if !p.at(TokRParen) {
			return nil, p.expected("')'")
		}
		p.next()
		return expr, nil
	}
	// User-defined condition word.
	if e, ok := p.matchLex(vocab.KindCondWord); ok {
		uc := &UserCond{Name: e.Phrase}
		uc.Period, uc.Time = p.parseCondSuffixes()
		return uc, nil
	}
	return p.parseCondAtom()
}

// parseCondSuffixes parses the optional [PeriodSpec] [TimeSpec] qualifiers in
// either order.
func (p *parser) parseCondSuffixes() (*PeriodSpec, *TimeSpec) {
	period := p.tryParsePeriodSpec()
	ts := p.tryParseTimeSpec()
	if period == nil {
		period = p.tryParsePeriodSpec()
	}
	return period, ts
}

func (p *parser) parseCondAtom() (CondExpr, error) {
	atom := &CondAtom{}

	switch p.word() {
	case "a", "an", "the":
		atom.Subject.Article = p.word()
		p.next()
	}

	switch p.word() {
	case "i":
		atom.Subject.Kind = SubMe
		p.next()
	case "someone", "somebody", "anyone", "anybody":
		atom.Subject.Kind = SubSomeone
		p.next()
	case "nobody":
		atom.Subject.Kind = SubNobody
		p.next()
	case "everyone", "everybody":
		atom.Subject.Kind = SubEveryone
		p.next()
	default:
		if p.eatWord("my") {
			atom.Subject.My = true
		}
		if err := p.parseSubjectWords(atom); err != nil {
			return nil, err
		}
	}

	state, err := p.parseState()
	if err != nil {
		return nil, err
	}
	atom.State = state
	p.classifySubject(atom)
	atom.Period, atom.Time = p.parseCondSuffixes()
	return atom, nil
}

// parseSubjectWords accumulates the subject name, stopping as soon as a
// state parse succeeds at the current position. It also handles an optional
// location modifier between the subject and its state ("temperature at the
// living room is higher than ...").
func (p *parser) parseSubjectWords(atom *CondAtom) error {
	start := p.pos
	end := start // the subject's words are tokens [start, end)
	for {
		// A location modifier ("temperature at the living room is ...") must
		// be tried before the state lookahead: a bare "at" would otherwise
		// match the presence state.
		if end > start && (p.word() == "at" || p.word() == "in") {
			p.next()
			p.eatArticle()
			if loc, ok := p.parsePlace(); ok && p.stateAhead() {
				atom.Subject.Location = loc
				break
			}
			p.restore(end)
		}
		if end > start && p.stateAhead() {
			break
		}
		if !p.at(TokWord) || end-start >= 8 {
			return p.errorf("expected a condition state after %q, got %q",
				p.joinWords(start, end), p.cur().Text)
		}
		p.next()
		end = p.pos
	}
	atom.Subject.Name = p.joinWords(start, end)
	return nil
}

// stateAhead reports whether a state parse would succeed at the current
// position, without consuming input. It parses in probe mode, so a failure
// formats no error.
func (p *parser) stateAhead() bool {
	mark, probe := p.save(), p.probe
	p.probe = true
	_, err := p.parseState()
	p.restore(mark)
	p.probe = probe
	return err == nil
}

func (p *parser) parseState() (State, error) {
	var st State
	switch p.word() {
	case "is", "are", "am":
		st.Be = p.word()
		p.next()
	}

	entry, ok := p.matchLex(vocab.KindState)
	if !ok {
		// "temperature is 25 degrees" — equality with a bare value.
		if st.Be != "" && p.at(TokNumber) {
			val, err := p.parseValue()
			if err != nil {
				return st, err
			}
			st.Kind = vocab.StateCompare
			st.Op = "eq"
			st.Text = "exactly"
			st.Value = p.keepValue(val)
			return st, nil
		}
		return st, p.expected("a state phrase")
	}

	st.Kind = vocab.StateKind(entry.MetaValue(vocab.MetaStateKind))
	st.Text = entry.Phrase
	switch st.Kind {
	case vocab.StateBool:
		st.Var = entry.MetaValue(vocab.MetaVar)
		st.Bool = entry.MetaValue(vocab.MetaBool) == "true"
	case vocab.StateCompare:
		st.Op = entry.MetaValue(vocab.MetaOp)
		val, err := p.parseValue()
		if err != nil {
			return st, err
		}
		st.Value = p.keepValue(val)
	case vocab.StatePresence:
		p.eatArticle()
		place, ok := p.parsePlace()
		if !ok {
			return st, p.errorf("expected a place after %q", st.Text)
		}
		st.Place = place
	case vocab.StateArrival:
		st.Event = entry.MetaValue(vocab.MetaEvent)
	case vocab.StateOnAir:
		// Nothing further.
	default:
		return st, p.errorf("unknown state kind %q for %q", st.Kind, entry.Phrase)
	}
	return st, nil
}

// keepValue returns a heap copy of v for the AST; a probe keeps nothing.
func (p *parser) keepValue(v Value) *Value {
	if p.probe {
		return nil
	}
	kept := v
	return &kept
}

// classifySubject resolves the subject kind once the state is known.
func (p *parser) classifySubject(atom *CondAtom) {
	s := &atom.Subject
	if s.Kind != 0 {
		return
	}
	if _, ok := p.lex.Lookup(vocab.KindPerson, s.Name); ok {
		s.Kind = SubPerson
		return
	}
	switch atom.State.Kind {
	case vocab.StateArrival, vocab.StatePresence:
		s.Kind = SubPerson
		return
	case vocab.StateOnAir:
		s.Kind = SubEvent
		return
	}
	if s.My {
		s.Kind = SubEvent
		return
	}
	if _, ok := p.lex.Lookup(vocab.KindEvent, s.Name); ok {
		s.Kind = SubEvent
		return
	}
	if _, ok := p.lex.Lookup(vocab.KindPlace, s.Name); ok {
		s.Kind = SubPlace
		return
	}
	s.Kind = SubDevice
}

// parseValue parses a number with an optional unit, or a single word value.
func (p *parser) parseValue() (Value, error) {
	if p.at(TokNumber) {
		v := Value{IsNumber: true, Number: p.cur().Num}
		p.next()
		if e, ok := p.matchLex(vocab.KindUnit); ok {
			v.Unit = e.MetaValue(vocab.MetaUnitCanon)
			v.UnitText = e.Phrase
		}
		return v, nil
	}
	if p.at(TokWord) {
		v := Value{Word: p.word()}
		p.next()
		return v, nil
	}
	return Value{}, p.expected("a value")
}

// ---- time and period specs ----

var timePreps = map[string]bool{
	"after": true, "at": true, "until": true, "before": true,
	"in": true, "during": true,
}

// tryParseTimeSpec parses "<prep> <time-of-day>" and returns nil when the
// current position does not start one.
func (p *parser) tryParseTimeSpec() *TimeSpec {
	if !timePreps[p.word()] {
		return nil
	}
	mark := p.save()
	prep := p.word()
	p.next()
	p.eatArticle()
	tod, ok := p.parseTimeOfDay()
	if !ok {
		p.restore(mark)
		return nil
	}
	return &TimeSpec{Prep: prep, Time: tod}
}

// parseTimeOfDay parses "[every <weekday>] (hh:mm | N [am|pm|o'clock] |
// <period-name>)".
func (p *parser) parseTimeOfDay() (TimeOfDay, bool) {
	var tod TimeOfDay
	if p.eatWord("every") {
		e, ok := p.matchLex(vocab.KindWeekday)
		if !ok {
			return tod, false
		}
		tod.Every = e.Canon
	}
	switch {
	case p.at(TokTime):
		tod.Kind = TimeClock
		tod.Minutes = int(p.cur().Num)
		p.next()
		return tod, true
	case p.at(TokNumber):
		mark := p.save()
		h := int(p.cur().Num)
		if h < 0 || h > 23 || float64(h) != p.cur().Num {
			return tod, false
		}
		p.next()
		switch p.word() {
		case "pm":
			if h < 12 {
				h += 12
			}
			p.next()
		case "am":
			if h == 12 {
				h = 0
			}
			p.next()
		case "o'clock":
			p.next()
		default:
			// A bare number is only a time when a weekday was given
			// ("every monday 18" is odd English; require a marker).
			if tod.Every == "" {
				p.restore(mark)
				return tod, false
			}
		}
		tod.Kind = TimeClock
		tod.Minutes = h * 60
		return tod, true
	default:
		if e, ok := p.matchLex(vocab.KindPeriodName); ok {
			tod.Kind = TimePeriod
			tod.Name = e.Canon
			return tod, true
		}
		if tod.Every != "" {
			tod.Kind = TimeAllDay
			return tod, true
		}
		return tod, false
	}
}

// tryParsePeriodSpec parses "for N <unit> [after <time>]" or "from <time> to
// <time>". It returns nil when the current position does not start one.
func (p *parser) tryParsePeriodSpec() *PeriodSpec {
	mark := p.save()
	switch p.word() {
	case "for":
		p.next()
		if !p.at(TokNumber) {
			p.restore(mark)
			return nil
		}
		amount := p.cur().Num
		p.next()
		e, ok := p.matchLex(vocab.KindUnit)
		if !ok || e.MetaValue(vocab.MetaUnitCanon) != "second" {
			p.restore(mark)
			return nil
		}
		scale, err := strconv.ParseFloat(e.MetaValue(vocab.MetaScale), 64)
		if err != nil {
			scale = 1
		}
		ps := &PeriodSpec{
			Kind:     PeriodFor,
			Seconds:  amount * scale,
			Amount:   amount,
			UnitText: e.Phrase,
		}
		if p.word() == "after" {
			inner := p.save()
			p.next()
			p.eatArticle()
			if tod, ok := p.parseTimeOfDay(); ok {
				ps.Kind = PeriodAfter
				ps.After = &tod
			} else {
				p.restore(inner)
			}
		}
		return ps
	case "from":
		p.next()
		p.eatArticle()
		from, ok := p.parseTimeOfDay()
		if !ok {
			p.restore(mark)
			return nil
		}
		if !p.eatWord("to") {
			p.restore(mark)
			return nil
		}
		p.eatArticle()
		to, ok := p.parseTimeOfDay()
		if !ok {
			p.restore(mark)
			return nil
		}
		return &PeriodSpec{Kind: PeriodFromTo, From: &from, To: &to}
	default:
		return nil
	}
}

// ---- configurations ----

func (p *parser) parseConfItems(allowBare bool) ([]ConfItem, error) {
	first, err := p.parseConfItem(allowBare)
	if err != nil {
		return nil, err
	}
	items := []ConfItem{first}
	for p.word() == "and" {
		mark := p.save()
		p.next()
		item, err := p.parseConfItem(allowBare)
		if err != nil {
			p.restore(mark)
			break
		}
		items = append(items, item)
	}
	return items, nil
}

// parseConfItem parses "<value> of <parameter> setting", a user-defined
// configuration word, or (when allowBare) a single bare word value.
func (p *parser) parseConfItem(allowBare bool) (ConfItem, error) {
	mark := p.save()

	// "<value> of <parameter> setting"
	if val, ok := p.parseConfValue(); ok {
		if p.eatWord("of") {
			if e, ok := p.matchLex(vocab.KindParameter); ok && p.eatWord("setting") {
				return ConfItem{Parameter: e.Canon, Value: val}, nil
			}
		}
		p.restore(mark)
	}

	// User-defined configuration word.
	if e, ok := p.matchLex(vocab.KindConfWord); ok {
		return ConfItem{Value: Value{Word: e.Phrase}}, nil
	}

	if allowBare && p.at(TokWord) {
		v := Value{Word: p.word()}
		p.next()
		return ConfItem{Value: v}, nil
	}
	return ConfItem{}, p.expected("a configuration item")
}

// parseConfValue parses a number+unit or a short word sequence up to "of".
func (p *parser) parseConfValue() (Value, bool) {
	if p.at(TokNumber) {
		v := Value{IsNumber: true, Number: p.cur().Num}
		p.next()
		if e, ok := p.matchLex(vocab.KindUnit); ok {
			v.Unit = e.MetaValue(vocab.MetaUnitCanon)
			v.UnitText = e.Phrase
		}
		return v, true
	}
	start := p.pos
	for p.at(TokWord) && p.word() != "of" && p.word() != "and" && p.pos-start < 3 {
		p.next()
	}
	if p.pos == start {
		return Value{}, false
	}
	return Value{Word: p.joinWords(start, p.pos)}, true
}
