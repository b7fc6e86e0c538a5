package fleet

import (
	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/obs"
)

// ruleTable is a shard's compiled-rule table. Homes holding the same
// vocabulary compile a rule text to the same condition tree, action and
// device, so the shard keeps one core.Template per (lexicon fingerprint,
// owner, text) and builds each home's rule around it: a hit skips parse and
// compile. Registration still binds a private tree per home, so symbol ids,
// compaction and evaluation stay per home.
//
// An entry lives while some live rule uses it: a template enters the table
// when its first rule is registered (hold) and leaves it when its last rule
// is removed or its home evicted (release). Like the rest of the shard's
// state, the table is touched only by the shard's current owner, or by
// replay before the shard starts, so it needs no lock.
type ruleTable struct {
	m  map[core.TemplateKey]*core.Template
	sm *obs.ShardMetrics // the shard's stripe: template gauge and compile counters
}

func newRuleTable(sm *obs.ShardMetrics) *ruleTable {
	return &ruleTable{m: make(map[core.TemplateKey]*core.Template), sm: sm}
}

// hold counts a registered rule's reference to its template, entering the
// template into the table with its first rule. A template built while an
// equal one was compiled and registered first stays private to its rules.
func (t *ruleTable) hold(r *core.Rule) {
	tp := r.Template
	if tp == nil {
		return
	}
	if tp.Refs == 0 {
		if _, taken := t.m[tp.Key]; !taken {
			t.m[tp.Key] = tp
			t.sm.RuleTemplates.Add(1)
		}
	}
	tp.Refs++
}

// release drops a removed rule's reference, and the template with its last
// one.
func (t *ruleTable) release(r *core.Rule) {
	tp := r.Template
	if tp == nil {
		return
	}
	tp.Refs--
	if tp.Refs == 0 && t.m[tp.Key] == tp {
		delete(t.m, tp.Key)
		t.sm.RuleTemplates.Add(-1)
	}
}

// compile returns the home's rule for one CADEL source and owner, and a nil
// command; or, for a source that is not a rule, the parsed command and no
// rule. It is the only way a home compiles a rule source. A source the
// shard holds a template for under the home's current lexicon fingerprint
// takes no parse and no compile. Otherwise the source is parsed and
// compiled, and the result becomes a template (entering the table once the
// rule is registered) unless the lexicon changed during the compile — a
// shared lexicon can change under a home. newID names the rule; it is called
// only once the source is known to be a rule.
func (h *Home) compile(source, owner string, newID func() string) (*core.Rule, lang.Command, error) {
	fp, version := h.lex.Fingerprint()
	key := core.TemplateKey{Lexicon: fp, Owner: owner, Text: source}
	if tp := h.rules.m[key]; tp != nil {
		h.rules.sm.RuleCompilesShared.Inc()
		return tp.Rule(newID(), owner), nil, nil
	}
	cmd, err := lang.Parse(source, h.lex)
	if err != nil {
		return nil, nil, err
	}
	def, ok := cmd.(*lang.RuleDef)
	if !ok {
		return nil, cmd, nil
	}
	rule, err := h.compiler.CompileRule(def, newID(), owner)
	if err != nil {
		return nil, nil, err
	}
	if h.lex.Version() == version {
		core.NewTemplate(key, rule)
	}
	h.rules.sm.RuleCompilesCompiled.Inc()
	return rule, nil, nil
}
