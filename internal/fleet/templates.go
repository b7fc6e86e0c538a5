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
// A template is filed under the text it was compiled from and, when that
// differs, under its canonical Source too: replay, migration import and
// ImportRules compile the canonical text, and find the template a submitted
// text made. An entry lives while some live rule uses it: a template enters
// the table when its first rule is registered (hold) and leaves it, under
// both keys, when its last rule is removed or its home evicted (release).
// Like the rest of the shard's state, the table is touched only by the
// shard's current owner, or by replay before the shard starts, so it needs
// no lock.
type ruleTable struct {
	m  map[core.TemplateKey]*core.Template
	sm *obs.ShardMetrics // the shard's stripe: template gauge and compile counters
}

func newRuleTable(sm *obs.ShardMetrics) *ruleTable {
	return &ruleTable{m: make(map[core.TemplateKey]*core.Template), sm: sm}
}

// templateKeys returns the keys a template is filed under: its text's and its
// canonical Source's, the same key twice when the two agree.
func templateKeys(tp *core.Template) [2]core.TemplateKey {
	canon := tp.Key
	canon.Text = tp.Source
	return [2]core.TemplateKey{tp.Key, canon}
}

// hold counts a registered rule's reference to its template, entering the
// template into the table with its first rule, under each of its keys that
// is free. A template built while an equal one was compiled and registered
// first under the same text stays private to its rules.
func (t *ruleTable) hold(r *core.Rule) {
	tp := r.Template
	if tp == nil {
		return
	}
	if tp.Refs == 0 && t.m[tp.Key] == nil {
		for _, key := range templateKeys(tp) {
			if t.m[key] == nil {
				t.m[key] = tp
			}
		}
		t.sm.RuleTemplates.Add(1)
	}
	tp.Refs++
}

// release drops a removed rule's reference, and the template with its last
// one, from every key it is filed under.
func (t *ruleTable) release(r *core.Rule) {
	tp := r.Template
	if tp == nil {
		return
	}
	tp.Refs--
	if tp.Refs == 0 && t.m[tp.Key] == tp {
		for _, key := range templateKeys(tp) {
			if t.m[key] == tp {
				delete(t.m, key)
			}
		}
		t.sm.RuleTemplates.Add(-1)
	}
}

// compile returns the home's rule for one CADEL source and owner, and a nil
// command; or, for a source that is not a rule, the parsed command and no
// rule. It is the only way a home compiles a rule source. A source the
// shard holds a template for under the home's current lexicon fingerprint
// takes no parse and no compile. Otherwise the source is parsed and
// compiled. A rule whose canonical Source the shard holds a template for is
// rebuilt around that template; any other becomes a template (entering the
// table once the rule is registered). Neither happens if the lexicon changed
// during the compile — a shared lexicon can change under a home. newID names
// the rule; it is called only once the source is known to be a rule.
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
		canon := core.TemplateKey{Lexicon: fp, Owner: owner, Text: rule.Source}
		if tp := h.rules.m[canon]; tp != nil {
			rule = tp.Rule(rule.ID, owner)
		} else {
			core.NewTemplate(key, rule)
		}
	}
	h.rules.sm.RuleCompilesCompiled.Inc()
	return rule, nil, nil
}
