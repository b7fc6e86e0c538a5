package fleet

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/ingest"
	"repro/internal/lang"
	"repro/internal/vocab"
)

// The compiled-rule table hands one template to every home of a shard that
// compiles the same text for the same owner against an equal vocabulary.
// These tests pin what that must not change: every rule a home registers
// equals a direct parse and compile on that home's lexicon (by Submit,
// replay, migration import and ImportRules), one home's compaction, removal
// or release leaves the others' rules and firing alone, and the table holds
// only templates some live rule uses.

const (
	stuffyRule = "If i am in the living room and hot and stuffy, turn on the air conditioner " +
		"at the living room with 25 degrees of temperature setting."
	movieRule = "When i am in the living room and my favorite movie is on air, play the stereo with movie of mode setting."
	lampRule  = "When i am in the living room, turn on the floor lamp with half-lighting."
	stuffy26  = "Let's call the condition that temperature is higher than 26 degrees and humidity is higher than 65 percent hot and stuffy"
	stuffy27  = "Let's call the condition that temperature is higher than 27 degrees and humidity is higher than 65 percent hot and stuffy"
	halfLight = "Let's call the configuration that 50 percent of brightness setting half-lighting"
)

// templateHome is one home of the sharing tests: its users, in order, and
// the word definitions tom submits before the rules.
type templateHome struct {
	id    string
	users []string
	defs  []string
}

var templateHomes = []templateHome{
	{"same-a", []string{"tom", "alan"}, []string{stuffy26, halfLight}},
	{"same-b", []string{"tom", "alan"}, []string{stuffy26, halfLight}},
	// The same vocabulary built in another order: phrases under different
	// head words do not tie-break against each other, so it shares.
	{"same-reordered", []string{"alan", "tom"}, []string{halfLight, stuffy26}},
	{"other-source", []string{"tom", "alan"}, []string{stuffy27, halfLight}},
	{"other-users", []string{"tom", "alan", "emily"}, []string{stuffy26, halfLight}},
}

// templateRules are submitted to every home, in order. The same text by two
// owners reads "i" and "my" as different people.
var templateRules = []struct{ src, owner string }{
	{stuffyRule, "tom"},
	{stuffyRule, "alan"},
	{movieRule, "tom"},
	{movieRule, "alan"},
	{lampRule, "tom"},
	{hotRule, "alan"},
}

// seedTemplateHome registers a home's users and words and submits every
// template rule, checking each registered rule against a direct compile.
func seedTemplateHome(t *testing.T, h *Hub, home templateHome) {
	t.Helper()
	for _, u := range home.users {
		if err := h.RegisterUser(home.id, u); err != nil {
			t.Fatalf("%s: register %s: %v", home.id, u, err)
		}
	}
	for _, d := range home.defs {
		if _, err := h.Submit(home.id, d, "tom"); err != nil {
			t.Fatalf("%s: define: %v", home.id, err)
		}
	}
	for _, r := range templateRules {
		res, err := h.Submit(home.id, r.src, r.owner)
		if err != nil {
			t.Fatalf("%s: submit %q by %s: %v", home.id, r.src, r.owner, err)
		}
		checkCompiled(t, h, home.id, r.src, res.Rule)
	}
}

// checkCompiled fails unless rule has a template and its compiled parts,
// compared field by field, deep-equal a direct lang.Parse and CompileRule of
// src on the home's lexicon as it is now.
func checkCompiled(t *testing.T, h *Hub, home, src string, rule *core.Rule) {
	t.Helper()
	if rule.Template == nil {
		t.Fatalf("%s: rule %s for %q has no template", home, rule.ID, src)
	}
	var want *core.Rule
	err := h.do(home, func(hm *Home) error {
		cmd, err := lang.Parse(src, hm.lex)
		if err != nil {
			return err
		}
		def, ok := cmd.(*lang.RuleDef)
		if !ok {
			return fmt.Errorf("%q is not a rule", src)
		}
		want, err = core.NewCompiler(hm.lex).CompileRule(def, rule.ID, rule.Owner)
		return err
	})
	if err != nil {
		t.Fatalf("%s: direct compile of %q: %v", home, src, err)
	}
	if !reflect.DeepEqual(rule.Cond, want.Cond) || !reflect.DeepEqual(rule.Action, want.Action) ||
		rule.Device != want.Device || rule.Source != want.Source {
		t.Fatalf("%s: rule %s for %q differs from a direct compile:\n got %v\nwant %v", home, rule.ID, src, rule, want)
	}
}

// checkAllCompiled checks every rule of the given homes against a direct
// compile of its stored source.
func checkAllCompiled(t *testing.T, h *Hub, homes []templateHome) {
	t.Helper()
	for _, home := range homes {
		rules, err := h.Rules(home.id)
		if err != nil {
			t.Fatal(err)
		}
		if len(rules) != len(templateRules) {
			t.Fatalf("%s holds %d rules, want %d", home.id, len(rules), len(templateRules))
		}
		for _, r := range rules {
			checkCompiled(t, h, home.id, r.Source, r)
		}
	}
}

// checkSharing checks which homes' rules share templates: the same-*
// homes share every rule's template, the others share none with them, and
// no two rules of one home share one.
func checkSharing(t *testing.T, h *Hub) {
	t.Helper()
	byHome := map[string][]*core.Rule{}
	for _, home := range templateHomes {
		rules, err := h.Rules(home.id)
		if err != nil {
			t.Fatal(err)
		}
		byHome[home.id] = rules
	}
	ref := byHome["same-a"]
	for i, r := range ref {
		if r.Template == nil {
			t.Fatalf("same-a rule %s has no template", r.ID)
		}
		for j := range i {
			if ref[j].Template == r.Template {
				t.Errorf("same-a rules %s and %s share a template", ref[j].ID, r.ID)
			}
		}
	}
	for id, rules := range byHome {
		for i, r := range rules {
			shared := r.Template == ref[i].Template
			if want := id == "same-a" || id == "same-b" || id == "same-reordered"; shared != want {
				t.Errorf("%s rule %s shares same-a's template: %v, want %v", id, r.ID, shared, want)
			}
		}
	}
}

// templateCount returns the live templates across the hub's shards, after
// checking that the gauge agrees and every entry is referenced and filed
// under its text or its canonical Source.
func templateCount(t *testing.T, h *Hub) int {
	t.Helper()
	n := 0
	if err := h.barrier(func(s *shard) {
		distinct := map[*core.Template]bool{}
		for key, tp := range s.rules.m {
			if tp.Refs <= 0 || (templateKeys(tp)[0] != key && templateKeys(tp)[1] != key) {
				t.Errorf("table entry %q (refs %d) is unreferenced or misfiled", key.Text, tp.Refs)
			}
			distinct[tp] = true
		}
		n += len(distinct)
	}); err != nil {
		t.Fatal(err)
	}
	if g := h.Metrics().Totals().RuleTemplates; g != int64(n) {
		t.Errorf("cadel_rule_templates = %d, tables hold %d", g, n)
	}
	return n
}

func TestRuleTemplatesMatchDirectCompile(t *testing.T) {
	dir := t.TempDir()
	open := func() *Hub {
		st, err := OpenFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		return newTestHub(t, WithShards(1), WithStore(st))
	}

	h := open()
	for _, home := range templateHomes {
		seedTemplateHome(t, h, home)
	}
	checkAllCompiled(t, h, templateHomes)
	checkSharing(t, h)
	// same-a, same-b and same-reordered share one set; the other two homes
	// have a set each.
	if n := templateCount(t, h); n != 3*len(templateRules) {
		t.Errorf("%d templates after submit, want %d", n, 3*len(templateRules))
	}
	tot := h.Metrics().Totals()
	if want := uint64(2 * len(templateRules)); tot.CompilesShared != want {
		t.Errorf("shared compiles = %d, want %d", tot.CompilesShared, want)
	}

	// ImportRules compiles the exported sources, which are the canonical
	// rule texts, not the submitted ones. same-a's templates are filed under
	// those too, so both importing homes share them, with no parse.
	exported, err := h.ExportRules("same-a")
	if err != nil {
		t.Fatal(err)
	}
	var imported []templateHome
	for _, id := range []string{"imported-a", "imported-b"} {
		home := templateHome{id, []string{"tom", "alan"}, []string{stuffy26, halfLight}}
		imported = append(imported, home)
		for _, u := range home.users {
			if err := h.RegisterUser(id, u); err != nil {
				t.Fatal(err)
			}
		}
		for _, d := range home.defs {
			if _, err := h.Submit(id, d, "tom"); err != nil {
				t.Fatal(err)
			}
		}
		if n, err := h.ImportRules(id, exported); err != nil || n != len(templateRules) {
			t.Fatalf("ImportRules = %d, %v", n, err)
		}
	}
	checkAllCompiled(t, h, imported)
	sa, _ := h.Rules("same-a")
	ia, _ := h.Rules("imported-a")
	ib, _ := h.Rules("imported-b")
	for i := range ia {
		if ia[i].Template == nil || ia[i].Template != ib[i].Template || ia[i].Template != sa[i].Template {
			t.Errorf("imported rules %s do not share same-a's template", ia[i].ID)
		}
	}
	if n := templateCount(t, h); n != 3*len(templateRules) {
		t.Errorf("%d templates after import, want %d", n, 3*len(templateRules))
	}
	if got, want := h.Metrics().Totals().CompilesShared, tot.CompilesShared+uint64(2*len(templateRules)); got != want {
		t.Errorf("shared compiles = %d after import, want %d", got, want)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	// Replay after a restart compiles the stored sources through the table.
	h = open()
	checkAllCompiled(t, h, append(templateHomes, imported...))
	checkSharing(t, h)
	if n := templateCount(t, h); n != 3*len(templateRules) {
		t.Errorf("%d templates after replay, want %d", n, 3*len(templateRules))
	}
	// Replay filed the templates under the canonical texts only: a home
	// submitting the original texts now still shares them.
	late := templateHome{"same-late", []string{"tom", "alan"}, []string{stuffy26, halfLight}}
	seedTemplateHome(t, h, late)
	sa, _ = h.Rules("same-a")
	sl, _ := h.Rules(late.id)
	for i := range sl {
		if sl[i].Template == nil || sl[i].Template != sa[i].Template {
			t.Errorf("%s rule %s does not share same-a's template after replay", late.id, sl[i].ID)
		}
	}
	if n := templateCount(t, h); n != 3*len(templateRules) {
		t.Errorf("%d templates after a submit onto replayed ones, want %d", n, 3*len(templateRules))
	}

	// Migration import onto another hub.
	target := newTestHub(t, WithShards(1))
	for _, home := range templateHomes {
		exp, err := h.ExportHome(home.id)
		if err != nil {
			t.Fatal(err)
		}
		if err := target.ImportHome(exp); err != nil {
			t.Fatal(err)
		}
	}
	checkAllCompiled(t, target, templateHomes)
	checkSharing(t, target)
}

// TestRuleTemplatesFollowWordRedefinition removes and redefines a word
// between two submits of one text: the second submit must read the new
// definition, and going back to the first definition finds its template.
func TestRuleTemplatesFollowWordRedefinition(t *testing.T) {
	h := newTestHub(t, WithShards(1))
	seedTemplateHome(t, h, templateHomes[0])
	seedTemplateHome(t, h, templateHomes[1])
	submit := func() *core.Rule {
		t.Helper()
		res, err := h.Submit("same-a", stuffyRule, "tom")
		if err != nil {
			t.Fatal(err)
		}
		checkCompiled(t, h, "same-a", stuffyRule, res.Rule)
		return res.Rule
	}
	redefine := func(def string) {
		t.Helper()
		if err := h.exec("same-a", accWrite, func(hm *Home) error {
			hm.rollbackWord(vocab.KindCondWord, "hot and stuffy")
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Submit("same-a", def, "tom"); err != nil {
			t.Fatal(err)
		}
	}
	first := submit()
	redefine(stuffy27)
	second := submit()
	if second.Template == first.Template || reflect.DeepEqual(second.Cond, first.Cond) {
		t.Fatal("a redefined word did not change the compiled rule")
	}
	redefine(stuffy26)
	if third := submit(); third.Template != first.Template {
		t.Error("the restored vocabulary did not find its template again")
	}
	checkAllCompiled(t, h, templateHomes[1:2])
}

// TestRuleTemplatesIsolateHomes: compaction, rule removal and release on
// one home leave another home that shares its templates equal to a direct
// compile, and firing exactly as a full-scan twin that shares nothing.
func TestRuleTemplatesIsolateHomes(t *testing.T) {
	h := newTestHub(t, WithShards(1))
	twin := newTestHub(t, WithShards(1), WithFullScan())
	a, b := templateHomes[0], templateHomes[1]
	seedTemplateHome(t, h, a)
	seedTemplateHome(t, h, b)
	seedTemplateHome(t, twin, b)
	type event struct {
		typ, name, loc string
		vars           map[string]string
	}
	presence := func(who, where string) event {
		return event{device.TypePresenceSensor, "presence sensor", "home", map[string]string{"presence-" + who: where}}
	}
	temp := func(v string) event {
		return event{device.TypeThermometer, "thermometer", "living room", map[string]string{"temperature": v}}
	}
	humid := func(v string) event {
		return event{device.TypeHygrometer, "hygrometer", "living room", map[string]string{"humidity": v}}
	}
	rounds := [][]event{
		{presence("tom", "living room"), temp("31"), humid("70")},
		{presence("alan", "living room"), temp("20"), temp("29")},
		{presence("tom", "kitchen"), humid("50"), temp("31"), humid("80")},
		{presence("alan", "kitchen"), temp("20"), presence("tom", "living room"), temp("30")},
	}
	play := func(round []event) {
		t.Helper()
		for _, hub := range []*Hub{h, twin} {
			for _, ev := range round {
				if err := hub.PostEventSync(b.id, ev.typ, ev.name, ev.loc, ev.vars); err != nil {
					t.Fatal(err)
				}
			}
		}
		got, err := h.Log(b.id)
		if err != nil {
			t.Fatal(err)
		}
		want, err := twin.Log(b.id)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("home %s fired %d actions, full-scan twin %d", b.id, len(got), len(want))
		}
		for i := range got {
			if got[i].String() != want[i].String() {
				t.Fatalf("fired[%d] = %s, twin %s", i, got[i], want[i])
			}
		}
		checkAllCompiled(t, h, []templateHome{b})
	}
	play(rounds[0])
	if log, _ := h.Log(b.id); len(log) == 0 {
		t.Fatal("the first round fired nothing: the twin comparison would be vacuous")
	}
	rules, err := h.Rules(a.id)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []func() error{
		func() error { _, _, err := h.CompactHome(a.id); return err },
		func() error { return h.RemoveRule(a.id, rules[0].ID) },
		func() error { return h.ReleaseHome(a.id) },
	} {
		if err := op(); err != nil {
			t.Fatal(err)
		}
		rounds = rounds[1:]
		play(rounds[0])
	}
	if n := templateCount(t, h); n != len(templateRules) {
		t.Errorf("%d templates once only %s is left, want %d", n, b.id, len(templateRules))
	}
}

// TestRuleTemplatesBounded churns 10,000 unique rules through one home:
// the table holds only templates of live rules throughout, and none once
// every home is released.
func TestRuleTemplatesBounded(t *testing.T) {
	h := newTestHub(t, WithShards(1))
	for _, home := range templateHomes[:2] {
		seedTemplateHome(t, h, home)
	}
	live := len(templateRules)
	if n := templateCount(t, h); n != live {
		t.Fatalf("%d templates after seeding, want %d", n, live)
	}
	// Each churn rule lives until the next one is registered.
	prev := ""
	for i := range 10000 {
		src := fmt.Sprintf("If temperature is higher than %d.%d degrees, turn on the fan.", i/10, i%10)
		res, err := h.Submit("same-a", src, "tom")
		if err != nil {
			t.Fatal(err)
		}
		if prev != "" {
			if err := h.RemoveRule("same-a", prev); err != nil {
				t.Fatal(err)
			}
		}
		prev = res.Rule.ID
	}
	if n := templateCount(t, h); n != live+1 {
		t.Errorf("%d templates after churn, want the %d live ones", n, live+1)
	}
	for _, home := range templateHomes[:2] {
		if err := h.ReleaseHome(home.id); err != nil {
			t.Fatal(err)
		}
	}
	if n := templateCount(t, h); n != 0 {
		t.Errorf("%d templates once every home is released, want 0", n)
	}
}

// TestFlushEvaluatesEachPendingHomeOnce: a burst over 256 homes of one
// shard costs each home one pass, and a home evicted while pending gets
// none.
func TestFlushEvaluatesEachPendingHomeOnce(t *testing.T) {
	const homes = 256
	h := newTestHub(t, WithShards(1))
	ids := make([]string, homes)
	for i := range ids {
		ids[i] = fmt.Sprintf("home-%03d", i)
		seedHome(t, h, ids[i])
	}
	if err := h.Quiesce(); err != nil {
		t.Fatal(err)
	}
	err := h.barrier(func(s *shard) {
		before := map[*Home]uint64{}
		for _, id := range ids {
			before[s.homes[id]] = s.homes[id].Passes()
		}
		for round := range 3 {
			for _, id := range ids {
				ev := ingest.AcquireEvent()
				ev.Fill(device.TypeThermometer, "thermometer", "living room",
					map[string]string{"temperature": fmt.Sprint(20 + round)})
				s.exec(task{home: id, acc: accCreate, event: ev})
			}
		}
		if len(s.pending) != homes {
			t.Errorf("%d homes pending, want %d", len(s.pending), homes)
		}
		evicted := s.homes[ids[7]]
		s.evict(ids[7])
		s.flush()
		for hm, n := range before {
			want := n + 1
			if hm == evicted {
				want = n
			}
			if got := hm.Passes(); got != want {
				t.Errorf("%s ran %d passes in the flush, want %d", hm.id, got-n, want-n)
			}
		}
		if len(s.pending) != 0 || evicted.pending {
			t.Errorf("pending list not cleared: %d left", len(s.pending))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
