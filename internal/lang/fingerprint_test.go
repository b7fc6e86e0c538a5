package lang

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unique"

	"repro/internal/vocab"
)

// The lexicon fingerprint is the key under which compiled rules are shared
// between homes, so it lives or dies by one property: equal fingerprints
// mean every lookup and every parse agrees. The tests sit here, not in
// vocab, because the parse half of that property needs the parser.

var fingerprintKinds = []vocab.Kind{
	vocab.KindVerb, vocab.KindState, vocab.KindParameter, vocab.KindUnit,
	vocab.KindPlace, vocab.KindPerson, vocab.KindDevice, vocab.KindEvent,
	vocab.KindCondWord, vocab.KindConfWord, vocab.KindPeriodName, vocab.KindWeekday,
}

// fingerprintCorpus is parseSeeds plus commands that read the words the
// seeded mutations define, redefine and remove.
var fingerprintCorpus = append(append([]string(nil), parseSeeds...),
	"If muggy, turn on the fan.",
	"If hot, turn on the fan with cozy.",
	"If dana is in the living room and hot and stuffy, turn on the tv.",
	"When i am in the living room, turn on the floor lamp with half-lighting.",
	"If hot and stuffy for 1 hour, turn on the fan.",
	"In the evening, turn on the light at the hall.",
)

// lexState is everything a lexicon answers that the property compares:
// every kind's Entries dump and the parse of every corpus command.
type lexState struct {
	entries [][]vocab.Entry
	parses  []Command
	errs    []string
}

func stateOf(lex *vocab.Lexicon) lexState {
	var s lexState
	for _, k := range fingerprintKinds {
		s.entries = append(s.entries, lex.Entries(k))
	}
	for _, src := range fingerprintCorpus {
		cmd, err := Parse(src, lex)
		s.parses = append(s.parses, cmd)
		s.errs = append(s.errs, fmt.Sprint(err))
	}
	return s
}

// diffState names the first answer that differs between two states, or
// returns "".
func diffState(a, b lexState) string {
	for i := range a.entries {
		if !reflect.DeepEqual(a.entries[i], b.entries[i]) {
			return fmt.Sprintf("Entries(%v): %+v vs %+v", fingerprintKinds[i], a.entries[i], b.entries[i])
		}
	}
	for i, src := range fingerprintCorpus {
		if !reflect.DeepEqual(a.parses[i], b.parses[i]) || a.errs[i] != b.errs[i] {
			return fmt.Sprintf("Parse(%q): %v (%s) vs %v (%s)", src, a.parses[i], a.errs[i], b.parses[i], b.errs[i])
		}
	}
	return ""
}

// mutateLexicon applies one seeded mutation and reports whether it took
// effect. Base phrases are removed only when allowBase is set, since that
// copies the base (flatten).
func mutateLexicon(lex *vocab.Lexicon, rng *rand.Rand, allowBase bool) (string, bool) {
	persons := []string{"tom", "alan", "emily", "i", "dana"}
	condWords := []string{"hot and stuffy", "muggy", "hot"}
	confWords := []string{"half-lighting", "cozy"}
	sources := []string{"temperature is higher than 26 degrees", "temperature is higher than 27 degrees", "humidity is higher than 60 percent"}
	confSources := []string{"50 percent of brightness setting", "40 percent of volume setting"}
	owners := []string{"tom", "alan"}
	pick := func(list []string) string { return list[rng.Intn(len(list))] }
	switch op := rng.Intn(10); {
	case op < 2:
		p := pick(persons)
		return "add person " + p, lex.Add(vocab.Entry{Phrase: p, Kind: vocab.KindPerson}) == nil
	case op < 4:
		w, src, owner := pick(condWords), pick(sources), pick(owners)
		return fmt.Sprintf("cond %q=%q by %s", w, src, owner), lex.DefineCondWord(w, src, owner) == nil
	case op < 5:
		w, src, owner := pick(confWords), pick(confSources), pick(owners)
		return fmt.Sprintf("conf %q=%q by %s", w, src, owner), lex.DefineConfWord(w, src, owner) == nil
	case op < 6:
		// An entry whose only difference is a meta field or the canon.
		e := vocab.Entry{Phrase: "hot", Kind: vocab.KindState, Canon: pick([]string{"", "heat=true"}),
			Meta: map[string]string{vocab.MetaStateKind: "bool", vocab.MetaVar: pick([]string{"heat", "warmth"}), vocab.MetaBool: "true"}}
		return fmt.Sprintf("add state %+v", e), lex.Add(e) == nil
	case op < 9:
		kinds := []vocab.Kind{vocab.KindPerson, vocab.KindCondWord, vocab.KindConfWord, vocab.KindState}
		k := kinds[rng.Intn(len(kinds))]
		var p string
		switch k {
		case vocab.KindPerson:
			p = pick(persons)
		case vocab.KindCondWord:
			p = pick(condWords)
		case vocab.KindConfWord:
			p = pick(confWords)
		default:
			p = "hot"
		}
		return fmt.Sprintf("remove %v %q", k, p), lex.Remove(k, p) == nil
	default:
		if !allowBase {
			return "noop", false
		}
		p := pick([]string{"dark", "turn on", "living room"})
		for _, k := range fingerprintKinds {
			if lex.Remove(k, p) == nil {
				return fmt.Sprintf("remove base %v %q", k, p), true
			}
		}
		return "remove base (none left)", false
	}
}

// TestFingerprintProperty drives pairs of lexicons with seeded mutation
// sequences: mostly the same operation on both, sometimes on one only, and
// every 20 steps the second is rebuilt by replaying the first's history, so
// equal contents with different histories occur too. Whenever the two
// fingerprints are equal, the lexicons must answer alike; every effective
// mutation must change the mutated lexicon's fingerprint and a refused one
// must not; and a lexicon that copied its base equals no other.
func TestFingerprintProperty(t *testing.T) {
	type op struct {
		seed      int64
		allowBase bool
	}
	equalSteps := 0
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lexs := [2]*vocab.Lexicon{vocab.Default(), vocab.Default()}
		var flat [2]bool
		var history [2][]op
		apply := func(i int, o op) (string, bool) {
			what, changed := mutateLexicon(lexs[i], rand.New(rand.NewSource(o.seed)), o.allowBase)
			if changed {
				history[i] = append(history[i], o)
				if strings.HasPrefix(what, "remove base") {
					flat[i] = true
				}
			}
			return what, changed
		}
		for step := 0; step < 200; step++ {
			if step%20 == 19 {
				lexs[1], flat[1], history[1] = vocab.Default(), false, nil
				for _, o := range history[0] {
					if _, changed := apply(1, o); !changed {
						t.Fatalf("seed %d step %d: replayed history diverged", seed, step)
					}
				}
			}
			o := op{seed: rng.Int63(), allowBase: step > 150 && rng.Intn(8) == 0}
			who := rng.Intn(4) // 0, 1: both get the operation; 2, 3: only one
			for i := range lexs {
				if who >= 2 && who-2 != i {
					continue
				}
				before, _ := lexs[i].Fingerprint()
				what, changed := apply(i, o)
				after, _ := lexs[i].Fingerprint()
				if changed && before == after {
					t.Fatalf("seed %d step %d lexicon %d: %s left the fingerprint unchanged", seed, step, i, what)
				}
				if !changed && before != after {
					t.Fatalf("seed %d step %d lexicon %d: refused %s changed the fingerprint", seed, step, i, what)
				}
			}
			fa, _ := lexs[0].Fingerprint()
			fb, _ := lexs[1].Fingerprint()
			if (flat[0] || flat[1]) && fa == fb {
				t.Fatalf("seed %d step %d: a lexicon that copied its base shares a fingerprint", seed, step)
			}
			if fa != fb {
				continue
			}
			equalSteps++
			if d := diffState(stateOf(lexs[0]), stateOf(lexs[1])); d != "" {
				t.Fatalf("seed %d step %d: equal fingerprints, different answers: %s", seed, step, d)
			}
		}
	}
	t.Logf("%d of 1600 steps had equal fingerprints", equalSteps)
	if equalSteps < 250 {
		t.Fatalf("only %d steps had equal fingerprints: the property was hardly exercised", equalSteps)
	}
}

// TestFingerprintCases pins the cases the key must tell apart or join.
func TestFingerprintCases(t *testing.T) {
	fp := func(build func(*vocab.Lexicon)) unique.Handle[string] {
		lex := vocab.Default()
		build(lex)
		h, _ := lex.Fingerprint()
		return h
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	person := func(p string) func(*vocab.Lexicon) {
		return func(l *vocab.Lexicon) { must(l.Add(vocab.Entry{Phrase: p, Kind: vocab.KindPerson})) }
	}
	hot := func(src, owner string) func(*vocab.Lexicon) {
		return func(l *vocab.Lexicon) { must(l.DefineCondWord("hot", src, owner)) }
	}
	both := func(fs ...func(*vocab.Lexicon)) func(*vocab.Lexicon) {
		return func(l *vocab.Lexicon) {
			for _, f := range fs {
				f(l)
			}
		}
	}
	const src = "temperature is higher than 26 degrees"
	if fp(person("tom")) != fp(person("tom")) {
		t.Error("identical overlays differ")
	}
	if fp(both(person("tom"), person("alan"))) != fp(both(person("alan"), person("tom"))) {
		t.Error("insertion order of phrases under different head words changed the fingerprint")
	}
	if fp(hot(src, "tom")) == fp(hot(src, "alan")) {
		t.Error("a word's owner is not part of the fingerprint")
	}
	if fp(hot(src, "tom")) == fp(hot("temperature is higher than 27 degrees", "tom")) {
		t.Error("a word's source is not part of the fingerprint")
	}
	// Equal-length phrases under one head word tie-break by insertion order.
	ab := both(
		func(l *vocab.Lexicon) { must(l.Add(vocab.Entry{Phrase: "red lamp", Kind: vocab.KindDevice})) },
		func(l *vocab.Lexicon) { must(l.Add(vocab.Entry{Phrase: "red lamp", Kind: vocab.KindPlace})) },
	)
	ba := both(
		func(l *vocab.Lexicon) { must(l.Add(vocab.Entry{Phrase: "red lamp", Kind: vocab.KindPlace})) },
		func(l *vocab.Lexicon) { must(l.Add(vocab.Entry{Phrase: "red lamp", Kind: vocab.KindDevice})) },
	)
	if fp(ab) == fp(ba) {
		t.Error("tie order under one head word is not part of the fingerprint")
	}
	// Removing and redefining a word returns to the same content.
	redefined := both(hot(src, "tom"), func(l *vocab.Lexicon) { must(l.Remove(vocab.KindCondWord, "hot")) }, hot(src, "tom"))
	if fp(redefined) != fp(hot(src, "tom")) {
		t.Error("remove and redefine of the same word changed the fingerprint")
	}
	// Copying the base: two lexicons with the same content stay apart, and
	// a later mutation moves the copy's fingerprint on.
	removeBase := func(l *vocab.Lexicon) { must(l.Remove(vocab.KindState, "dark")) }
	if fp(removeBase) == fp(removeBase) {
		t.Error("two lexicons that copied their base share a fingerprint")
	}
	flat := vocab.Default()
	removeBase(flat)
	f1, v1 := flat.Fingerprint()
	person("tom")(flat)
	f2, v2 := flat.Fingerprint()
	if f1 == f2 || v1 == v2 {
		t.Error("a mutation of a copied lexicon kept its fingerprint or version")
	}
	// New and JSON-restored lexicons have no base and differ from Default.
	if a, _ := vocab.New().Fingerprint(); a == fp(func(*vocab.Lexicon) {}) {
		t.Error("an empty lexicon shares the Default fingerprint")
	}
}
