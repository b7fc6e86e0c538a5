package vocab

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/alloctest"
)

// allKinds lists every defined kind, for exhaustive comparisons.
var allKinds = []Kind{
	KindVerb, KindState, KindParameter, KindUnit, KindPlace, KindPerson,
	KindDevice, KindEvent, KindCondWord, KindConfWord, KindPeriodName, KindWeekday,
}

// naiveLexicon is the reference the lexicons are checked against: every
// entry in one plain slice in insertion order, and every query a linear
// scan of it.
type naiveLexicon []Entry

func (n naiveLexicon) index(kind Kind, phrase string) int {
	phrase = Normalize(phrase)
	return slices.IndexFunc(n, func(e Entry) bool { return e.Kind == kind && e.Phrase == phrase })
}

func (n *naiveLexicon) add(e Entry) error {
	e.Phrase = Normalize(e.Phrase)
	if e.Canon == "" {
		e.Canon = e.Phrase
	}
	if n.index(e.Kind, e.Phrase) >= 0 {
		return ErrDuplicate
	}
	*n = append(*n, e)
	return nil
}

func (n *naiveLexicon) remove(kind Kind, phrase string) error {
	i := n.index(kind, phrase)
	if i < 0 {
		return ErrNotFound
	}
	*n = slices.Delete(*n, i, i+1)
	return nil
}

func (n naiveLexicon) lookup(kind Kind, phrase string) (Entry, bool) {
	if i := n.index(kind, phrase); i >= 0 {
		return n[i], true
	}
	return Entry{}, false
}

// matchLongest keeps the first of the longest matches: the earliest added.
func (n naiveLexicon) matchLongest(tokens []string, kinds []Kind) (Entry, int, bool) {
	best, bestLen := Entry{}, 0
	for _, e := range n {
		toks := strings.Fields(e.Phrase)
		if len(kinds) > 0 && !slices.Contains(kinds, e.Kind) || len(toks) > len(tokens) {
			continue
		}
		if slices.Equal(toks, tokens[:len(toks)]) && len(toks) > bestLen {
			best, bestLen = e, len(toks)
		}
	}
	return best, bestLen, bestLen > 0
}

func (n naiveLexicon) entries(kind Kind) []Entry {
	out := []Entry{}
	for _, e := range n {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	slices.SortFunc(out, func(a, b Entry) int { return strings.Compare(a.Phrase, b.Phrase) })
	return out
}

func (n naiveLexicon) marshalJSON() ([]byte, error) {
	doc := lexiconJSON{Entries: slices.Clone(n)}
	slices.SortFunc(doc.Entries, func(a, b Entry) int {
		if a.Kind != b.Kind {
			return int(a.Kind) - int(b.Kind)
		}
		return strings.Compare(a.Phrase, b.Phrase)
	})
	return json.Marshal(doc)
}

// TestLayeredMatchesFlatOracle runs seeded random operation sequences against
// a Default lexicon (shared base + overlay), a flat lexicon holding the same
// default entries in the same order, and the naive reference, comparing
// every result. After every Add and Remove it also compares JSON and checks
// the fingerprint: while the Default lexicon shares its base, it equals that
// of a fresh Default lexicon given the reference's overlay entries in
// insertion order; once the base was copied, it equals no fresh Default
// lexicon's; and it never equals the flat lexicon's.
func TestLayeredMatchesFlatOracle(t *testing.T) {
	var baseEntries []Entry
	for _, k := range allKinds {
		baseEntries = append(baseEntries, buildDefault().Entries(k)...)
	}
	// User phrases that collide with base heads, base phrases of other
	// kinds, and each other, so ties and duplicates are exercised.
	userPhrases := []string{
		"tom", "alan", "hot and stuffy", "hot", "half-lighting", "turn on",
		"turn on the", "at least", "at", "on", "living room lamp",
		"got home from work late", "got home", "movie night", "dark",
	}
	userKinds := []Kind{KindPerson, KindCondWord, KindConfWord}
	extraWords := []string{"the", "lamp", "today", "late", "20", "degrees"}

	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			layered, flat := Default(), buildDefault()
			// The reference starts with the built-in entries in the base's
			// order. Among the phrases of one head word and length that is
			// their insertion order, the only order a query depends on.
			naive := naiveLexicon{}
			for _, p := range *layered.base {
				naive = append(naive, p.Entry)
			}
			baseLen := len(naive) // naive[:baseLen] are built-in entries
			randPhrase := func() (Kind, string) {
				if rng.Intn(2) == 0 {
					e := baseEntries[rng.Intn(len(baseEntries))]
					if rng.Intn(4) == 0 {
						return userKinds[rng.Intn(len(userKinds))], e.Phrase
					}
					return e.Kind, e.Phrase
				}
				return userKinds[rng.Intn(len(userKinds))], userPhrases[rng.Intn(len(userPhrases))]
			}
			for step := 0; step < 500; step++ {
				kind, ph := randPhrase()
				var what string
				switch op := rng.Intn(10); {
				case op < 3:
					what = "Add"
					e := Entry{Phrase: ph, Kind: kind}
					if rng.Intn(2) == 0 {
						e.Meta = map[string]string{MetaOwner: "tom", MetaSource: fmt.Sprint(step)}
					}
					err := layered.Add(e)
					checkErr(t, step, what, err, flat.Add(e))
					checkErr(t, step, what, err, naive.add(e))
				case op < 5:
					what = "Remove"
					// Keep the base shared for most of the run: base
					// phrases are only removed (copy-on-write) late.
					if step < 350 {
						for kind != KindPerson && kind != KindCondWord && kind != KindConfWord {
							kind, ph = randPhrase()
						}
					}
					if i := naive.index(kind, ph); i >= 0 && i < baseLen {
						baseLen--
					}
					err := layered.Remove(kind, ph)
					checkErr(t, step, what, err, flat.Remove(kind, ph))
					checkErr(t, step, what, err, naive.remove(kind, ph))
				case op < 6:
					what = "Lookup"
					le, lok := layered.Lookup(kind, ph)
					fe, fok := flat.Lookup(kind, ph)
					ne, nok := naive.lookup(kind, ph)
					if lok != fok || lok != nok || !reflect.DeepEqual(le, fe) || !reflect.DeepEqual(le, ne) {
						t.Fatalf("step %d Lookup(%v, %q) = %+v/%v, flat %+v/%v, naive %+v/%v",
							step, kind, ph, le, lok, fe, fok, ne, nok)
					}
				case op < 8:
					what = "MatchLongest"
					toks := strings.Fields(ph)
					if rng.Intn(2) == 0 {
						toks = toks[:1+rng.Intn(len(toks))]
					}
					for n := rng.Intn(3); n > 0; n-- {
						toks = append(toks, extraWords[rng.Intn(len(extraWords))])
					}
					var kinds []Kind
					for n := rng.Intn(4); n > 0; n-- {
						kinds = append(kinds, allKinds[rng.Intn(len(allKinds))])
					}
					le, ln, lok := layered.MatchLongest(toks, kinds...)
					fe, fn, fok := flat.MatchLongest(toks, kinds...)
					ne, nn, nok := naive.matchLongest(toks, kinds)
					if lok != fok || ln != fn || !reflect.DeepEqual(le, fe) ||
						lok != nok || ln != nn || !reflect.DeepEqual(le, ne) {
						t.Fatalf("step %d MatchLongest(%q, %v) = %+v/%d/%v, flat %+v/%d/%v, naive %+v/%d/%v",
							step, toks, kinds, le, ln, lok, fe, fn, fok, ne, nn, nok)
					}
				default:
					what = "Entries"
					got := layered.Entries(kind)
					if want := flat.Entries(kind); !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d Entries(%v) differ:\n got %+v\nwant %+v", step, kind, got, want)
					}
					if want := naive.entries(kind); !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d Entries(%v) differ from naive:\n got %+v\nwant %+v", step, kind, got, want)
					}
				}
				if what != "Add" && what != "Remove" {
					continue // reads leave the lexicons as they were
				}
				lj, err := layered.MarshalJSON()
				if err != nil {
					t.Fatal(err)
				}
				fj, err := flat.MarshalJSON()
				if err != nil {
					t.Fatal(err)
				}
				nj, err := naive.marshalJSON()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(lj, fj) || !bytes.Equal(lj, nj) {
					t.Fatalf("step %d after %s(%v, %q): JSON differs from the flat or naive oracle", step, what, kind, ph)
				}
				lfp, _ := layered.Fingerprint()
				if ffp, _ := flat.Fingerprint(); lfp == ffp {
					t.Fatalf("step %d after %s(%v, %q): fingerprint equals the flat lexicon's", step, what, kind, ph)
				}
				replay := Default()
				if layered.base != nil {
					for _, e := range naive[baseLen:] {
						if err := replay.Add(e); err != nil {
							t.Fatalf("step %d: replaying the overlay: %v", step, err)
						}
					}
				}
				if rfp, _ := replay.Fingerprint(); (lfp == rfp) != (layered.base != nil) {
					t.Fatalf("step %d after %s(%v, %q): fingerprint equals the replayed overlay's = %v, base shared = %v",
						step, what, kind, ph, lfp == rfp, layered.base != nil)
				}
			}
			if layered.base != nil {
				t.Error("no Remove copied the base: the copy-on-write path went untested")
			}
		})
	}
}

func checkErr(t *testing.T, step int, op string, got, want error) {
	t.Helper()
	for _, target := range []error{ErrDuplicate, ErrNotFound, ErrEmpty} {
		if errors.Is(got, target) != errors.Is(want, target) {
			t.Fatalf("step %d %s error = %v, flat oracle %v", step, op, got, want)
		}
	}
	if (got == nil) != (want == nil) {
		t.Fatalf("step %d %s error = %v, flat oracle %v", step, op, got, want)
	}
}

func TestDefaultSharesOneBase(t *testing.T) {
	a, b := Default(), Default()
	if a.base == nil || a.base != b.base {
		t.Fatal("Default lexicons do not share one base")
	}
	if len(a.own) != 0 {
		t.Error("a fresh Default lexicon should have an empty overlay")
	}
}

func TestRemoveBasePhraseIsPrivate(t *testing.T) {
	a, b := Default(), Default()
	if err := a.Remove(KindVerb, "turn on"); err != nil {
		t.Fatalf("Remove base phrase: %v", err)
	}
	if _, ok := a.Lookup(KindVerb, "turn on"); ok {
		t.Error("removed phrase still visible in its own lexicon")
	}
	if _, _, ok := a.MatchLongest([]string{"turn", "on"}, KindVerb); ok {
		t.Error("removed phrase still matches in its own lexicon")
	}
	for _, l := range []*Lexicon{b, Default()} {
		if _, ok := l.Lookup(KindVerb, "turn on"); !ok {
			t.Error("Remove in one lexicon changed another lexicon's view")
		}
	}
	if got, want := len(a.Entries(KindVerb)), len(b.Entries(KindVerb))-1; got != want {
		t.Errorf("verbs after Remove = %d, want %d", got, want)
	}
}

func TestUnmarshalDropsBase(t *testing.T) {
	l := Default()
	if err := l.UnmarshalJSON([]byte(`{"entries":[{"phrase":"tom","kind":6,"canon":"tom"}]}`)); err != nil {
		t.Fatal(err)
	}
	if _, ok := l.Lookup(KindVerb, "turn on"); ok {
		t.Error("base entries survived UnmarshalJSON")
	}
	if _, ok := l.Lookup(KindPerson, "tom"); !ok {
		t.Error("serialized entry missing after UnmarshalJSON")
	}
}

// TestConcurrentHomesOverSharedBase runs many lexicons at once over the shared
// base (run it with -race): each adds, matches and removes, some remove base
// phrases, and no lexicon may observe another's changes.
func TestConcurrentHomesOverSharedBase(t *testing.T) {
	const homes = 32
	lexes := make([]*Lexicon, homes)
	for i := range lexes {
		lexes[i] = Default()
	}
	var wg sync.WaitGroup
	for i, l := range lexes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			word := fmt.Sprintf("turn on home %d", i)
			for j := 0; j < 100; j++ {
				if err := l.DefineConfWord(word, "x", "tom"); err != nil {
					t.Errorf("home %d: DefineConfWord: %v", i, err)
					return
				}
				e, n, ok := l.MatchLongest(strings.Fields(word+" now"), KindVerb, KindConfWord)
				if !ok || n != 4 || e.Phrase != word {
					t.Errorf("home %d: MatchLongest = %q/%d/%v", i, e.Phrase, n, ok)
					return
				}
				if _, _, ok := l.MatchLongest([]string{"switch", "on"}, KindVerb); !ok {
					t.Errorf("home %d: base verb not matched", i)
					return
				}
				if err := l.Remove(KindConfWord, word); err != nil {
					t.Errorf("home %d: Remove: %v", i, err)
					return
				}
				for _, other := range lexes {
					if _, ok := other.Lookup(KindConfWord, word); ok && other != l {
						t.Errorf("home %d's word is visible in another home", i)
						return
					}
				}
			}
			if i%2 == 0 {
				if err := l.Remove(KindVerb, "switch on"); err != nil {
					t.Errorf("home %d: Remove base verb: %v", i, err)
				}
			}
		}()
	}
	wg.Wait()
	for i, l := range lexes {
		_, ok := l.Lookup(KindVerb, "switch on")
		if ok != (i%2 == 1) {
			t.Errorf("home %d: 'switch on' present = %v, want %v", i, ok, i%2 == 1)
		}
		if n := len(l.Entries(KindConfWord)); n != 0 {
			t.Errorf("home %d: %d conf words left, want 0", i, n)
		}
	}
	if _, ok := Default().Lookup(KindVerb, "switch on"); !ok {
		t.Error("base lost a phrase removed by some home")
	}
}

func TestMatchLongestZeroAlloc(t *testing.T) {
	l := Default()
	if err := l.DefineCondWord("hot and stuffy", "x", "tom"); err != nil {
		t.Fatal(err)
	}
	stateToks := strings.Fields("got home from work today")
	wordToks := strings.Fields("hot and stuffy now")
	allocs, _ := alloctest.PerCall(200, func() {
		if _, n, ok := l.MatchLongest(stateToks, KindState, KindCondWord); !ok || n != 4 {
			t.Fatal("multi-word base phrase not matched")
		}
		if _, n, ok := l.MatchLongest(wordToks, KindState, KindCondWord); !ok || n != 3 {
			t.Fatal("multi-word overlay phrase not matched")
		}
	})
	if allocs != 0 {
		t.Errorf("MatchLongest allocates %v times per run, want 0", allocs)
	}
}
