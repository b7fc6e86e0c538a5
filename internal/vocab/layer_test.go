package vocab

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// allKinds lists every defined kind, for exhaustive comparisons.
var allKinds = []Kind{
	KindVerb, KindState, KindParameter, KindUnit, KindPlace, KindPerson,
	KindDevice, KindEvent, KindCondWord, KindConfWord, KindPeriodName, KindWeekday,
}

// TestLayeredMatchesFlatOracle runs seeded random operation sequences against
// a Default lexicon (shared base + overlay) and against a flat lexicon holding
// the same default entries in the same order, comparing every result.
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
					checkErr(t, step, what, layered.Add(e), flat.Add(e))
				case op < 5:
					what = "Remove"
					// Keep the base shared for most of the run: base
					// phrases are only removed (copy-on-write) late.
					if step < 350 {
						for kind != KindPerson && kind != KindCondWord && kind != KindConfWord {
							kind, ph = randPhrase()
						}
					}
					checkErr(t, step, what, layered.Remove(kind, ph), flat.Remove(kind, ph))
				case op < 6:
					what = "Lookup"
					le, lok := layered.Lookup(kind, ph)
					fe, fok := flat.Lookup(kind, ph)
					if lok != fok || !reflect.DeepEqual(le, fe) {
						t.Fatalf("step %d Lookup(%v, %q) = %+v/%v, flat %+v/%v", step, kind, ph, le, lok, fe, fok)
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
					if lok != fok || ln != fn || !reflect.DeepEqual(le, fe) {
						t.Fatalf("step %d MatchLongest(%q, %v) = %+v/%d/%v, flat %+v/%d/%v",
							step, toks, kinds, le, ln, lok, fe, fn, fok)
					}
				default:
					what = "Entries"
					if got, want := layered.Entries(kind), flat.Entries(kind); !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d Entries(%v) differ:\n got %+v\nwant %+v", step, kind, got, want)
					}
				}
				if what != "Add" && what != "Remove" {
					continue // reads leave both lexicons as they were
				}
				lj, err := layered.MarshalJSON()
				if err != nil {
					t.Fatal(err)
				}
				fj, err := flat.MarshalJSON()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(lj, fj) {
					t.Fatalf("step %d after %s(%v, %q): JSON differs from flat oracle", step, what, kind, ph)
				}
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
	if a.own.byKind != nil {
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
	allocs := testing.AllocsPerRun(200, func() {
		if _, n, ok := l.MatchLongest(stateToks, KindState, KindCondWord); !ok || n != 4 {
			t.Fatal("multi-word base phrase not matched")
		}
		if _, n, ok := l.MatchLongest(wordToks, KindState, KindCondWord); !ok || n != 3 {
			t.Fatal("multi-word overlay phrase not matched")
		}
	})
	if allocs != 0 {
		t.Errorf("MatchLongest allocates %.1f times per run, want 0", allocs)
	}
}
