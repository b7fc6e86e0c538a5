package vocab

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/alloctest"
)

func TestNormalize(t *testing.T) {
	tests := []struct{ give, want string }{
		{"Hot And Stuffy", "hot and stuffy"},
		{"  hot   and  stuffy ", "hot and stuffy"},
		{"TURN ON", "turn on"},
		{"", ""},
	}
	for _, tt := range tests {
		if got := Normalize(tt.give); got != tt.want {
			t.Errorf("Normalize(%q) = %q, want %q", tt.give, got, tt.want)
		}
	}
}

func TestAddLookupRemove(t *testing.T) {
	l := New()
	if err := l.Add(Entry{Phrase: "Half Lighting", Kind: KindConfWord}); err != nil {
		t.Fatalf("Add: %v", err)
	}
	e, ok := l.Lookup(KindConfWord, "half lighting")
	if !ok {
		t.Fatal("Lookup failed after Add")
	}
	if e.Canon != "half lighting" {
		t.Errorf("Canon = %q, want defaulted phrase", e.Canon)
	}
	if err := l.Add(Entry{Phrase: "half  lighting", Kind: KindConfWord}); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate Add error = %v, want ErrDuplicate", err)
	}
	// Same phrase under a different kind is fine.
	if err := l.Add(Entry{Phrase: "half lighting", Kind: KindCondWord}); err != nil {
		t.Errorf("same phrase different kind: %v", err)
	}
	if err := l.Remove(KindConfWord, "half lighting"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, ok := l.Lookup(KindConfWord, "half lighting"); ok {
		t.Error("Lookup succeeded after Remove")
	}
	// The cond-word entry must survive.
	if _, ok := l.Lookup(KindCondWord, "half lighting"); !ok {
		t.Error("Remove deleted entry of another kind")
	}
	if err := l.Remove(KindConfWord, "half lighting"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double Remove error = %v, want ErrNotFound", err)
	}
}

func TestAddEmpty(t *testing.T) {
	l := New()
	if err := l.Add(Entry{Phrase: "   ", Kind: KindVerb}); !errors.Is(err, ErrEmpty) {
		t.Errorf("Add empty error = %v, want ErrEmpty", err)
	}
}

func TestMatchLongestPrefersLongerPhrase(t *testing.T) {
	l := Default()
	toks := strings.Fields("at least 20 degrees")
	e, n, ok := l.MatchLongest(toks, KindState)
	if !ok {
		t.Fatal("no match for 'at least'")
	}
	if e.Phrase != "at least" || n != 2 {
		t.Errorf("matched %q (%d tokens), want 'at least' (2)", e.Phrase, n)
	}
	toks = strings.Fields("at the living room")
	e, n, ok = l.MatchLongest(toks, KindState)
	if !ok || e.Phrase != "at" || n != 1 {
		t.Errorf("matched %q/%d, want presence 'at'/1", e.Phrase, n)
	}
}

func TestMatchLongestKindFilter(t *testing.T) {
	l := Default()
	toks := strings.Fields("on air tonight")
	if e, _, ok := l.MatchLongest(toks, KindState); !ok || e.Canon != "on-air" {
		t.Errorf("state match = %+v ok=%v, want on-air", e, ok)
	}
	// With a non-state filter there is no match.
	if _, _, ok := l.MatchLongest(toks, KindPlace); ok {
		t.Error("place filter should not match 'on air'")
	}
	// No filter at all matches any kind.
	if _, n, ok := l.MatchLongest(toks); !ok || n == 0 {
		t.Error("unfiltered match should succeed")
	}
}

func TestMatchLongestEmpty(t *testing.T) {
	l := Default()
	if _, _, ok := l.MatchLongest(nil, KindVerb); ok {
		t.Error("empty token match should fail")
	}
}

func TestEntriesSorted(t *testing.T) {
	l := Default()
	entries := l.Entries(KindVerb)
	if len(entries) == 0 {
		t.Fatal("default lexicon has no verbs")
	}
	for i := 1; i < len(entries); i++ {
		if entries[i-1].Phrase > entries[i].Phrase {
			t.Fatalf("entries not sorted: %q > %q", entries[i-1].Phrase, entries[i].Phrase)
		}
	}
}

func TestDefineUserWords(t *testing.T) {
	l := Default()
	if err := l.DefineCondWord("hot and stuffy",
		"humidity is higher than 60 percent and temperature is higher than 28 degrees", "tom"); err != nil {
		t.Fatalf("DefineCondWord: %v", err)
	}
	e, ok := l.Lookup(KindCondWord, "hot and stuffy")
	if !ok {
		t.Fatal("cond word not found")
	}
	if e.MetaValue(MetaOwner) != "tom" {
		t.Errorf("owner = %q, want tom", e.MetaValue(MetaOwner))
	}
	if !strings.Contains(e.MetaValue(MetaSource), "higher than 60") {
		t.Errorf("source not preserved: %q", e.MetaValue(MetaSource))
	}
	if err := l.DefineConfWord("half-lighting", "50 percent of brightness setting", "tom"); err != nil {
		t.Fatalf("DefineConfWord: %v", err)
	}
	if _, ok := l.Lookup(KindConfWord, "half-lighting"); !ok {
		t.Error("conf word not found")
	}
}

func TestDefaultLexiconContents(t *testing.T) {
	l := Default()
	tests := []struct {
		kind   Kind
		phrase string
		canon  string
	}{
		{KindVerb, "turn on", "turn-on"},
		{KindVerb, "switch off", "turn-off"},
		{KindState, "higher than", ""},
		{KindState, "turned on", "power=true"},
		{KindState, "dark", "dark=true"},
		{KindState, "unlocked", "locked=false"},
		{KindState, "returns home", "arrive-return-home"},
		{KindState, "got home from work", "arrive-home-from-work"},
		{KindState, "on air", "on-air"},
		{KindParameter, "temperature", "temperature"},
		{KindUnit, "degrees", "celsius"},
		{KindUnit, "hours", "second"},
		{KindPlace, "living room", "living room"},
		{KindPeriodName, "evening", "evening"},
		{KindPeriodName, "night", "night"},
		{KindWeekday, "monday", "monday"},
		{KindEvent, "baseball game", "baseball game"},
	}
	for _, tt := range tests {
		e, ok := l.Lookup(tt.kind, tt.phrase)
		if !ok {
			t.Errorf("default lexicon missing %v %q", tt.kind, tt.phrase)
			continue
		}
		if tt.canon != "" && e.Canon != tt.canon {
			t.Errorf("%q canon = %q, want %q", tt.phrase, e.Canon, tt.canon)
		}
	}
}

func TestDefaultPeriodMeta(t *testing.T) {
	l := Default()
	e, ok := l.Lookup(KindPeriodName, "evening")
	if !ok {
		t.Fatal("missing evening")
	}
	if e.MetaValue(MetaFromMin) != "1020" || e.MetaValue(MetaToMin) != "1320" {
		t.Errorf("evening = [%s,%s] minutes, want [1020,1320]",
			e.MetaValue(MetaFromMin), e.MetaValue(MetaToMin))
	}
	night, _ := l.Lookup(KindPeriodName, "night")
	if night.MetaValue(MetaToMin) != "1800" {
		t.Errorf("night end = %s, want 1800 (06:00 next day)", night.MetaValue(MetaToMin))
	}
}

func TestJSONRoundTrip(t *testing.T) {
	l := Default()
	if err := l.DefineCondWord("hot and stuffy", "temperature is higher than 28 degrees", "tom"); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(l)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	restored := New()
	if err := json.Unmarshal(data, restored); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	for _, kind := range []Kind{KindVerb, KindState, KindUnit, KindPlace, KindCondWord} {
		if got, want := len(restored.Entries(kind)), len(l.Entries(kind)); got != want {
			t.Errorf("kind %v: %d entries after round trip, want %d", kind, got, want)
		}
	}
	e, ok := restored.Lookup(KindCondWord, "hot and stuffy")
	if !ok {
		t.Fatal("user word lost in round trip")
	}
	if got := e.MetaValue(MetaSource); got != "temperature is higher than 28 degrees" {
		t.Errorf("source after round trip = %q", got)
	}
	if got := e.MetaValue(MetaOwner); got != "tom" {
		t.Errorf("owner after round trip = %q", got)
	}
	if orig, _ := l.Lookup(KindCondWord, "hot and stuffy"); !reflect.DeepEqual(e, orig) {
		t.Errorf("user word after round trip = %+v, want %+v as DefineCondWord made it", e, orig)
	}
	// The user word serializes its source and owner as a meta object, and a
	// lexicon restored from it lists them, and so fingerprints, as before.
	const wordJSON = `{"phrase":"hot and stuffy","kind":9,"canon":"hot and stuffy",` +
		`"meta":{"owner":"tom","source":"temperature is higher than 28 degrees"}}`
	if !strings.Contains(string(data), wordJSON) {
		t.Errorf("serialized lexicon lacks %s", wordJSON)
	}
	const wordListing = `9 "hot and stuffy" "hot and stuffy" { "owner"="tom" "source"="temperature is higher than 28 degrees"}` + "\n"
	for name, lex := range map[string]*Lexicon{"original": l, "restored": restored} {
		if got := lex.listing(); !strings.Contains(got, "\n"+wordListing) {
			t.Errorf("%s listing lacks %q:\n%s", name, wordListing, got)
		}
	}
	// Matching still works (the sorted slice keeps its order).
	if _, n, ok := restored.MatchLongest(strings.Fields("hot and stuffy today"), KindCondWord); !ok || n != 3 {
		t.Error("MatchLongest broken after round trip")
	}
}

func TestKindString(t *testing.T) {
	if KindVerb.String() != "verb" || KindCondWord.String() != "cond-word" {
		t.Error("Kind.String misnamed")
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Error("unknown kind should include number")
	}
}

func TestConcurrentAccess(t *testing.T) {
	l := Default()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			_, _, _ = l.MatchLongest([]string{"turn", "on"}, KindVerb)
			_ = l.Entries(KindState)
		}
	}()
	for i := 0; i < 200; i++ {
		name := "word" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
		_ = l.DefineCondWord(name, "x", "t")
		_ = l.Remove(KindCondWord, name)
	}
	<-done
}

// FuzzNormalize checks Normalize, fast path included, against its
// definition: lowercase, then join the fields with single spaces.
func FuzzNormalize(f *testing.F) {
	for _, s := range []string{
		"", " ", "living room", "Living Room", "living  room", " hall", "hall ",
		"a\tb", "a\nb", "a\vb\fc\rd", "ÄRGER über", "a b", "a\u0085b", "\xff", "hot and stuffy",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want := strings.Join(strings.Fields(strings.ToLower(s)), " ")
		if got := Normalize(s); got != want {
			t.Errorf("Normalize(%q) = %q, want %q", s, got, want)
		}
	})
}

func TestNormalizeNormalizedDoesNotAllocate(t *testing.T) {
	for _, s := range []string{"temperature", "living room", "hot and stuffy"} {
		if n, _ := alloctest.PerCall(100, func() { _ = Normalize(s) }); n != 0 {
			t.Errorf("Normalize(%q): %v allocs, want 0", s, n)
		}
	}
}
