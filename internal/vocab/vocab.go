// Package vocab holds the CADEL lexicon: the multi-word phrase tables for
// verbs, states, parameters, units, places, periods and the user-defined
// condition/configuration words created with CondDef / ConfDef commands.
//
// The paper's rule description support module lets users retrieve sensors and
// devices by keyword, sensor type or user-defined word, and lets each user
// coin new words ("hot and stuffy", "half-lighting") that stand for compound
// contexts or device configurations. The lexicon is the shared dictionary
// that both the parser (phrase recognition) and the lookup service (word →
// sensor mapping) consult.
//
// A lexicon from Default has two layers. The built-in English tables form
// one frozen base, built once per process and shared by every Default
// lexicon; each lexicon adds only its own overlay of persons and words on
// top. Reads see both layers as one dictionary, exactly as if the base
// entries had been added first to a flat lexicon. Removing a base phrase
// first copies the base into that lexicon's overlay (copy-on-write), so no
// other lexicon sees the removal. Entry.Meta maps may be shared with every
// other lexicon and must be treated as read-only.
//
// Fingerprint names a lexicon's content exactly, so that callers can share
// work derived from it (compiled rules) between lexicons that would answer
// every query alike.
package vocab

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unique"
)

// Kind classifies lexicon entries.
type Kind int

// Lexicon entry kinds.
const (
	KindVerb Kind = iota + 1
	KindState
	KindParameter
	KindUnit
	KindPlace
	KindPerson
	KindDevice
	KindEvent
	KindCondWord
	KindConfWord
	KindPeriodName
	KindWeekday
)

var kindNames = map[Kind]string{
	KindVerb:       "verb",
	KindState:      "state",
	KindParameter:  "parameter",
	KindUnit:       "unit",
	KindPlace:      "place",
	KindPerson:     "person",
	KindDevice:     "device",
	KindEvent:      "event",
	KindCondWord:   "cond-word",
	KindConfWord:   "conf-word",
	KindPeriodName: "period",
	KindWeekday:    "weekday",
}

// String names the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// StateKind classifies how a state phrase is interpreted when compiled.
type StateKind string

// State phrase interpretations.
const (
	StateBool     StateKind = "bool"     // "turned on", "dark", "unlocked"
	StateCompare  StateKind = "compare"  // "is higher than 28 degrees"
	StatePresence StateKind = "presence" // "is at the living room"
	StateArrival  StateKind = "arrival"  // "returns home", "got home from work"
	StateOnAir    StateKind = "onair"    // "is on air"
)

// Meta keys used by entries.
const (
	MetaStateKind = "state-kind" // StateKind value for KindState
	MetaVar       = "var"        // state variable / parameter canonical variable
	MetaBool      = "bool"       // "true"/"false" for StateBool
	MetaOp        = "op"         // gt/ge/lt/le/eq for StateCompare
	MetaEvent     = "event"      // arrival event name for StateArrival
	MetaUnitCanon = "unit"       // canonical unit for KindUnit and KindParameter
	MetaScale     = "scale"      // multiplier to canonical unit (e.g. hours → seconds)
	MetaFromMin   = "from-min"   // period name start, minutes since midnight
	MetaToMin     = "to-min"     // period name end, minutes since midnight
	MetaSource    = "source"     // original CADEL text for user-defined words
	MetaOwner     = "owner"      // user who defined the word
	MetaDay       = "day"        // weekday number 0=Sunday
)

// Entry is a single lexicon item. Phrase is the lowercase, single-spaced
// surface form; Canon is the canonical identifier used by the compiler
// (defaults to Phrase). Meta is read-only: entries returned by a lexicon may
// share it with other lexicons.
type Entry struct {
	Phrase string            `json:"phrase"`
	Kind   Kind              `json:"kind"`
	Canon  string            `json:"canon"`
	Meta   map[string]string `json:"meta,omitempty"`
}

// MetaValue returns the value for a meta key, empty when absent.
func (e Entry) MetaValue(key string) string {
	return e.Meta[key]
}

// Errors reported by the lexicon.
var (
	ErrDuplicate = errors.New("vocab: word already defined")
	ErrNotFound  = errors.New("vocab: word not found")
	ErrEmpty     = errors.New("vocab: empty phrase")
)

// Lexicon is a concurrency-safe dictionary of phrases. The zero value is not
// usable; construct with New or Default.
type Lexicon struct {
	mu   sync.RWMutex
	base *table // frozen shared layer, read without locking; nil when flat
	own  table  // this lexicon's entries, guarded by mu
	// version counts mutations; fp caches Fingerprint while fpOK. solo is a
	// process-unique id once flatten copied the base (0 otherwise). All
	// three are guarded by mu.
	version uint64
	solo    uint64
	fp      unique.Handle[string]
	fpOK    bool
}

// soloIDs numbers lexicons that copied their base.
var soloIDs atomic.Uint64

// table is one layer of phrases. Its maps are created on first add.
type table struct {
	byKind    map[Kind]map[string]Entry
	firstWord map[string][]item // by first token; longest first, then insertion order
}

// item is an entry with its phrase pre-split into tokens for matching.
type item struct {
	Entry
	toks []string
}

// New returns an empty lexicon.
func New() *Lexicon {
	return &Lexicon{}
}

// Normalize lowercases and single-spaces a phrase. A phrase that is already
// normalized is returned as is, without allocating.
func Normalize(phrase string) string {
	if isNormalized(phrase) {
		return phrase
	}
	return strings.Join(strings.Fields(strings.ToLower(phrase)), " ")
}

// isNormalized reports whether phrase is ASCII without upper-case letters or
// white space other than single inner spaces.
func isNormalized(phrase string) bool {
	for i := 0; i < len(phrase); i++ {
		c := phrase[i]
		switch {
		case c >= 0x80 || 'A' <= c && c <= 'Z' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r':
			return false
		case c == ' ' && (i == 0 || i == len(phrase)-1 || phrase[i-1] == ' '):
			return false
		}
	}
	return true
}

// Add inserts an entry. It fails with ErrDuplicate if the same phrase is
// already present under the same kind.
func (l *Lexicon) Add(e Entry) error {
	e.Phrase = Normalize(e.Phrase)
	if e.Phrase == "" {
		return ErrEmpty
	}
	if e.Canon == "" {
		e.Canon = e.Phrase
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.lookup(e.Kind, e.Phrase); ok {
		return fmt.Errorf("%w: %q (%v)", ErrDuplicate, e.Phrase, e.Kind)
	}
	l.own.add(item{e, strings.Fields(e.Phrase)})
	l.changed()
	return nil
}

// changed records a mutation; the caller holds mu for writing.
func (l *Lexicon) changed() {
	l.version++
	l.fpOK = false
}

// MustAdd is Add for static tables; it panics on error and is used only while
// building the default lexicon.
func (l *Lexicon) MustAdd(e Entry) {
	if err := l.Add(e); err != nil {
		panic(err)
	}
}

func (t *table) add(p item) {
	if t.byKind == nil {
		t.byKind = make(map[Kind]map[string]Entry)
		t.firstWord = make(map[string][]item)
	}
	km := t.byKind[p.Kind]
	if km == nil {
		km = make(map[string]Entry)
		t.byKind[p.Kind] = km
	}
	km[p.Phrase] = p.Entry
	// Insert after every phrase at least as long, keeping insertion order
	// among equal lengths.
	list := t.firstWord[p.toks[0]]
	i := sort.Search(len(list), func(i int) bool { return len(list[i].toks) < len(p.toks) })
	t.firstWord[p.toks[0]] = slices.Insert(list, i, p)
}

// Remove deletes a phrase of the given kind. Removing a base phrase copies
// the base into this lexicon first, so other lexicons keep it.
func (l *Lexicon) Remove(kind Kind, phrase string) error {
	phrase = Normalize(phrase)
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.lookup(kind, phrase); !ok {
		return fmt.Errorf("%w: %q (%v)", ErrNotFound, phrase, kind)
	}
	if _, ok := l.own.byKind[kind][phrase]; !ok {
		l.flatten()
	}
	delete(l.own.byKind[kind], phrase)
	head := strings.Fields(phrase)[0]
	l.own.firstWord[head] = slices.DeleteFunc(l.own.firstWord[head], func(p item) bool {
		return p.Kind == kind && p.Phrase == phrase
	})
	l.changed()
	return nil
}

// flatten merges the base under the overlay into one private table. Base
// entries keep their precedence over overlay entries of equal length.
func (l *Lexicon) flatten() {
	var t table
	for _, src := range l.layers() {
		for _, list := range src.firstWord {
			for _, p := range list {
				t.add(p)
			}
		}
	}
	l.base, l.own = nil, t
	l.solo = soloIDs.Add(1)
}

// layers returns the lexicon's tables, base first; the caller holds mu.
func (l *Lexicon) layers() []*table {
	if l.base == nil {
		return []*table{&l.own}
	}
	return []*table{l.base, &l.own}
}

// Lookup returns the entry for an exact phrase of the given kind.
func (l *Lexicon) Lookup(kind Kind, phrase string) (Entry, bool) {
	phrase = Normalize(phrase)
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.lookup(kind, phrase)
}

// lookup finds a normalized phrase in either layer; the caller holds mu.
func (l *Lexicon) lookup(kind Kind, phrase string) (Entry, bool) {
	if l.base != nil {
		if e, ok := l.base.byKind[kind][phrase]; ok {
			return e, true
		}
	}
	e, ok := l.own.byKind[kind][phrase]
	return e, ok
}

// kindSet is a bitmask of kinds. Kinds outside [0, 16) have no bit and never
// pass a kind filter.
type kindSet uint16

func kindBit(k Kind) kindSet {
	if k < 0 || k >= 16 {
		return 0
	}
	return 1 << k
}

// MatchLongest finds the longest entry of one of the given kinds whose phrase
// equals a prefix of tokens. It returns the entry and the number of tokens
// consumed. Among equally long matches the earliest added wins, base entries
// before overlay entries. It does not allocate.
func (l *Lexicon) MatchLongest(tokens []string, kinds ...Kind) (Entry, int, bool) {
	if len(tokens) == 0 {
		return Entry{}, 0, false
	}
	var set kindSet
	for _, k := range kinds {
		set |= kindBit(k)
	}
	all := len(kinds) == 0
	l.mu.RLock()
	defer l.mu.RUnlock()
	var best *item
	if l.base != nil {
		best = l.base.match(tokens, set, all)
	}
	if p := l.own.match(tokens, set, all); p != nil && (best == nil || len(p.toks) > len(best.toks)) {
		best = p
	}
	if best == nil {
		return Entry{}, 0, false
	}
	return best.Entry, len(best.toks), true
}

// match returns the first (longest, then earliest) item of the kind set
// that prefixes tokens, or nil. all disables the kind filter.
func (t *table) match(tokens []string, set kindSet, all bool) *item {
	list := t.firstWord[tokens[0]]
	for i := range list {
		p := &list[i]
		if (!all && set&kindBit(p.Kind) == 0) || len(p.toks) > len(tokens) {
			continue
		}
		if slices.Equal(p.toks, tokens[:len(p.toks)]) {
			return p
		}
	}
	return nil
}

// Version returns the lexicon's mutation count. A caller that derives
// something from the lexicon compares it before and after to learn whether
// the lexicon changed meanwhile.
func (l *Lexicon) Version() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.version
}

// Fingerprint returns an exact name for everything the lexicon answers, and
// the Version it describes. Two lexicons get equal fingerprints only when
// every Lookup, MatchLongest and Entries call agrees between them: the same
// frozen base, and the same overlay entries (kind, phrase, canon and every
// meta field) in the same order among the equally long phrases of one head
// word, the order MatchLongest breaks ties by. The handle wraps the whole
// canonical listing, not a hash of it, so equal fingerprints never come from
// a collision. A lexicon that copied its base (flatten) is named by a
// process-unique id and its version instead, and equals no other lexicon.
// The listing is built once per version.
func (l *Lexicon) Fingerprint() (unique.Handle[string], uint64) {
	l.mu.RLock()
	fp, ok, v := l.fp, l.fpOK, l.version
	l.mu.RUnlock()
	if ok {
		return fp, v
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.fpOK {
		l.fp, l.fpOK = unique.Make(l.listing()), true
	}
	return l.fp, l.version
}

// listing is the canonical text behind Fingerprint; the caller holds mu.
func (l *Lexicon) listing() string {
	if l.solo != 0 {
		return "solo " + strconv.FormatUint(l.solo, 10) + " " + strconv.FormatUint(l.version, 10)
	}
	var b []byte
	if l.base != nil {
		// Default is the only constructor that sets a base, and it always
		// sets the one process-wide built-in table.
		b = append(b, "default\n"...)
	} else {
		b = append(b, "flat\n"...)
	}
	heads := make([]string, 0, len(l.own.firstWord))
	for head, list := range l.own.firstWord {
		if len(list) > 0 {
			heads = append(heads, head)
		}
	}
	slices.Sort(heads)
	var keys []string
	for _, head := range heads {
		for _, p := range l.own.firstWord[head] {
			b = strconv.AppendInt(b, int64(p.Kind), 10)
			b = append(b, ' ')
			b = strconv.AppendQuote(b, p.Phrase)
			b = append(b, ' ')
			b = strconv.AppendQuote(b, p.Canon)
			if p.Meta != nil { // an empty map and none read alike but dump apart
				keys = keys[:0]
				for k := range p.Meta {
					keys = append(keys, k)
				}
				slices.Sort(keys)
				b = append(b, " {"...)
				for _, k := range keys {
					b = append(b, ' ')
					b = strconv.AppendQuote(b, k)
					b = append(b, '=')
					b = strconv.AppendQuote(b, p.Meta[k])
				}
				b = append(b, '}')
			}
			b = append(b, '\n')
		}
	}
	return string(b)
}

// Entries returns all entries of a kind, sorted by phrase.
func (l *Lexicon) Entries(kind Kind) []Entry {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := []Entry{}
	for _, t := range l.layers() {
		for _, e := range t.byKind[kind] {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Phrase < out[j].Phrase })
	return out
}

// DefineCondWord registers a user-defined condition word (CondDef). The
// source is the CADEL condition expression text the word stands for.
func (l *Lexicon) DefineCondWord(name, source, owner string) error {
	return l.Add(Entry{
		Phrase: name,
		Kind:   KindCondWord,
		Meta:   map[string]string{MetaSource: source, MetaOwner: owner},
	})
}

// DefineConfWord registers a user-defined configuration word (ConfDef).
func (l *Lexicon) DefineConfWord(name, source, owner string) error {
	return l.Add(Entry{
		Phrase: name,
		Kind:   KindConfWord,
		Meta:   map[string]string{MetaSource: source, MetaOwner: owner},
	})
}

// lexiconJSON is the serialized form.
type lexiconJSON struct {
	Entries []Entry `json:"entries"`
}

// MarshalJSON serializes all entries of both layers, sorted by kind and then
// phrase.
func (l *Lexicon) MarshalJSON() ([]byte, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var doc lexiconJSON
	for _, t := range l.layers() {
		for _, km := range t.byKind {
			for _, e := range km {
				doc.Entries = append(doc.Entries, e)
			}
		}
	}
	sort.Slice(doc.Entries, func(i, j int) bool {
		a, b := doc.Entries[i], doc.Entries[j]
		return a.Kind < b.Kind || (a.Kind == b.Kind && a.Phrase < b.Phrase)
	})
	return json.Marshal(doc)
}

// UnmarshalJSON replaces the lexicon content, both layers, with the
// serialized entries.
func (l *Lexicon) UnmarshalJSON(data []byte) error {
	var doc lexiconJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		return err
	}
	l.mu.Lock()
	l.base, l.own, l.solo = nil, table{}, 0
	l.changed()
	l.mu.Unlock()
	for _, e := range doc.Entries {
		if err := l.Add(e); err != nil {
			return err
		}
	}
	return nil
}
