package core

import (
	"sort"
	"strings"
	"time"
)

// Someone is the wildcard person used by conditions like "someone returns
// home".
const Someone = "*"

// Program is a broadcast programme currently on air, as reported by the EPG
// sensor.
type Program struct {
	Title    string
	Category string   // "movie", "baseball game", "news", ...
	Keywords []string // free-form keywords ("yankees", "roman holiday")
}

// resCache is one unqualified-name resolution result: the symbol id the name
// resolved to (-1 for "no match") and the key-population generation the
// result was computed at. An entry is valid while the population has not
// grown since; gen is 1-based so the zero value is always invalid.
type resCache struct {
	gen  uint32
	slot int32
}

// Context is the instantaneous world snapshot conditions are evaluated
// against. The rule execution engine maintains one Context and updates it
// from sensor events; Eval never mutates it.
//
// Numeric and boolean variables — and, since the presence/event interning,
// user locations and arrival events — have two representations. The
// string-keyed maps (Numbers, Bools, Locations, Events) are always truthful
// and serve observability, cloning and the full-scan oracle (which runs on a
// plain NewContext). A context built with NewInternedContext additionally keeps dense,
// symbol-id-indexed stores: value slices with presence tracking for
// numbers/booleans (NumberID/BoolID), location slots with reverse-index
// counters for presence quantifiers (AtID/AnyoneAtID/EveryoneAtID and
// friends) and keyed last-fired times with a per-event-name index for
// arrivals (HasEventKeyID/HasEventNameID) — the evaluation hot path reads
// those with no map lookup, no map iteration, no string comparison and no
// allocation. Interned contexts must be written through the setter methods
// (SetNumber/SetLocation/RecordEvent and friends) so both representations
// stay in step.
type Context struct {
	// Now is the current simulation or wall-clock time.
	Now time.Time
	// Numbers holds numeric sensor readings keyed by variable name,
	// optionally location-qualified: "temperature" or
	// "living room/temperature".
	Numbers map[string]float64
	// Bools holds boolean device/sensor states: "tv/power",
	// "entrance door/locked", "hall/dark".
	Bools map[string]bool
	// Locations maps each user to the place they are currently in; absent or
	// empty means away from home.
	Locations map[string]string
	// Users lists every registered user (needed by "everyone"/"nobody").
	Users []string
	// Events holds recent arrival events keyed by person + "|" + event name
	// ("alan|home-from-work") with the time the event fired.
	Events map[string]time.Time
	// EventTTL is how long an arrival event stays fresh. Zero means 5
	// minutes.
	EventTTL time.Duration
	// Programs lists the programmes currently on air.
	Programs []Program
	// Favorites maps a user to their registered favourite keywords, used by
	// "my favorite movie is on air".
	Favorites map[string][]string
	// Held maps a duration-condition key to the time its inner condition
	// most recently became true. Maintained by the engine.
	Held map[string]time.Time

	// tab, when non-nil, activates the interned store below.
	tab *Symtab

	// Dense value arrays indexed by symbol id, with presence flags and the
	// population (ids ever written, in first-write order). len(pop) is the
	// resolution generation: it grows exactly when a new key appears, which
	// is the only event that can change how an unqualified name resolves.
	numVals []float64
	numHas  []bool
	numPop  []uint32
	numRes  []resCache

	boolVals []bool
	boolHas  []bool
	boolPop  []uint32
	boolRes  []resCache

	// Interned presence store: each person's location as a dense
	// person-id-indexed slice of place slots (interned place id plus one; 0 =
	// away from home), with an incrementally maintained reverse index — how
	// many persons are at each place and how many are home at all — so
	// quantified conditions ("nobody", "everyone", "someone at ...") read a
	// counter instead of iterating the Locations map.
	locVals    []uint32
	placeCount []int32
	present    int
	userIDs    []uint32

	// Interned arrival-event store: last-fired times indexed by the interned
	// "person|event" key id, plus a per-event-name index (keyed by the
	// event's dependency id) listing every key ever recorded under that name,
	// so "someone <event>" scans a short id list instead of the Events map.
	evTimes  []time.Time
	evHas    []bool
	evByName [][]uint32

	// ver counts data mutations (not Now advances); the engine uses it to
	// cache read-only snapshots for observability.
	ver uint64
}

// NewContext returns an empty string-keyed context at the given time.
func NewContext(now time.Time) *Context {
	return &Context{
		Now:       now,
		Numbers:   make(map[string]float64),
		Bools:     make(map[string]bool),
		Locations: make(map[string]string),
		Events:    make(map[string]time.Time),
		Favorites: make(map[string][]string),
		Held:      make(map[string]time.Time),
	}
}

// NewInternedContext returns an empty context whose numeric and boolean
// variables are additionally backed by the symbol-indexed slice store, with
// unqualified-name resolution cached per population generation.
func NewInternedContext(now time.Time, tab *Symtab) *Context {
	c := NewContext(now)
	c.tab = tab
	return c
}

// Symtab returns the symbol table backing the interned store, or nil for a
// purely string-keyed context.
func (c *Context) Symtab() *Symtab { return c.tab }

// Version counts data mutations applied through the setter methods. Now
// advances are excluded, so an idle engine's context keeps a stable version
// and observability snapshots can be cached.
func (c *Context) Version() uint64 { return c.ver }

// Clone returns a deep copy of the context. The copy is always string-keyed
// (the dense arrays are an evaluation-path acceleration; clones serve
// observability and tests), so it is fully independent of the original and
// of the symbol table.
func (c *Context) Clone() *Context {
	out := NewContext(c.Now)
	out.EventTTL = c.EventTTL
	for k, v := range c.Numbers {
		out.Numbers[k] = v
	}
	for k, v := range c.Bools {
		out.Bools[k] = v
	}
	for k, v := range c.Locations {
		out.Locations[k] = v
	}
	out.Users = append(out.Users, c.Users...)
	for k, v := range c.Events {
		out.Events[k] = v
	}
	out.Programs = append(out.Programs, c.Programs...)
	for k, v := range c.Favorites {
		out.Favorites[k] = append([]string(nil), v...)
	}
	for k, v := range c.Held {
		out.Held[k] = v
	}
	return out
}

// ---- compaction (epoch/remap contract) ----

// MarkLive adds every symbol id the interned store holds to live: populated
// number/boolean slots, present persons and their places, the registered
// user ids, and fresh arrival keys with their event-name index ids.
// Persons recorded as away (slot 0) are deliberately not marked — the
// id-indexed readers treat an unknown person and an away person
// identically, and the string-keyed Locations map stays truthful either
// way — so unreferenced ids can be reclaimed.
//
// Arrival events are freshness-gated: an event older than the TTL is
// already invisible to every reader (HasEventKeyID and friends test
// freshness), so pinning its ids would regrow the event store without bound
// under event-name churn — the exact leak compaction exists to close.
// Expired events are therefore pruned here, from the id store and the
// Events map alike, before their ids go unmarked. This assumes Now does not
// move backwards, like the rest of the engine's clock handling.
func (c *Context) MarkLive(live *IDSet) {
	if c.tab == nil {
		return
	}
	live.AddAll(c.numPop)
	live.AddAll(c.boolPop)
	for person, slot := range c.locVals {
		if slot != 0 {
			live.Add(uint32(person))
			live.Add(slot - 1)
		}
	}
	live.AddAll(c.userIDs)
	ttl := c.eventTTL()
	pruned := false
	for name, keys := range c.evByName {
		kept := keys[:0]
		for _, key := range keys {
			if c.Now.Sub(c.evTimes[key]) <= ttl {
				kept = append(kept, key)
				live.Add(key)
				live.Add(uint32(name))
				continue
			}
			c.evHas[key] = false
			c.evTimes[key] = time.Time{}
			delete(c.Events, c.tab.Name(key))
			pruned = true
		}
		c.evByName[name] = kept
	}
	if pruned {
		c.ver++
	}
}

// Remap rewrites the interned store for a compaction epoch: every id-indexed
// slice is rebuilt under the new numbering (newLen = the compacted symtab
// length) and the per-generation resolution caches are dropped (cached slots
// reference old ids; the populations are unchanged, so the next read of each
// name recomputes once). Every id the store holds must have been marked live
// (MarkLive) or Remap panics on the DeadID sentinel — by contract the string
// maps are untouched, so observability and clones see no change.
func (c *Context) Remap(remap []uint32, newLen int) {
	if c.tab == nil {
		return
	}
	// Numbers / booleans: rebuild the dense value arrays; the populations
	// remap in place (populated slots are live by construction).
	numVals, numHas := make([]float64, newLen), make([]bool, newLen)
	for i, id := range c.numPop {
		nid := remap[id]
		numVals[nid], numHas[nid] = c.numVals[id], true
		c.numPop[i] = nid
	}
	c.numVals, c.numHas, c.numRes = numVals, numHas, nil
	boolVals, boolHas := make([]bool, newLen), make([]bool, newLen)
	for i, id := range c.boolPop {
		nid := remap[id]
		boolVals[nid], boolHas[nid] = c.boolVals[id], true
		c.boolPop[i] = nid
	}
	c.boolVals, c.boolHas, c.boolRes = boolVals, boolHas, nil

	// Presence: present persons move to their new ids; away persons whose
	// ids died are dropped (semantically identical for the id readers). The
	// reverse-index counters are rebuilt from the new slots.
	locVals := make([]uint32, newLen)
	placeCount := make([]int32, 0, len(c.placeCount))
	present := 0
	for person, slot := range c.locVals {
		if slot == 0 {
			continue // away: the new slot is zero whether the id lived or died
		}
		np, ns := remap[person], remap[slot-1]+1
		locVals[np] = ns
		for int(ns-1) >= len(placeCount) {
			placeCount = append(placeCount, 0)
		}
		placeCount[ns-1]++
		present++
	}
	c.locVals, c.placeCount, c.present = locVals, placeCount, present
	for i, u := range c.userIDs {
		c.userIDs[i] = remap[u]
	}

	// Arrival events: recorded keys move; the per-event-name index is
	// rebuilt under the new name ids.
	evTimes, evHas := make([]time.Time, newLen), make([]bool, newLen)
	evByName := make([][]uint32, 0, len(c.evByName))
	for name, keys := range c.evByName {
		if len(keys) == 0 {
			continue
		}
		nn := remap[name]
		for int(nn) >= len(evByName) {
			evByName = append(evByName, nil)
		}
		for _, key := range keys {
			nk := remap[key]
			evTimes[nk], evHas[nk] = c.evTimes[key], true
			evByName[nn] = append(evByName[nn], nk)
		}
	}
	c.evTimes, c.evHas, c.evByName = evTimes, evHas, evByName
}

// IDSliceLens reports the lengths of the interned store's id-indexed slices
// (numbers, booleans, locations, arrival events) for memory observability.
func (c *Context) IDSliceLens() (num, boolean, loc, ev int) {
	return len(c.numVals), len(c.boolVals), len(c.locVals), len(c.evTimes)
}

// ---- writes ----

// SetNumber stores a numeric reading under its full key.
func (c *Context) SetNumber(key string, v float64) {
	if c.tab != nil {
		c.SetNumberID(c.tab.Intern(key), v)
		return
	}
	c.Numbers[key] = v
	c.ver++
}

// SetNumberID stores a numeric reading by symbol id (interned contexts
// only). First sight of an id grows the key population, invalidating every
// cached unqualified-name resolution in this namespace.
func (c *Context) SetNumberID(id uint32, v float64) {
	for int(id) >= len(c.numHas) {
		c.numHas = append(c.numHas, false)
		c.numVals = append(c.numVals, 0)
	}
	if !c.numHas[id] {
		c.numHas[id] = true
		c.numPop = append(c.numPop, id)
	}
	c.numVals[id] = v
	c.Numbers[c.tab.Name(id)] = v
	c.ver++
}

// SetBool stores a boolean state under its full key.
func (c *Context) SetBool(key string, v bool) {
	if c.tab != nil {
		c.SetBoolID(c.tab.Intern(key), v)
		return
	}
	c.Bools[key] = v
	c.ver++
}

// SetBoolID stores a boolean state by symbol id (interned contexts only).
func (c *Context) SetBoolID(id uint32, v bool) {
	for int(id) >= len(c.boolHas) {
		c.boolHas = append(c.boolHas, false)
		c.boolVals = append(c.boolVals, false)
	}
	if !c.boolHas[id] {
		c.boolHas[id] = true
		c.boolPop = append(c.boolPop, id)
	}
	c.boolVals[id] = v
	c.Bools[c.tab.Name(id)] = v
	c.ver++
}

// SetLocation moves a user to a place ("" = away from home).
func (c *Context) SetLocation(person, place string) {
	if c.tab != nil {
		slot := uint32(0)
		if place != "" {
			slot = c.tab.Intern(place) + 1
		}
		c.SetLocationID(c.tab.Intern(person), slot)
		return
	}
	c.Locations[person] = place
	c.ver++
}

// SetLocationID moves a user by interned person id (interned contexts only).
// slot is the interned place id plus one; 0 means away from home. The
// reverse-index counters and the Locations map are kept in step.
func (c *Context) SetLocationID(person, slot uint32) {
	for int(person) >= len(c.locVals) {
		c.locVals = append(c.locVals, 0)
	}
	if old := c.locVals[person]; old != 0 {
		c.present--
		c.placeCount[old-1]--
	}
	if slot != 0 {
		for int(slot-1) >= len(c.placeCount) {
			c.placeCount = append(c.placeCount, 0)
		}
		c.present++
		c.placeCount[slot-1]++
	}
	c.locVals[person] = slot
	place := ""
	if slot != 0 {
		place = c.tab.Name(slot - 1)
	}
	c.Locations[c.tab.Name(person)] = place
	c.ver++
}

// SetUsers replaces the registered user list.
func (c *Context) SetUsers(users []string) {
	c.Users = append(c.Users[:0:0], users...)
	if c.tab != nil {
		c.userIDs = c.userIDs[:0]
		for _, u := range users {
			c.userIDs = append(c.userIDs, c.tab.Intern(u))
		}
	}
	c.ver++
}

// SetFavorites replaces one user's favourite keywords.
func (c *Context) SetFavorites(user string, keywords []string) {
	c.Favorites[user] = append([]string(nil), keywords...)
	c.ver++
}

// SetPrograms replaces the on-air programme list.
func (c *Context) SetPrograms(programs []Program) {
	c.Programs = programs
	c.ver++
}

// ---- numeric / boolean reads ----

// Number resolves a numeric variable. An exact key match wins; an
// unqualified name additionally matches a location-qualified entry when the
// suffix match is unique (sorted order breaks ties deterministically).
func (c *Context) Number(name string) (float64, bool) {
	if c.tab != nil {
		return c.NumberID(c.tab.Intern(name))
	}
	if v, ok := c.Numbers[name]; ok {
		return v, true
	}
	if strings.Contains(name, "/") {
		return 0, false
	}
	var keys []string
	suffix := "/" + name
	for k := range c.Numbers {
		if strings.HasSuffix(k, suffix) {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return 0, false
	}
	sort.Strings(keys)
	return c.Numbers[keys[0]], true
}

// NumberID resolves a numeric variable by symbol id (interned contexts
// only), with the same qualification rules as Number. The steady-state cost
// is two slice indexes: an exact presence check, then the cached resolution
// for the current population generation.
func (c *Context) NumberID(id uint32) (float64, bool) {
	if int(id) < len(c.numHas) && c.numHas[id] {
		return c.numVals[id], true
	}
	gen := uint32(len(c.numPop)) + 1
	if int(id) < len(c.numRes) {
		if rc := c.numRes[id]; rc.gen == gen {
			if rc.slot < 0 {
				return 0, false
			}
			return c.numVals[rc.slot], true
		}
	}
	slot := c.resolveSlow(id, gen, &c.numRes, c.numPop)
	if slot < 0 {
		return 0, false
	}
	return c.numVals[slot], true
}

// Bool resolves a boolean variable with the same qualification rules as
// Number.
func (c *Context) Bool(name string) (bool, bool) {
	if c.tab != nil {
		return c.BoolID(c.tab.Intern(name))
	}
	if v, ok := c.Bools[name]; ok {
		return v, true
	}
	if strings.Contains(name, "/") {
		return false, false
	}
	var keys []string
	suffix := "/" + name
	for k := range c.Bools {
		if strings.HasSuffix(k, suffix) {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return false, false
	}
	sort.Strings(keys)
	return c.Bools[keys[0]], true
}

// BoolID resolves a boolean variable by symbol id (interned contexts only).
func (c *Context) BoolID(id uint32) (bool, bool) {
	if int(id) < len(c.boolHas) && c.boolHas[id] {
		return c.boolVals[id], true
	}
	gen := uint32(len(c.boolPop)) + 1
	if int(id) < len(c.boolRes) {
		if rc := c.boolRes[id]; rc.gen == gen {
			if rc.slot < 0 {
				return false, false
			}
			return c.boolVals[rc.slot], true
		}
	}
	slot := c.resolveSlow(id, gen, &c.boolRes, c.boolPop)
	if slot < 0 {
		return false, false
	}
	return c.boolVals[slot], true
}

// resolveSlow recomputes one unqualified-name resolution against the current
// key population and caches it for the generation. It runs once per (name,
// generation): qualified names never suffix-match, unqualified names take
// the lexicographically smallest qualified entry, exactly like the
// string-keyed scan-and-sort.
func (c *Context) resolveSlow(id, gen uint32, cache *[]resCache, pop []uint32) int32 {
	for int(id) >= len(*cache) {
		*cache = append(*cache, resCache{})
	}
	name := c.tab.Name(id)
	slot := int32(-1)
	if !strings.Contains(name, "/") {
		slot = c.tab.minSuffixMatch(pop, "/"+name)
	}
	(*cache)[id] = resCache{gen: gen, slot: slot}
	return slot
}

// ---- presence / events / EPG ----

// At reports whether the person is at the place. "home" matches any
// non-empty location.
func (c *Context) At(person, place string) bool {
	loc, ok := c.Locations[person]
	if !ok || loc == "" {
		return false
	}
	if place == "home" {
		return true
	}
	return loc == place
}

// AnyoneAt reports whether at least one user is at the place.
func (c *Context) AnyoneAt(place string) bool {
	for person := range c.Locations {
		if c.At(person, place) {
			return true
		}
	}
	return false
}

// EveryoneAt reports whether every registered user is at the place. It is
// false when no users are registered.
func (c *Context) EveryoneAt(place string) bool {
	if len(c.Users) == 0 {
		return false
	}
	for _, person := range c.Users {
		if !c.At(person, place) {
			return false
		}
	}
	return true
}

// ---- interned presence reads (bound conditions; interned contexts only) ----
//
// The id-indexed readers mirror At/AnyoneAt/EveryoneAt exactly, reading the
// dense location slots and the reverse-index counters instead of the maps:
// no map iteration, no string comparison, no allocation.

// AtID reports whether the person (by interned id) is at the place (by
// interned id).
func (c *Context) AtID(person, place uint32) bool {
	if int(person) >= len(c.locVals) {
		return false
	}
	v := c.locVals[person]
	return v != 0 && v-1 == place
}

// AtHomeID reports whether the person (by interned id) is anywhere at home.
func (c *Context) AtHomeID(person uint32) bool {
	return int(person) < len(c.locVals) && c.locVals[person] != 0
}

// AnyoneAtID reports whether at least one person is at the place (by
// interned id).
func (c *Context) AnyoneAtID(place uint32) bool {
	return int(place) < len(c.placeCount) && c.placeCount[place] > 0
}

// AnyoneHome reports whether at least one person has a non-empty location.
func (c *Context) AnyoneHome() bool { return c.present > 0 }

// EveryoneAtID reports whether every registered user is at the place (by
// interned id). False when no users are registered.
func (c *Context) EveryoneAtID(place uint32) bool {
	if len(c.userIDs) == 0 {
		return false
	}
	for _, u := range c.userIDs {
		if int(u) >= len(c.locVals) {
			return false
		}
		v := c.locVals[u]
		if v == 0 || v-1 != place {
			return false
		}
	}
	return true
}

// EveryoneHome reports whether every registered user is somewhere at home.
// False when no users are registered.
func (c *Context) EveryoneHome() bool {
	if len(c.userIDs) == 0 {
		return false
	}
	for _, u := range c.userIDs {
		if int(u) >= len(c.locVals) || c.locVals[u] == 0 {
			return false
		}
	}
	return true
}

// eventTTL returns the configured freshness window.
func (c *Context) eventTTL() time.Duration {
	if c.EventTTL > 0 {
		return c.EventTTL
	}
	return 5 * time.Minute
}

// HasEvent reports whether the arrival event fired recently for the person
// (or for anyone, when person is Someone).
func (c *Context) HasEvent(person, event string) bool {
	if person != Someone {
		return c.HasEventKey(person + "|" + event)
	}
	return c.HasEventSuffix("|" + event)
}

// HasEventKey is HasEvent for a pre-built "person|event" key; bound arrival
// conditions use it to test freshness without rebuilding the key.
func (c *Context) HasEventKey(key string) bool {
	at, ok := c.Events[key]
	return ok && c.Now.Sub(at) <= c.eventTTL()
}

// HasEventSuffix reports whether any person's arrival event with the
// pre-built "|event" suffix fired recently.
func (c *Context) HasEventSuffix(suffix string) bool {
	for key, at := range c.Events {
		if strings.HasSuffix(key, suffix) && c.Now.Sub(at) <= c.eventTTL() {
			return true
		}
	}
	return false
}

// RecordEvent stores an arrival event at the current context time.
func (c *Context) RecordEvent(person, event string) {
	if c.tab != nil {
		c.RecordEventID(c.tab.Intern(person+"|"+event), c.tab.Intern(EventDepKey(event)))
		return
	}
	c.Events[person+"|"+event] = c.Now
	c.ver++
}

// RecordEventID stores an arrival event by its interned "person|event" key id
// and the event name's dependency id (interned contexts only). The Events map
// stays truthful; steady-state re-fires of a known event allocate nothing.
func (c *Context) RecordEventID(key, name uint32) {
	for int(key) >= len(c.evHas) {
		c.evHas = append(c.evHas, false)
		c.evTimes = append(c.evTimes, time.Time{})
	}
	if !c.evHas[key] {
		c.evHas[key] = true
		for int(name) >= len(c.evByName) {
			c.evByName = append(c.evByName, nil)
		}
		c.evByName[name] = append(c.evByName[name], key)
	}
	c.evTimes[key] = c.Now
	c.Events[c.tab.Name(key)] = c.Now
	c.ver++
}

// HasEventKeyID reports whether the arrival event with the interned
// "person|event" key id fired recently (interned contexts only).
func (c *Context) HasEventKeyID(key uint32) bool {
	return int(key) < len(c.evHas) && c.evHas[key] && c.Now.Sub(c.evTimes[key]) <= c.eventTTL()
}

// HasEventNameID reports whether any person's arrival event with the given
// event-name dependency id fired recently (interned contexts only).
func (c *Context) HasEventNameID(name uint32) bool {
	if int(name) >= len(c.evByName) {
		return false
	}
	for _, key := range c.evByName[name] {
		if c.Now.Sub(c.evTimes[key]) <= c.eventTTL() {
			return true
		}
	}
	return false
}

// OnAirMatch reports whether a programme matching the query is on air.
// A non-empty keyword matches the programme title, category or any keyword
// (case-insensitive). A non-empty category restricts by category, and a
// non-empty favoriteOf additionally requires one of that user's favourite
// keywords to appear among the programme's title or keywords.
func (c *Context) OnAirMatch(keyword, category, favoriteOf string) bool {
	for _, prog := range c.Programs {
		if category != "" && !strings.EqualFold(prog.Category, category) {
			continue
		}
		if keyword != "" && !programHasKeyword(prog, keyword) {
			continue
		}
		if favoriteOf != "" {
			found := false
			for _, fav := range c.Favorites[favoriteOf] {
				if programHasKeyword(prog, fav) {
					found = true
					break
				}
			}
			if !found {
				continue
			}
		}
		return true
	}
	return false
}

func programHasKeyword(p Program, kw string) bool {
	if strings.EqualFold(p.Category, kw) {
		return true
	}
	if strings.Contains(strings.ToLower(p.Title), strings.ToLower(kw)) {
		return true
	}
	for _, k := range p.Keywords {
		if strings.EqualFold(k, kw) {
			return true
		}
	}
	return false
}

// HeldSince returns when the duration-condition key last became true.
func (c *Context) HeldSince(key string) (time.Time, bool) {
	at, ok := c.Held[key]
	return at, ok
}

// MarkHeld records that the duration-condition key became true at the
// current time, unless already marked.
func (c *Context) MarkHeld(key string) {
	if _, ok := c.Held[key]; !ok {
		c.Held[key] = c.Now
		c.ver++
	}
}

// ClearHeld removes the held mark for the key.
func (c *Context) ClearHeld(key string) {
	if _, ok := c.Held[key]; ok {
		delete(c.Held, key)
		c.ver++
	}
}
