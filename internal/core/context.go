package core

import (
	"maps"
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

// slotStore is the interned store of one variable kind: dense values indexed
// by symbol id, with presence flags, the population (ids ever written, in
// first-write order) and the unqualified-name resolution cache. len(pop) is
// the resolution generation: it grows exactly when a new key appears, which
// is the only event that can change how an unqualified name resolves.
type slotStore[V any] struct {
	vals []V
	has  []bool
	pop  []uint32
	res  []resCache
}

// Context is the instantaneous world snapshot conditions are evaluated
// against. The rule execution engine maintains one Context and updates it
// from sensor events; Eval never mutates it.
//
// Numbers, booleans, user locations and arrival events live in one store,
// fixed when the context is made. A plain NewContext (the full-scan
// oracle's) keeps them in the string-keyed maps below. A NewInternedContext
// keeps them only in dense, symbol-id-indexed state, and its four maps stay
// nil: value slices with populations for numbers/booleans (NumberID/BoolID),
// location slots with reverse-index counters for presence quantifiers
// (AtID/AnyoneAtID/EveryoneAtID and friends) and keyed last-fired times with
// a per-event-name index for arrivals (HasEventKeyID/HasEventNameID). The
// evaluation hot path reads those with no map lookup, no map iteration, no
// string comparison and no allocation. Either kind is written through the
// setters (SetNumber/SetLocation/RecordEvent and friends) and read through
// the string-keyed readers (Number, At, HasEvent, ...); Clone renders either
// as a plain context.
type Context struct {
	// Now is the current simulation or wall-clock time.
	Now time.Time
	// Numbers holds numeric sensor readings keyed by variable name,
	// optionally location-qualified: "temperature" or
	// "living room/temperature". Nil on an interned context.
	Numbers map[string]float64
	// Bools holds boolean device/sensor states: "tv/power",
	// "entrance door/locked", "hall/dark". Nil on an interned context.
	Bools map[string]bool
	// Locations maps each user at home to the place they are in. A user
	// absent from it (or mapped to "") is away: SetLocation(user, "")
	// deletes the entry, as no reader tells a user set away from one never
	// seen, and Clone renders only users at home. Nil on an interned
	// context.
	Locations map[string]string
	// Users lists every registered user (needed by "everyone"/"nobody").
	Users []string
	// Events holds recent arrival events keyed by person + "|" + event name
	// ("alan|home-from-work") with the time the event fired. Nil on an
	// interned context.
	Events map[string]time.Time
	// EventTTL is how long an arrival event stays fresh. Zero means 5
	// minutes.
	EventTTL time.Duration
	// Programs lists the programmes currently on air.
	Programs []Program
	// Favorites maps a user to their registered favourite keywords, used by
	// "my favorite movie is on air". An interned context makes it on the
	// first SetFavorites.
	Favorites map[string][]string
	// Held maps a duration-condition key to the time its inner condition
	// most recently became true. Maintained by the engine; an interned
	// context makes it on the first MarkHeld.
	Held map[string]time.Time

	// tab, when non-nil, activates the interned store below.
	tab *Symtab

	// Interned numbers and booleans.
	nums  slotStore[float64]
	bools slotStore[bool]

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

// NewInternedContext returns an empty context backed by the symbol-indexed
// store, with unqualified-name resolution cached per population generation.
// Its Numbers, Bools, Locations and Events maps stay nil, and Favorites and
// Held stay nil until their first write.
func NewInternedContext(now time.Time, tab *Symtab) *Context {
	return &Context{Now: now, tab: tab}
}

// Symtab returns the symbol table backing the interned store, or nil for a
// purely string-keyed context.
func (c *Context) Symtab() *Symtab { return c.tab }

// Version counts data mutations applied through the setter methods. Now
// advances are excluded, so an idle engine's context keeps a stable version
// and observability snapshots can be cached.
func (c *Context) Version() uint64 { return c.ver }

// Clone returns a deep copy of the context as a plain string-keyed context,
// independent of the original and of the symbol table. It renders what the
// readers see: an interned context's maps are built from its id state, only
// users at home appear in Locations, and only fresh arrival events in Events
// (an expired one is invisible to every reader). Clones serve observability,
// migration export and tests.
func (c *Context) Clone() *Context {
	out := NewContext(c.Now)
	out.EventTTL = c.EventTTL
	if c.tab != nil {
		c.render(out)
	} else {
		maps.Copy(out.Numbers, c.Numbers)
		maps.Copy(out.Bools, c.Bools)
		maps.Copy(out.Locations, c.Locations)
		for key, at := range c.Events {
			if c.fresh(at) {
				out.Events[key] = at
			}
		}
	}
	out.Users = append(out.Users, c.Users...)
	out.Programs = append(out.Programs, c.Programs...)
	for k, v := range c.Favorites {
		out.Favorites[k] = append([]string(nil), v...)
	}
	maps.Copy(out.Held, c.Held)
	return out
}

// render fills out's maps from the interned store, naming every id through
// the symbol table.
func (c *Context) render(out *Context) {
	c.nums.render(c.tab, out.Numbers)
	c.bools.render(c.tab, out.Bools)
	for person, slot := range c.locVals {
		if slot != 0 {
			out.Locations[c.tab.Name(uint32(person))] = c.tab.Name(slot - 1)
		}
	}
	for _, keys := range c.evByName {
		for _, key := range keys {
			if c.fresh(c.evTimes[key]) {
				out.Events[c.tab.Name(key)] = c.evTimes[key]
			}
		}
	}
}

// ---- compaction (epoch/remap contract) ----

// MarkLive adds every symbol id the interned store holds to live: populated
// number/boolean slots, present persons and their places, the registered
// user ids, and fresh arrival keys with their event-name index ids.
// Persons recorded as away (slot 0) are deliberately not marked — every
// reader, Clone included, treats an unknown person and an away person
// identically — so unreferenced ids can be reclaimed.
//
// Arrival events are freshness-gated: an event older than the TTL is
// already invisible to every reader (HasEventKeyID and friends, and Clone,
// test freshness), so pinning its ids would regrow the event store without
// bound under event-name churn — the exact leak compaction exists to close.
// Expired events are therefore pruned from the store here, before their ids
// go unmarked. This assumes Now does not move backwards, like the rest of
// the engine's clock handling.
func (c *Context) MarkLive(live *IDSet) {
	if c.tab == nil {
		return
	}
	live.AddAll(c.nums.pop)
	live.AddAll(c.bools.pop)
	for person, slot := range c.locVals {
		if slot != 0 {
			live.Add(uint32(person))
			live.Add(slot - 1)
		}
	}
	live.AddAll(c.userIDs)
	pruned := false
	for name, keys := range c.evByName {
		kept := keys[:0]
		for _, key := range keys {
			if c.fresh(c.evTimes[key]) {
				kept = append(kept, key)
				live.Add(key)
				live.Add(uint32(name))
				continue
			}
			c.evHas[key] = false
			c.evTimes[key] = time.Time{}
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
// (MarkLive) or Remap panics on the DeadID sentinel. Names survive
// compaction, so Clone renders the same maps before and after.
func (c *Context) Remap(remap []uint32, newLen int) {
	if c.tab == nil {
		return
	}
	c.nums.remap(remap, newLen)
	c.bools.remap(remap, newLen)

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
		placeCount = grow(placeCount, int(ns-1))
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
		evByName = grow(evByName, int(nn))
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
	return len(c.nums.vals), len(c.bools.vals), len(c.locVals), len(c.evTimes)
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
	c.nums.set(id, v)
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
	c.bools.set(id, v)
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
	if place == "" {
		delete(c.Locations, person)
	} else {
		c.Locations[person] = place
	}
	c.ver++
}

// SetLocationID moves a user by interned person id (interned contexts only).
// slot is the interned place id plus one; 0 means away from home. The
// reverse-index counters are kept in step.
func (c *Context) SetLocationID(person, slot uint32) {
	c.locVals = grow(c.locVals, int(person))
	if old := c.locVals[person]; old != 0 {
		c.present--
		c.placeCount[old-1]--
	}
	if slot != 0 {
		c.placeCount = grow(c.placeCount, int(slot-1))
		c.present++
		c.placeCount[slot-1]++
	}
	c.locVals[person] = slot
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
	if c.Favorites == nil {
		c.Favorites = make(map[string][]string)
	}
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
	return resolveKey(c.Numbers, name)
}

// NumberID resolves a numeric variable by symbol id (interned contexts
// only), with the same qualification rules as Number.
func (c *Context) NumberID(id uint32) (float64, bool) { return c.nums.get(c.tab, id) }

// Bool resolves a boolean variable with the same qualification rules as
// Number.
func (c *Context) Bool(name string) (bool, bool) {
	if c.tab != nil {
		return c.BoolID(c.tab.Intern(name))
	}
	return resolveKey(c.Bools, name)
}

// resolveKey is the string-keyed resolution behind Number and Bool: an exact
// key wins, and an unqualified name takes the lexicographically smallest
// location-qualified key ending in "/name".
func resolveKey[V any](m map[string]V, name string) (V, bool) {
	if v, ok := m[name]; ok || strings.Contains(name, "/") {
		return v, ok
	}
	best, found, suffix := "", false, "/"+name
	for k := range m {
		if strings.HasSuffix(k, suffix) && (!found || k < best) {
			best, found = k, true
		}
	}
	var v V
	if found {
		v = m[best]
	}
	return v, found
}

// BoolID resolves a boolean variable by symbol id (interned contexts only).
func (c *Context) BoolID(id uint32) (bool, bool) { return c.bools.get(c.tab, id) }

// set stores v under id, growing the population on the id's first write.
func (s *slotStore[V]) set(id uint32, v V) {
	s.has, s.vals = grow(s.has, int(id)), grow(s.vals, int(id))
	if !s.has[id] {
		s.has[id] = true
		s.pop = append(s.pop, id)
	}
	s.vals[id] = v
}

// get resolves id with the qualification rules of Number. The steady-state
// cost is two slice indexes: an exact presence check, then the cached
// resolution for the current population generation.
func (s *slotStore[V]) get(tab *Symtab, id uint32) (V, bool) {
	if int(id) < len(s.has) && s.has[id] {
		return s.vals[id], true
	}
	gen := uint32(len(s.pop)) + 1
	var slot int32
	if int(id) < len(s.res) && s.res[id].gen == gen {
		slot = s.res[id].slot
	} else {
		slot = s.resolve(tab, id, gen)
	}
	if slot < 0 {
		var zero V
		return zero, false
	}
	return s.vals[slot], true
}

// resolve recomputes one unqualified-name resolution against the current
// population and caches it for the generation. It runs once per (name,
// generation): qualified names never suffix-match, unqualified names take
// the lexicographically smallest qualified entry, exactly like resolveKey.
func (s *slotStore[V]) resolve(tab *Symtab, id, gen uint32) int32 {
	s.res = grow(s.res, int(id))
	name := tab.Name(id)
	slot := int32(-1)
	if !strings.Contains(name, "/") {
		slot = tab.minSuffixMatch(s.pop, "/"+name)
	}
	s.res[id] = resCache{gen: gen, slot: slot}
	return slot
}

// remap rebuilds the store under a compaction remap (every populated id is
// live by construction), rewriting the population in place and dropping the
// resolution cache: cached slots reference old ids, and since the
// population is unchanged each name re-resolves once.
func (s *slotStore[V]) remap(remap []uint32, newLen int) {
	vals, has := make([]V, newLen), make([]bool, newLen)
	for i, id := range s.pop {
		nid := remap[id]
		vals[nid], has[nid] = s.vals[id], true
		s.pop[i] = nid
	}
	s.vals, s.has, s.res = vals, has, nil
}

// grow returns s extended with zero values so that index i is in range.
func grow[T any](s []T, i int) []T {
	if i < len(s) {
		return s
	}
	return append(s, make([]T, i+1-len(s))...)
}

// render writes every populated id's value into out under its name.
func (s *slotStore[V]) render(tab *Symtab, out map[string]V) {
	for _, id := range s.pop {
		out[tab.Name(id)] = s.vals[id]
	}
}

// ---- presence / events / EPG ----

// At reports whether the person is at the place. "home" matches any
// place.
func (c *Context) At(person, place string) bool {
	if c.tab != nil {
		p, ok := c.tab.Lookup(person)
		if !ok {
			return false
		}
		if place == "home" {
			return c.AtHomeID(p)
		}
		pl, ok := c.tab.Lookup(place)
		return ok && c.AtID(p, pl)
	}
	loc := c.Locations[person]
	return loc != "" && (place == "home" || loc == place)
}

// AnyoneAt reports whether at least one user is at the place.
func (c *Context) AnyoneAt(place string) bool {
	if c.tab != nil {
		if place == "home" {
			return c.AnyoneHome()
		}
		id, ok := c.tab.Lookup(place)
		return ok && c.AnyoneAtID(id)
	}
	for _, loc := range c.Locations {
		if loc != "" && (place == "home" || loc == place) {
			return true
		}
	}
	return false
}

// EveryoneAt reports whether every registered user is at the place. It is
// false when no users are registered.
func (c *Context) EveryoneAt(place string) bool {
	if c.tab != nil {
		if place == "home" {
			return c.EveryoneHome()
		}
		id, ok := c.tab.Lookup(place)
		return ok && c.EveryoneAtID(id)
	}
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
func (c *Context) EveryoneAtID(place uint32) bool { return c.everyone(place, false) }

// EveryoneHome reports whether every registered user is somewhere at home.
// False when no users are registered.
func (c *Context) EveryoneHome() bool { return c.everyone(0, true) }

// everyone reports whether every registered user is at the place, or at
// home at all when home is set. False when no users are registered.
func (c *Context) everyone(place uint32, home bool) bool {
	if len(c.userIDs) == 0 {
		return false
	}
	for _, u := range c.userIDs {
		if int(u) >= len(c.locVals) {
			return false
		}
		if v := c.locVals[u]; v == 0 || !home && v-1 != place {
			return false
		}
	}
	return true
}

// fresh reports whether an arrival event fired at the given time is still
// within the configured freshness window (5 minutes when EventTTL is zero).
func (c *Context) fresh(at time.Time) bool {
	ttl := c.EventTTL
	if ttl <= 0 {
		ttl = 5 * time.Minute
	}
	return c.Now.Sub(at) <= ttl
}

// HasEvent reports whether the arrival event fired recently for the person
// (or for anyone, when person is Someone).
func (c *Context) HasEvent(person, event string) bool {
	if c.tab != nil {
		if person == Someone {
			name, ok := c.tab.Lookup(EventDepKey(event))
			return ok && c.HasEventNameID(name)
		}
		key, ok := c.tab.Lookup(person + "|" + event)
		return ok && c.HasEventKeyID(key)
	}
	if person != Someone {
		at, ok := c.Events[person+"|"+event]
		return ok && c.fresh(at)
	}
	suffix := "|" + event
	for key, at := range c.Events {
		if strings.HasSuffix(key, suffix) && c.fresh(at) {
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
// and the event name's dependency id (interned contexts only). Steady-state
// re-fires of a known event allocate nothing.
func (c *Context) RecordEventID(key, name uint32) {
	c.evHas, c.evTimes = grow(c.evHas, int(key)), grow(c.evTimes, int(key))
	if !c.evHas[key] {
		c.evHas[key] = true
		c.evByName = grow(c.evByName, int(name))
		c.evByName[name] = append(c.evByName[name], key)
	}
	c.evTimes[key] = c.Now
	c.ver++
}

// HasEventKeyID reports whether the arrival event with the interned
// "person|event" key id fired recently (interned contexts only).
func (c *Context) HasEventKeyID(key uint32) bool {
	return int(key) < len(c.evHas) && c.evHas[key] && c.fresh(c.evTimes[key])
}

// HasEventNameID reports whether any person's arrival event with the given
// event-name dependency id fired recently (interned contexts only).
func (c *Context) HasEventNameID(name uint32) bool {
	if int(name) >= len(c.evByName) {
		return false
	}
	for _, key := range c.evByName[name] {
		if c.fresh(c.evTimes[key]) {
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
		if c.Held == nil {
			c.Held = make(map[string]time.Time)
		}
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
