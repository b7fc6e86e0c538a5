package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/simplex"
)

func TestSymtabInternRoundTrip(t *testing.T) {
	tab := NewSymtab()
	names := []string{"temperature", "living room/temperature", "tv/power", "", "a/b/c"}
	ids := make([]uint32, len(names))
	for i, n := range names {
		ids[i] = tab.Intern(n)
	}
	for i, n := range names {
		if got := tab.Intern(n); got != ids[i] {
			t.Errorf("Intern(%q) unstable: %d then %d", n, ids[i], got)
		}
		if got := tab.Name(ids[i]); got != n {
			t.Errorf("Name(%d) = %q, want %q", ids[i], got, n)
		}
		if got, ok := tab.Lookup(n); !ok || got != ids[i] {
			t.Errorf("Lookup(%q) = %d,%v, want %d,true", n, got, ok, ids[i])
		}
	}
	// Dense and collision-free: ids are exactly 0..len-1.
	seen := make(map[uint32]bool)
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("id %d assigned twice", id)
		}
		seen[id] = true
		if int(id) >= len(names) {
			t.Fatalf("id %d not dense for %d names", id, len(names))
		}
	}
	if tab.Len() != len(names) {
		t.Fatalf("Len = %d, want %d", tab.Len(), len(names))
	}
	if _, ok := tab.Lookup("never-interned"); ok {
		t.Error("Lookup of never-interned name succeeded")
	}
}

// TestSymtabMatchesMapOracle runs seeded Intern, Lookup and Compact
// sequences against a plain map model. Names share long prefixes and most
// differ in one character, the index grows through several rehashes, and
// compactions renumber the table in between. Every id, Lookup answer, Name
// and Len must match the model.
func TestSymtabMatchesMapOracle(t *testing.T) {
	prefixes := []string{"num/living room/", "num/", "bool/kitchen/", "loc/", "event/", ""}
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			tab := NewSymtab()
			model := map[string]uint32{}
			var names []string // the model's id → name
			randName := func() string {
				return fmt.Sprintf("%s%d", prefixes[rng.Intn(len(prefixes))], rng.Intn(6000))
			}
			check := func(step int, name string) {
				t.Helper()
				got, ok := tab.Lookup(name)
				want, wok := model[name]
				if ok != wok || got != want {
					t.Fatalf("step %d: Lookup(%q) = %d,%v, model %d,%v", step, name, got, ok, want, wok)
				}
			}
			rehashes, compactions := 0, 0
			for step := 0; step < 20000; step++ {
				switch op := rng.Intn(1000); {
				case op < 600:
					name := randName()
					size := len(tab.index)
					id := tab.Intern(name)
					if len(tab.index) != size {
						rehashes++
					}
					want, ok := model[name]
					if !ok {
						want = uint32(len(names))
						model[name] = want
						names = append(names, name)
					}
					if id != want {
						t.Fatalf("step %d: Intern(%q) = %d, model %d", step, name, id, want)
					}
				case op < 999:
					check(step, randName())
				default:
					// Keep about seven names in eight; the model renumbers
					// the kept ones densely in their old order.
					var live IDSet
					var kept []string
					for id, name := range names {
						if rng.Intn(8) > 0 {
							live.Add(uint32(id))
							kept = append(kept, name)
						}
					}
					remap, _ := tab.Compact(&live)
					clear(model)
					for id, name := range kept {
						model[name] = uint32(id)
					}
					next := uint32(0)
					for id := range names {
						want := DeadID
						if live.Has(uint32(id)) {
							want, next = next, next+1
						}
						if remap[id] != want {
							t.Fatalf("step %d: remap[%d] = %d, want %d", step, id, remap[id], want)
						}
					}
					for _, name := range names {
						check(step, name)
					}
					names = kept
					compactions++
				}
			}
			if tab.Len() != len(names) {
				t.Fatalf("Len = %d, model %d", tab.Len(), len(names))
			}
			for id, name := range names {
				if got := tab.Name(uint32(id)); got != name {
					t.Fatalf("Name(%d) = %q, model %q", id, got, name)
				}
				check(-1, name)
			}
			if rehashes < 3 || compactions == 0 {
				t.Fatalf("%d rehashes and %d compactions, want at least 3 and 1", rehashes, compactions)
			}
			t.Logf("%d names, %d rehashes, %d compactions", len(names), rehashes, compactions)
		})
	}
}

func TestIDSet(t *testing.T) {
	var s IDSet
	if s.Has(0) || s.Len() != 0 {
		t.Fatal("zero value not empty")
	}
	if !s.Add(3) || !s.Add(200) || !s.Add(64) {
		t.Fatal("fresh Add returned false")
	}
	if s.Add(3) {
		t.Fatal("duplicate Add returned true")
	}
	if !s.Has(3) || !s.Has(200) || !s.Has(64) || s.Has(4) || s.Has(1000) {
		t.Fatal("membership wrong")
	}
	if got := s.IDs(); len(got) != 3 || got[0] != 3 || got[1] != 200 || got[2] != 64 {
		t.Fatalf("IDs = %v, want insertion order [3 200 64]", got)
	}
	if !s.IntersectsAny([]uint32{7, 64}) || s.IntersectsAny([]uint32{7, 9}) || s.IntersectsAny(nil) {
		t.Fatal("IntersectsAny wrong")
	}
	s.Reset()
	if s.Len() != 0 || s.Has(3) || s.Has(200) || s.Has(64) {
		t.Fatal("Reset left members behind")
	}
	if !s.Add(200) {
		t.Fatal("Add after Reset returned false")
	}
}

// contextPairT drives an interned context and a string-keyed reference
// through the same writes and asserts every read agrees.
type contextPairT struct {
	t   *testing.T
	in  *Context
	ref *Context
}

func newContextPair(t *testing.T) *contextPairT {
	now := time.Date(2005, 3, 7, 18, 0, 0, 0, time.UTC)
	return &contextPairT{t: t, in: NewInternedContext(now, NewSymtab()), ref: NewContext(now)}
}

func (p *contextPairT) setNumber(key string, v float64) {
	p.in.SetNumber(key, v)
	p.ref.SetNumber(key, v)
}

func (p *contextPairT) setBool(key string, v bool) {
	p.in.SetBool(key, v)
	p.ref.SetBool(key, v)
}

func (p *contextPairT) checkNumber(name string) {
	p.t.Helper()
	gv, gok := p.in.Number(name)
	wv, wok := p.ref.Number(name)
	if gv != wv || gok != wok {
		p.t.Errorf("Number(%q): interned = %v,%v, string-keyed = %v,%v", name, gv, gok, wv, wok)
	}
}

func (p *contextPairT) checkBool(name string) {
	p.t.Helper()
	gv, gok := p.in.Bool(name)
	wv, wok := p.ref.Bool(name)
	if gv != wv || gok != wok {
		p.t.Errorf("Bool(%q): interned = %v,%v, string-keyed = %v,%v", name, gv, gok, wv, wok)
	}
}

// TestInternedResolutionCacheInvalidation is the heart of the symtab design:
// an unqualified name's resolution is cached per key-population generation,
// so interning (writing) a new qualified key mid-stream must invalidate it —
// including when the new key sorts before the previously resolved one, and
// when an exact unqualified key later appears and takes precedence.
func TestInternedResolutionCacheInvalidation(t *testing.T) {
	p := newContextPair(t)

	// No keys yet: unresolved (and the miss itself gets cached).
	p.checkNumber("temperature")

	// One qualified key: suffix match.
	p.setNumber("kitchen/temperature", 21)
	p.checkNumber("temperature")

	// Re-read (cache hit) then write a key that sorts BEFORE the cached
	// resolution: the cache must recompute, not keep kitchen.
	p.checkNumber("temperature")
	p.setNumber("bedroom/temperature", 17)
	p.checkNumber("temperature")
	if v, ok := p.in.Number("temperature"); !ok || v != 17 {
		t.Fatalf("Number(temperature) = %v,%v, want bedroom's 17 (sorted-first)", v, ok)
	}

	// A key sorting after the current winner: resolution must NOT change.
	p.setNumber("lounge/temperature", 30)
	p.checkNumber("temperature")

	// Value updates without population growth keep the cache valid but must
	// read the fresh value.
	p.setNumber("bedroom/temperature", 18)
	p.checkNumber("temperature")
	if v, _ := p.in.Number("temperature"); v != 18 {
		t.Fatalf("stale value %v after in-place update", v)
	}

	// An exact unqualified key wins over any suffix match.
	p.setNumber("temperature", 99)
	p.checkNumber("temperature")
	if v, _ := p.in.Number("temperature"); v != 99 {
		t.Fatalf("exact key did not win: %v", v)
	}

	// Qualified queries never suffix-match.
	p.checkNumber("hall/temperature")
	p.setNumber("annex/hall/temperature", 5)
	p.checkNumber("hall/temperature")

	// Booleans follow the same rules through their own namespace.
	p.checkBool("power")
	p.setBool("tv/power", true)
	p.checkBool("power")
	p.setBool("stereo/power", false)
	p.checkBool("power") // stereo sorts after tv? "stereo" < "tv": winner flips
	p.setBool("power", true)
	p.checkBool("power")

	// The two namespaces are independent: a numeric "power" must not shadow
	// the boolean one.
	p.setNumber("amp/power", 7)
	p.checkBool("power")
	p.checkNumber("power")
}

// TestInternedContextMatchesStringKeyed sweeps a larger deterministic write/
// read mix through both backends.
func TestInternedContextMatchesStringKeyed(t *testing.T) {
	p := newContextPair(t)
	rooms := []string{"living room", "kitchen", "hall", "bedroom", "annex"}
	vars := []string{"temperature", "humidity", "illuminance"}
	for i := 0; i < 200; i++ {
		room := rooms[i%len(rooms)]
		v := vars[(i/3)%len(vars)]
		if i%7 == 0 {
			p.setNumber(v, float64(i)) // unqualified exact write
		} else {
			p.setNumber(room+"/"+v, float64(i))
		}
		if i%5 == 0 {
			p.setBool(room+"/dark", i%2 == 0)
		}
		for _, q := range vars {
			p.checkNumber(q)
			p.checkNumber(room + "/" + q)
		}
		p.checkBool("dark")
		p.checkBool(room + "/dark")
	}
	// The interned context renders the same map view as the reference.
	in := p.in.Clone()
	for k, v := range p.ref.Numbers {
		if got, ok := in.Numbers[k]; !ok || got != v {
			t.Fatalf("interned Numbers[%q] = %v,%v, want %v", k, got, ok, v)
		}
	}
	if len(in.Numbers) != len(p.ref.Numbers) || len(in.Bools) != len(p.ref.Bools) {
		t.Fatal("map views diverged in size")
	}
}

// TestBindEquivalence evaluates bound and unbound trees over the same
// interned context and requires identical results, strings and vars.
func TestBindEquivalence(t *testing.T) {
	tab := NewSymtab()
	ctx := NewInternedContext(time.Date(2005, 3, 7, 23, 0, 0, 0, time.UTC), tab)
	ctx.SetNumber("living room/temperature", 30)
	ctx.SetBool("tv/power", true)
	ctx.SetLocation("tom", "living room")
	ctx.SetUsers([]string{"tom"})
	ctx.RecordEvent("tom", "home-from-work")

	conds := []Condition{
		&Compare{Var: "temperature", Op: simplex.GT, Value: 28},
		&Compare{Var: "living room/temperature", Op: simplex.GT, Value: 28},
		&Compare{Var: "basement/temperature", Op: simplex.GT, Value: 28},
		&BoolIs{Var: "power", Want: true},
		&BoolIs{Var: "tv/power", Want: false},
		&Arrival{Person: "tom", Event: "home-from-work"},
		&Arrival{Person: Someone, Event: "home-from-work"},
		&Arrival{Person: "emily", Event: "home-from-work"},
		&And{Terms: []Condition{
			&Compare{Var: "temperature", Op: simplex.GT, Value: 28},
			&Or{Terms: []Condition{
				&BoolIs{Var: "tv/power", Want: true},
				&Nobody{Place: "home"},
			}},
		}},
		&Duration{Key: "k", Seconds: 60, Inner: &BoolIs{Var: "tv/power", Want: true}},
		&TimeWindow{FromMin: 22 * 60, ToMin: 6 * 60, Weekday: -1},
		Always{},
	}
	for i, c := range conds {
		b := Bind(c, tab)
		if got, want := b.Eval(ctx), c.Eval(ctx); got != want {
			t.Errorf("cond %d (%s): bound = %v, unbound = %v", i, c, got, want)
		}
		if got, want := b.String(), c.String(); got != want {
			t.Errorf("cond %d: String diverged: %q vs %q", i, got, want)
		}
		if got, want := fmt.Sprint(b.Vars(nil)), fmt.Sprint(c.Vars(nil)); got != want {
			t.Errorf("cond %d: Vars diverged: %s vs %s", i, got, want)
		}
		bd, cd := CondDeps(b), CondDeps(c)
		if fmt.Sprint(bd.SortedKeys()) != fmt.Sprint(cd.SortedKeys()) || bd.Time != cd.Time || bd.Unknown != cd.Unknown {
			t.Errorf("cond %d: deps diverged: %v/%v/%v vs %v/%v/%v",
				i, bd.SortedKeys(), bd.Time, bd.Unknown, cd.SortedKeys(), cd.Time, cd.Unknown)
		}
	}
}

func TestCollectHolds(t *testing.T) {
	inner := &Duration{Key: "inner", Seconds: 5, Inner: Always{}}
	outer := &And{Terms: []Condition{
		&Duration{Key: "outer", Seconds: 10, Inner: inner},
		&Or{Terms: []Condition{&Duration{Key: "or-branch", Seconds: 1, Inner: Always{}}}},
	}}
	holds := CollectHolds(outer)
	if len(holds) != 3 {
		t.Fatalf("CollectHolds found %d nodes, want 3", len(holds))
	}
	keys := map[string]bool{}
	for _, d := range holds {
		keys[d.Key] = true
	}
	for _, k := range []string{"inner", "outer", "or-branch"} {
		if !keys[k] {
			t.Errorf("missing hold %q", k)
		}
	}
	if CollectHolds(Always{}) != nil {
		t.Error("CollectHolds(Always) should be nil")
	}
}

// TestDepSetIDsIn checks the compiled dependency form: sorted, deduplicated,
// stable across calls against the same table.
func TestDepSetIDsIn(t *testing.T) {
	tab := NewSymtab()
	cond := &And{Terms: []Condition{
		&Compare{Var: "temperature", Op: simplex.GT, Value: 1},
		&BoolIs{Var: "tv/power", Want: true},
		&Compare{Var: "temperature", Op: simplex.GT, Value: 2}, // duplicate key
	}}
	ids := CondDeps(cond).IDsIn(tab)
	if len(ids) != 2 {
		t.Fatalf("IDsIn = %v, want 2 distinct ids", ids)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("IDsIn not sorted: %v", ids)
		}
	}
	again := CondDeps(cond).IDsIn(tab)
	if fmt.Sprint(again) != fmt.Sprint(ids) {
		t.Fatalf("IDsIn unstable: %v vs %v", again, ids)
	}
	if CondDeps(Always{}).IDsIn(tab) != nil {
		t.Error("empty dep set should produce nil ids")
	}
}
