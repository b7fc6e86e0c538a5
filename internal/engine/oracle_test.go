package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/conflict"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/registry"
	"repro/internal/simplex"
)

// enginePair runs two engine configurations over one shared rule database
// and priority table; every stimulus is applied to both so their fired logs
// and owner maps must stay identical. The suites pair the interned
// incremental evaluator against the full-scan oracle.
type enginePair struct {
	t     *testing.T
	db    *registry.DB
	tbl   *conflict.Table
	clock *fakeClock
	inc   *Engine
	full  *Engine
	step  int

	// apply overrides how an event stimulus reaches an engine (nil =
	// HandleDeviceEvent); wireApply routes one engine of the pair through
	// the wire decoder while the other keeps the map path.
	apply func(e *Engine, deviceType, name, location string, vars map[string]string)
}

func newEnginePair(t *testing.T) *enginePair {
	return newEnginePairOpts(t, nil, []Option{WithFullScan()})
}

func newEnginePairOpts(t *testing.T, incOpts, oracleOpts []Option) *enginePair {
	t.Helper()
	p := &enginePair{
		t:     t,
		db:    registry.New(),
		tbl:   conflict.NewTable(),
		clock: &fakeClock{now: time.Date(2005, 3, 7, 8, 0, 0, 0, time.UTC)},
	}
	p.inc = New(p.db, p.tbl, p.clock.Now, nil,
		append([]Option{WithEventTTL(30 * time.Minute)}, incOpts...)...)
	p.full = New(p.db, p.tbl, p.clock.Now, nil,
		append([]Option{WithEventTTL(30 * time.Minute)}, oracleOpts...)...)
	return p
}

func (p *enginePair) each(fn func(e *Engine)) {
	p.step++
	fn(p.inc)
	fn(p.full)
	p.check()
}

func (p *enginePair) event(deviceType, name, location string, vars map[string]string) {
	p.each(func(e *Engine) {
		if p.apply != nil {
			p.apply(e, deviceType, name, location, vars)
			return
		}
		e.HandleDeviceEvent(deviceType, name, location, vars)
	})
}

func (p *enginePair) advance(d time.Duration) {
	p.clock.advance(d)
	p.each(func(e *Engine) { e.Tick() })
}

func renderLog(log []Fired) []string {
	out := make([]string, len(log))
	for i, f := range log {
		sup := make([]string, len(f.Suppressed))
		for j, r := range f.Suppressed {
			sup[j] = r.ID
		}
		out[i] = fmt.Sprintf("%s %s sup=[%s] err=%v",
			f.Time.Format("01-02 15:04:05"), f.Rule.ID, strings.Join(sup, ","), f.Err)
	}
	return out
}

// check asserts both engines agree on the fired log and the owners map.
func (p *enginePair) check() {
	p.t.Helper()
	gotInc, gotFull := renderLog(p.inc.Log()), renderLog(p.full.Log())
	if !reflect.DeepEqual(gotInc, gotFull) {
		p.t.Fatalf("step %d: fired logs diverge\nincremental: %v\nfull scan:   %v",
			p.step, gotInc, gotFull)
	}
	if inc, full := p.inc.Owners(), p.full.Owners(); !reflect.DeepEqual(inc, full) {
		p.t.Fatalf("step %d: owners diverge\nincremental: %v\nfull scan:   %v", p.step, inc, full)
	}
}

// TestOracleEquivalenceScripted replays the paper's scenarios — threshold
// rules, presence, arrivals with TTL, time windows, duration holds, on-air
// matching and contextual priority hand-offs — on both evaluators.
func TestOracleEquivalenceScripted(t *testing.T) {
	runScriptedScenario(t, newEnginePair(t))
}

// runScriptedScenario drives the paper's scripted scenario over a pair.
func runScriptedScenario(t *testing.T, p *enginePair) {
	rules := []*core.Rule{
		{ID: "ac", Owner: "tom", Device: core.DeviceRef{Name: "air conditioner"},
			Action: core.Action{Verb: "turn-on"},
			Cond: &core.And{Terms: []core.Condition{
				&core.Compare{Var: "temperature", Op: simplex.GT, Value: 28},
				&core.Compare{Var: "humidity", Op: simplex.GT, Value: 60},
			}}},
		{ID: "lamp", Owner: "tom", Device: core.DeviceRef{Name: "floor lamp"},
			Action: core.Action{Verb: "turn-on"},
			Cond: &core.And{Terms: []core.Condition{
				&core.TimeWindow{FromMin: 22 * 60, ToMin: 6 * 60, Weekday: -1},
				&core.Presence{Person: "tom", Place: "living room"},
			}}},
		{ID: "tv-alan", Owner: "alan", Device: core.DeviceRef{Name: "tv"},
			Action: core.Action{Verb: "turn-on", Settings: map[string]core.Value{"channel": {IsNumber: true, Number: 1}}},
			Cond: &core.And{Terms: []core.Condition{
				&core.Presence{Person: "alan", Place: "living room"},
				&core.OnAir{Keyword: "baseball game"},
			}}},
		{ID: "tv-emily", Owner: "emily", Device: core.DeviceRef{Name: "tv"},
			Action: core.Action{Verb: "turn-on", Settings: map[string]core.Value{"channel": {IsNumber: true, Number: 3}}},
			Cond: &core.And{Terms: []core.Condition{
				&core.Presence{Person: "emily", Place: "living room"},
				&core.OnAir{Category: "movie", FavoriteOf: "emily"},
			}}},
		{ID: "alarm", Owner: "tom", Device: core.DeviceRef{Name: "alarm"},
			Action: core.Action{Verb: "turn-on"},
			Cond: &core.Duration{Key: "door-open-1h", Seconds: 3600,
				Inner: &core.BoolIs{Var: "entrance door/locked", Want: false}}},
		{ID: "off", Owner: "tom", Device: core.DeviceRef{Name: "fluorescent light"},
			Action: core.Action{Verb: "turn-off"},
			Cond:   &core.Nobody{Place: "home"}},
		{ID: "welcome", Owner: "alan", Device: core.DeviceRef{Name: "stereo"},
			Action: core.Action{Verb: "play"},
			Cond:   &core.Arrival{Person: "alan", Event: "home-from-work"}},
	}
	for _, r := range rules {
		if err := p.db.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	p.tbl.Set(conflict.Order{
		Device:        core.DeviceRef{Name: "tv"},
		Context:       &core.Arrival{Person: "emily", Event: "home-from-shopping"},
		ContextSource: "emily got home from shopping",
		Users:         []string{"emily", "alan", "tom"},
	})
	p.each(func(e *Engine) { e.SetUsers([]string{"tom", "alan", "emily"}) })
	p.each(func(e *Engine) { e.SetFavorites("emily", []string{"roman holiday"}) })

	game := device.EncodePrograms([]core.Program{{Title: "Tigers vs Giants", Category: "baseball game"}})
	gameAndMovie := device.EncodePrograms([]core.Program{
		{Title: "Tigers vs Giants", Category: "baseball game"},
		{Title: "Roman Holiday", Category: "movie", Keywords: []string{"roman holiday"}},
	})

	p.event(device.TypeThermometer, "thermometer", "living room", map[string]string{"temperature": "29"})
	p.event(device.TypeHygrometer, "hygrometer", "living room", map[string]string{"humidity": "65"})
	p.event(device.TypePresenceSensor, "presence sensor", "home", map[string]string{"presence-tom": "living room"})
	p.event(device.TypePresenceSensor, "presence sensor", "home", map[string]string{"presence-alan": "living room"})
	p.event(device.TypeEPGTuner, "epg tuner", "home", map[string]string{"programs": game})
	p.event(device.TypePresenceSensor, "presence sensor", "home",
		map[string]string{"presence-emily": "living room", "event": "emily|home-from-shopping|1"})
	p.event(device.TypeEPGTuner, "epg tuner", "home", map[string]string{"programs": gameAndMovie})
	p.event(device.TypeDoorLock, "entrance door", "entrance", map[string]string{"locked": "0"})
	p.advance(45 * time.Minute) // event TTL (30 min) lapses → TV back to alan
	p.advance(20 * time.Minute) // door open 65 min → alarm
	p.event(device.TypeEPGTuner, "epg tuner", "home", map[string]string{"programs": ""})
	p.event(device.TypePresenceSensor, "presence sensor", "home",
		map[string]string{"presence-tom": "", "presence-alan": "", "presence-emily": ""})
	p.event(device.TypePresenceSensor, "presence sensor", "home", map[string]string{"event": "alan|home-from-work|2"})
	p.advance(13 * time.Hour) // 22:05 next window; lamp needs tom back
	p.event(device.TypePresenceSensor, "presence sensor", "home", map[string]string{"presence-tom": "living room"})
	p.event(device.TypeDoorLock, "entrance door", "entrance", map[string]string{"locked": "1"})
	p.advance(2 * time.Hour)

	if len(p.inc.Log()) == 0 {
		t.Fatal("scenario fired nothing; test is vacuous")
	}
}

// TestOracleEquivalenceRandom drives both evaluators through randomized
// rule sets and shuffled event streams (several hundred events per seed)
// and asserts identical fired logs and owner maps after every stimulus.
func TestOracleEquivalenceRandom(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			runRandomScenario(t, newEnginePair(t), seed)
		})
	}
}

// runRandomScenario drives one randomized rule set and event stream (seeded)
// over a pair.
func runRandomScenario(t *testing.T, p *enginePair, seed int64) {
	people := []string{"tom", "alan", "emily"}
	places := []string{"living room", "kitchen", "hall", ""}
	rooms := []string{"living room", "kitchen", "hall"}
	events := []string{"home-from-work", "home-from-shopping"}
	devices := []string{"tv", "stereo", "air conditioner", "floor lamp", "alarm"}

	rng := rand.New(rand.NewSource(seed))

	randLeaf := func(i int) core.Condition {
		switch rng.Intn(7) {
		case 0:
			return &core.Compare{Var: rooms[rng.Intn(len(rooms))] + "/temperature",
				Op: simplex.GT, Value: float64(15 + rng.Intn(20))}
		case 1:
			return &core.Compare{Var: "humidity", Op: simplex.LT, Value: float64(40 + rng.Intn(40))}
		case 2:
			return &core.BoolIs{Var: "tv/power", Want: rng.Intn(2) == 0}
		case 3:
			return &core.Presence{Person: people[rng.Intn(len(people))], Place: rooms[rng.Intn(len(rooms))]}
		case 4:
			return &core.Arrival{Person: people[rng.Intn(len(people))], Event: events[rng.Intn(len(events))]}
		case 5:
			return &core.OnAir{Keyword: "baseball game"}
		default:
			return &core.Nobody{Place: "home"}
		}
	}
	randCond := func(i int) core.Condition {
		leaf := randLeaf(i)
		switch rng.Intn(5) {
		case 0:
			return &core.And{Terms: []core.Condition{leaf, randLeaf(i)}}
		case 1:
			return &core.Or{Terms: []core.Condition{leaf, randLeaf(i)}}
		case 2:
			return &core.And{Terms: []core.Condition{
				&core.TimeWindow{FromMin: rng.Intn(24 * 60), ToMin: rng.Intn(24 * 60), Weekday: -1}, leaf}}
		case 3:
			return &core.Duration{Key: fmt.Sprintf("hold-%d", i),
				Seconds: float64(60 * (1 + rng.Intn(90))), Inner: leaf}
		default:
			return leaf
		}
	}
	for i := 0; i < 40; i++ {
		r := &core.Rule{
			ID:     fmt.Sprintf("r%d", i),
			Owner:  people[rng.Intn(len(people))],
			Device: core.DeviceRef{Name: devices[rng.Intn(len(devices))]},
			Action: core.Action{Verb: "turn-on",
				Settings: map[string]core.Value{"channel": {IsNumber: true, Number: float64(i)}}},
			Cond: randCond(i),
		}
		if err := p.db.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	p.tbl.Set(conflict.Order{Device: core.DeviceRef{Name: "tv"}, Users: []string{"tom", "alan", "emily"}})
	p.tbl.Set(conflict.Order{
		Device:        core.DeviceRef{Name: "stereo"},
		Context:       &core.Arrival{Person: "emily", Event: "home-from-shopping"},
		ContextSource: "emily got home from shopping",
		Users:         []string{"emily", "tom", "alan"},
	})
	p.each(func(e *Engine) { e.SetUsers(people) })

	for step := 0; step < 400; step++ {
		switch rng.Intn(10) {
		case 0, 1:
			p.event(device.TypeThermometer, "thermometer", rooms[rng.Intn(len(rooms))],
				map[string]string{"temperature": fmt.Sprintf("%d", 10+rng.Intn(30))})
		case 2:
			p.event(device.TypeHygrometer, "hygrometer", rooms[rng.Intn(len(rooms))],
				map[string]string{"humidity": fmt.Sprintf("%d", 30+rng.Intn(60))})
		case 3, 4:
			p.event(device.TypePresenceSensor, "presence sensor", "home",
				map[string]string{"presence-" + people[rng.Intn(len(people))]: places[rng.Intn(len(places))]})
		case 5:
			who := people[rng.Intn(len(people))]
			p.event(device.TypePresenceSensor, "presence sensor", "home",
				map[string]string{"event": fmt.Sprintf("%s|%s|%d", who, events[rng.Intn(len(events))], step)})
		case 6:
			var progs []core.Program
			if rng.Intn(2) == 0 {
				progs = append(progs, core.Program{Title: "Tigers vs Giants", Category: "baseball game"})
			}
			p.event(device.TypeEPGTuner, "epg tuner", "home",
				map[string]string{"programs": device.EncodePrograms(progs)})
		case 7:
			p.event(device.TypeTV, "tv", "living room",
				map[string]string{"power": fmt.Sprintf("%d", rng.Intn(2))})
		case 8:
			p.advance(time.Duration(1+rng.Intn(40)) * time.Minute)
		default:
			if rng.Intn(4) == 0 {
				p.each(func(e *Engine) { e.SetFavorites("emily", []string{"roman holiday"}) })
			} else {
				p.advance(time.Duration(rng.Intn(90)) * time.Second)
			}
		}
	}
	if len(p.inc.Log()) < 10 {
		t.Fatalf("only %d firings over 400 events; stream too quiet to be convincing", len(p.inc.Log()))
	}
}

// TestOracleEquivalenceRuleChurn adds and removes rules mid-stream: the
// incremental engine must pick up additions (evaluate-once semantics for
// unconditional rules) and drop removed owners exactly like the oracle.
func TestOracleEquivalenceRuleChurn(t *testing.T) {
	runChurnScenario(t, newEnginePair(t))
}

// runChurnScenario adds, removes and re-registers rules mid-stream over a
// pair.
func runChurnScenario(t *testing.T, p *enginePair) {
	if err := p.db.Add(&core.Rule{
		ID: "a", Owner: "tom", Device: core.DeviceRef{Name: "tv"},
		Action: core.Action{Verb: "turn-on"},
		Cond:   &core.Compare{Var: "temperature", Op: simplex.GT, Value: 20},
	}); err != nil {
		t.Fatal(err)
	}
	p.event(device.TypeThermometer, "thermometer", "living room", map[string]string{"temperature": "25"})

	// An always-true rule registered later must fire once on the next pass.
	if err := p.db.Add(&core.Rule{
		ID: "b", Owner: "alan", Device: core.DeviceRef{Name: "stereo"},
		Action: core.Action{Verb: "play"}, Cond: core.Always{},
	}); err != nil {
		t.Fatal(err)
	}
	p.each(func(e *Engine) { e.Tick() })

	// Removing the TV rule while it owns the device: ownership lapses on
	// the next pass in both modes.
	if err := p.db.Remove("a"); err != nil {
		t.Fatal(err)
	}
	p.each(func(e *Engine) { e.Tick() })
	if owners := p.inc.Owners(); owners["tv"] != "" {
		t.Fatalf("owners = %v, want tv released after rule removal", owners)
	}

	// A replacement rule for the same device takes over.
	if err := p.db.Add(&core.Rule{
		ID: "c", Owner: "emily", Device: core.DeviceRef{Name: "tv"},
		Action: core.Action{Verb: "turn-on"},
		Cond:   &core.Compare{Var: "temperature", Op: simplex.GT, Value: 10},
	}); err != nil {
		t.Fatal(err)
	}
	p.each(func(e *Engine) { e.Tick() })
	if owners := p.inc.Owners(); owners["tv"] != "c" {
		t.Fatalf("owners = %v, want tv owned by replacement rule", owners)
	}

	// Remove and re-register the same ID with a different condition and
	// device between passes: the engine must evict the stale cached rule
	// and evaluate the replacement, like the oracle does.
	if err := p.db.Remove("c"); err != nil {
		t.Fatal(err)
	}
	if err := p.db.Add(&core.Rule{
		ID: "c", Owner: "emily", Device: core.DeviceRef{Name: "lamp"},
		Action: core.Action{Verb: "turn-on"},
		Cond:   &core.Compare{Var: "temperature", Op: simplex.LT, Value: 100},
	}); err != nil {
		t.Fatal(err)
	}
	p.each(func(e *Engine) { e.Tick() })
	owners := p.inc.Owners()
	if owners["tv"] != "" || owners["lamp"] != "c" {
		t.Fatalf("owners = %v, want tv released and lamp owned by re-registered rule", owners)
	}
}
