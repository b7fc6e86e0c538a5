package engine

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/conflict"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/lang"
	"repro/internal/registry"
	"repro/internal/simplex"
	"repro/internal/vocab"
)

// fakeClock is a trivial manual clock.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// recorder captures dispatched actions.
type recorder struct {
	mu      sync.Mutex
	applied []string
}

func (r *recorder) dispatch(ref core.DeviceRef, action core.Action) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.applied = append(r.applied, ref.Key()+" <- "+action.String())
	return nil
}

// dispatchEach wraps a per-action dispatch function in a batch dispatcher
// that applies a pass's fired actions one by one.
func dispatchEach(dispatch func(core.DeviceRef, core.Action) error) Option {
	return WithBatchDispatcher(func(batch []Fired) {
		for i := range batch {
			batch[i].Err = dispatch(batch[i].Rule.Device, batch[i].Rule.Action)
		}
	})
}

func (r *recorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.applied)
}

func (r *recorder) last() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.applied) == 0 {
		return ""
	}
	return r.applied[len(r.applied)-1]
}

func testEngine(t *testing.T) (*Engine, *registry.DB, *conflict.Table, *recorder, *fakeClock) {
	t.Helper()
	db := registry.New()
	tbl := conflict.NewTable()
	rec := &recorder{}
	clock := &fakeClock{now: time.Date(2005, 3, 7, 18, 0, 0, 0, time.UTC)}
	e := New(db, tbl, clock.Now, dispatchEach(rec.dispatch), WithEventTTL(4*time.Hour))
	return e, db, tbl, rec, clock
}

func compileRule(t *testing.T, src, id, owner string) *core.Rule {
	t.Helper()
	lex := vocab.Default()
	for _, p := range []string{"tom", "alan", "emily"} {
		if err := lex.Add(vocab.Entry{Phrase: p, Kind: vocab.KindPerson}); err != nil {
			t.Fatal(err)
		}
	}
	cmd, err := lang.Parse(src, lex)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	rule, err := core.NewCompiler(lex).CompileRule(cmd.(*lang.RuleDef), id, owner)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	return rule
}

func TestFiresOnSensorThreshold(t *testing.T) {
	e, db, _, rec, _ := testEngine(t)
	rule := compileRule(t,
		"If temperature is higher than 28 degrees and humidity is higher than 60 percent, "+
			"turn on the air conditioner with 25 degrees of temperature setting.", "r1", "tom")
	if err := db.Add(rule); err != nil {
		t.Fatal(err)
	}

	e.HandleDeviceEvent(device.TypeThermometer, "thermometer", "living room",
		map[string]string{"temperature": "29"})
	if rec.count() != 0 {
		t.Fatal("humidity not yet known; must not fire")
	}
	e.HandleDeviceEvent(device.TypeHygrometer, "hygrometer", "living room",
		map[string]string{"humidity": "65"})
	if rec.count() != 1 {
		t.Fatalf("applied = %v, want 1 firing", rec.applied)
	}
	// Re-delivering the same conditions does not re-fire (ownership stable).
	e.HandleDeviceEvent(device.TypeThermometer, "thermometer", "living room",
		map[string]string{"temperature": "30"})
	if rec.count() != 1 {
		t.Fatalf("applied = %v, want still 1", rec.applied)
	}
	// Condition lapses, then returns: fires again.
	e.HandleDeviceEvent(device.TypeThermometer, "thermometer", "living room",
		map[string]string{"temperature": "20"})
	e.HandleDeviceEvent(device.TypeThermometer, "thermometer", "living room",
		map[string]string{"temperature": "31"})
	if rec.count() != 2 {
		t.Fatalf("applied = %v, want 2 firings", rec.applied)
	}
}

func TestPresenceAndArrival(t *testing.T) {
	e, db, _, rec, _ := testEngine(t)
	if err := db.Add(compileRule(t,
		"If tom is in the living room, turn on the floor lamp.", "r1", "tom")); err != nil {
		t.Fatal(err)
	}
	if err := db.Add(compileRule(t,
		"If alan got home from work, turn on the tv.", "r2", "alan")); err != nil {
		t.Fatal(err)
	}

	e.HandleDeviceEvent(device.TypePresenceSensor, "presence sensor", "home",
		map[string]string{"presence-tom": "living room"})
	if rec.count() != 1 || rec.last() != "floor lamp <- turn-on" {
		t.Fatalf("applied = %v", rec.applied)
	}
	e.HandleDeviceEvent(device.TypePresenceSensor, "presence sensor", "home",
		map[string]string{"event": "alan|home-from-work|1"})
	if rec.count() != 2 || rec.last() != "tv <- turn-on" {
		t.Fatalf("applied = %v", rec.applied)
	}
}

func TestTimeWindowGating(t *testing.T) {
	e, db, _, rec, clock := testEngine(t)
	if err := db.Add(compileRule(t,
		"At night, if tom is in the living room, turn on the floor lamp.", "r1", "tom")); err != nil {
		t.Fatal(err)
	}
	// 18:00 is not night.
	e.HandleDeviceEvent(device.TypePresenceSensor, "presence sensor", "home",
		map[string]string{"presence-tom": "living room"})
	if rec.count() != 0 {
		t.Fatalf("applied = %v, want none at 18:00", rec.applied)
	}
	// 22:30 is night.
	clock.advance(4*time.Hour + 30*time.Minute)
	e.Tick()
	if rec.count() != 1 {
		t.Fatalf("applied = %v, want firing at 22:30", rec.applied)
	}
}

func TestDurationCondition(t *testing.T) {
	e, db, _, rec, clock := testEngine(t)
	if err := db.Add(compileRule(t,
		"If entrance door is unlocked for 1 hour, turn on the alarm.", "r1", "tom")); err != nil {
		t.Fatal(err)
	}
	e.HandleDeviceEvent(device.TypeDoorLock, "entrance door", "entrance",
		map[string]string{"locked": "0"})
	if rec.count() != 0 {
		t.Fatal("must not fire before the hold elapses")
	}
	clock.advance(30 * time.Minute)
	e.Tick()
	if rec.count() != 0 {
		t.Fatal("30 minutes is too early")
	}
	clock.advance(31 * time.Minute)
	e.Tick()
	if rec.count() != 1 {
		t.Fatalf("applied = %v, want alarm after 61 minutes", rec.applied)
	}
}

func TestDurationResetOnInterruption(t *testing.T) {
	e, db, _, rec, clock := testEngine(t)
	if err := db.Add(compileRule(t,
		"If entrance door is unlocked for 1 hour, turn on the alarm.", "r1", "tom")); err != nil {
		t.Fatal(err)
	}
	e.HandleDeviceEvent(device.TypeDoorLock, "entrance door", "entrance",
		map[string]string{"locked": "0"})
	clock.advance(40 * time.Minute)
	e.Tick()
	// Door re-locked: the hold resets.
	e.HandleDeviceEvent(device.TypeDoorLock, "entrance door", "entrance",
		map[string]string{"locked": "1"})
	clock.advance(30 * time.Minute)
	e.HandleDeviceEvent(device.TypeDoorLock, "entrance door", "entrance",
		map[string]string{"locked": "0"})
	clock.advance(40 * time.Minute)
	e.Tick()
	if rec.count() != 0 {
		t.Fatalf("applied = %v; hold must restart after interruption", rec.applied)
	}
	clock.advance(21 * time.Minute)
	e.Tick()
	if rec.count() != 1 {
		t.Fatalf("applied = %v, want alarm after uninterrupted hour", rec.applied)
	}
}

func TestPriorityHandoff(t *testing.T) {
	// Fig. 1's TV hand-off: Alan watches; Emily arrives with higher
	// priority in her context and takes the TV; when her movie ends the TV
	// returns to Alan.
	e, db, tbl, rec, _ := testEngine(t)
	alanRule := compileRule(t,
		"If alan is in the living room and a baseball game is on air, turn on the tv with 1 of channel setting.",
		"alan-tv", "alan")
	emilyRule := compileRule(t,
		"If emily is in the living room and my favorite movie is on air, turn on the tv with 3 of channel setting.",
		"emily-tv", "emily")
	for _, r := range []*core.Rule{alanRule, emilyRule} {
		if err := db.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	tbl.Set(conflict.Order{
		Device:        core.DeviceRef{Name: "tv"},
		Context:       &core.Arrival{Person: "emily", Event: "home-from-shopping"},
		ContextSource: "emily got home from shopping",
		Users:         []string{"emily", "alan", "tom"},
	})
	e.SetFavorites("emily", []string{"roman holiday"})
	e.SetUsers([]string{"tom", "alan", "emily"})

	// Alan in the room, game on air.
	e.HandleDeviceEvent(device.TypePresenceSensor, "presence sensor", "home",
		map[string]string{"presence-alan": "living room"})
	e.HandleDeviceEvent(device.TypeEPGTuner, "epg tuner", "home",
		map[string]string{"programs": device.EncodePrograms([]core.Program{
			{Title: "Tigers vs Giants", Category: "baseball game"},
		})})
	if rec.last() != "tv <- turn-on with channel=1" {
		t.Fatalf("applied = %v, want alan's tv rule", rec.applied)
	}

	// Emily arrives from shopping; her movie is on air.
	e.HandleDeviceEvent(device.TypePresenceSensor, "presence sensor", "home",
		map[string]string{"presence-emily": "living room", "event": "emily|home-from-shopping|1"})
	e.HandleDeviceEvent(device.TypeEPGTuner, "epg tuner", "home",
		map[string]string{"programs": device.EncodePrograms([]core.Program{
			{Title: "Tigers vs Giants", Category: "baseball game"},
			{Title: "Roman Holiday", Category: "movie", Keywords: []string{"roman holiday"}},
		})})
	if rec.last() != "tv <- turn-on with channel=3" {
		t.Fatalf("applied = %v, want emily's tv rule to win", rec.applied)
	}
	log := e.Log()
	lastFired := log[len(log)-1]
	if len(lastFired.Suppressed) != 1 || lastFired.Suppressed[0].Owner != "alan" {
		t.Errorf("suppressed = %v, want alan", lastFired.Suppressed)
	}

	// Movie ends: the TV goes back to Alan's rule.
	e.HandleDeviceEvent(device.TypeEPGTuner, "epg tuner", "home",
		map[string]string{"programs": device.EncodePrograms([]core.Program{
			{Title: "Tigers vs Giants", Category: "baseball game"},
		})})
	if rec.last() != "tv <- turn-on with channel=1" {
		t.Fatalf("applied = %v, want hand-back to alan", rec.applied)
	}
}

func TestNobodyCondition(t *testing.T) {
	e, db, _, rec, _ := testEngine(t)
	e.SetUsers([]string{"tom", "alan"})
	if err := db.Add(compileRule(t,
		"If nobody is at home, turn off the fluorescent light.", "r1", "tom")); err != nil {
		t.Fatal(err)
	}
	// Empty context: nobody home. SetUsers triggered a tick, and the add
	// happened after — tick now.
	e.Tick()
	if rec.count() != 1 || rec.last() != "fluorescent light <- turn-off" {
		t.Fatalf("applied = %v", rec.applied)
	}
	// Someone comes home: condition lapses; light keeps state (no un-do).
	e.HandleDeviceEvent(device.TypePresenceSensor, "presence sensor", "home",
		map[string]string{"presence-tom": "kitchen"})
	if rec.count() != 1 {
		t.Fatalf("applied = %v", rec.applied)
	}
	// Everyone leaves again: fires again.
	e.HandleDeviceEvent(device.TypePresenceSensor, "presence sensor", "home",
		map[string]string{"presence-tom": ""})
	if rec.count() != 2 {
		t.Fatalf("applied = %v", rec.applied)
	}
}

func TestDispatchErrorIsLogged(t *testing.T) {
	db := registry.New()
	clock := &fakeClock{now: time.Date(2005, 3, 7, 18, 0, 0, 0, time.UTC)}
	boom := func(core.DeviceRef, core.Action) error { return fmt.Errorf("device unreachable") }
	e := New(db, conflict.NewTable(), clock.Now, dispatchEach(boom))
	if err := db.Add(core.NewRule("r", "tom",
		core.DeviceRef{Name: "tv"},
		core.Action{Verb: "turn-on"},
		core.Always{})); err != nil {
		t.Fatal(err)
	}
	e.Tick()
	log := e.Log()
	if len(log) != 1 || log[0].Err == nil {
		t.Fatalf("log = %v, want one errored firing", log)
	}
	if log[0].String() == "" {
		t.Error("Fired.String empty")
	}
}

func TestOnFireCallback(t *testing.T) {
	db := registry.New()
	clock := &fakeClock{now: time.Date(2005, 3, 7, 18, 0, 0, 0, time.UTC)}
	var mu sync.Mutex
	var seen []string
	e := New(db, conflict.NewTable(), clock.Now, WithOnFire(func(f Fired) {
		mu.Lock()
		seen = append(seen, f.Rule.ID)
		mu.Unlock()
	}))
	if err := db.Add(core.NewRule("r", "t",
		core.DeviceRef{Name: "x"},
		core.Action{Verb: "turn-on"},
		core.Always{})); err != nil {
		t.Fatal(err)
	}
	e.Tick()
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 1 || seen[0] != "r" {
		t.Fatalf("seen = %v", seen)
	}
}

func TestEventTTLExpiry(t *testing.T) {
	db := registry.New()
	clock := &fakeClock{now: time.Date(2005, 3, 7, 18, 0, 0, 0, time.UTC)}
	rec := &recorder{}
	e := New(db, conflict.NewTable(), clock.Now, dispatchEach(rec.dispatch), WithEventTTL(10*time.Minute))
	if err := db.Add(core.NewRule("r", "alan",
		core.DeviceRef{Name: "tv"},
		core.Action{Verb: "turn-on"},
		&core.Arrival{Person: "alan", Event: "home-from-work"})); err != nil {
		t.Fatal(err)
	}
	e.HandleDeviceEvent(device.TypePresenceSensor, "presence sensor", "home",
		map[string]string{"event": "alan|home-from-work|1"})
	if rec.count() != 1 {
		t.Fatalf("applied = %v", rec.applied)
	}
	// After the TTL the arrival no longer holds; a fresh arrival re-fires.
	clock.advance(time.Hour)
	e.Tick()
	e.HandleDeviceEvent(device.TypePresenceSensor, "presence sensor", "home",
		map[string]string{"event": "alan|home-from-work|2"})
	if rec.count() != 2 {
		t.Fatalf("applied = %v, want re-fire after TTL", rec.applied)
	}
}

func TestContextSnapshotIsolation(t *testing.T) {
	e, _, _, _, _ := testEngine(t)
	e.HandleDeviceEvent(device.TypeThermometer, "thermometer", "living room",
		map[string]string{"temperature": "25"})
	snap := e.Context()
	snap.Numbers["living room/temperature"] = 99
	if v, _ := e.Context().Number("living room/temperature"); v != 25 {
		t.Error("snapshot mutation leaked into engine context")
	}
}

func TestAppliancesStateVisibleToRules(t *testing.T) {
	// Rules can observe appliance state ("if the tv is turned on").
	e, db, _, rec, _ := testEngine(t)
	if err := db.Add(core.NewRule("r", "tom",
		core.DeviceRef{Name: "stereo"},
		core.Action{Verb: "turn-off"},
		&core.BoolIs{Var: "tv/power", Want: true})); err != nil {
		t.Fatal(err)
	}
	e.HandleDeviceEvent(device.TypeTV, "tv", "living room", map[string]string{"power": "1"})
	if rec.count() != 1 || rec.last() != "stereo <- turn-off" {
		t.Fatalf("applied = %v", rec.applied)
	}
}

func TestCompareUnknownVarNeverFires(t *testing.T) {
	e, db, _, rec, _ := testEngine(t)
	if err := db.Add(core.NewRule("r", "tom",
		core.DeviceRef{Name: "fan"},
		core.Action{Verb: "turn-on"},
		&core.Compare{Var: "attic/radon", Op: simplex.GT, Value: 4})); err != nil {
		t.Fatal(err)
	}
	e.Tick()
	if rec.count() != 0 {
		t.Fatalf("applied = %v, want none for unknown sensor", rec.applied)
	}
}
