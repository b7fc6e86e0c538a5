// Package benchwork holds the workload builders of the root package's
// engine and fleet benchmarks, and of the allocation tests that gate the
// same loops, so a test and its benchmark measure the same rule sets and
// event streams.
//
// Three engine workload families, named as NewEngineWorkload takes them,
// reproduce the paper's example-rule shapes:
//
//   - engine_evaluate(_firing) — Example Rule 1: rule 0 reads the
//     unqualified "temperature" (the full-scan oracle's map-backed context
//     resolves it with a suffix scan over every populated key), every other
//     rule its own room's qualified temperature; a single-key sensor event
//     touches exactly one rule.
//   - presence_eval — Example Rules 2/3: quantified presence conditions
//     (nobody / everyone / someone-at / per-person presence / arrival) over
//     a populated home; presence churn re-evaluates the quantified rules
//     every pass.
//   - arbitrate(_handoff) — the Fig. 1 hand-off shape: several owners'
//     rules contending for one device under a contextual priority order
//     whose context is dirtied by presence churn, so every pass
//     re-arbitrates.
//
// NewChurnWorkload churns uniquely named rules through one home. BuildHub
// seeds a hub whose homes each hold one user and one temperature rule, the
// home shape of the bench module's wire workloads; BuildFigure1Hub one whose
// homes hold the paper's Fig. 1 household, the shape of its rebalance
// workload.
package benchwork

import (
	"fmt"
	"time"

	"repro/internal/conflict"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/figure1"
	"repro/internal/fleet"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/simplex"
)

// epoch is the fixed simulation instant every benchmark clock reports.
var epoch = time.Date(2005, 3, 7, 18, 0, 0, 0, time.UTC)

// EngineWorkload is one engine benchmark wired up end to end: a seeded,
// steady-state engine plus the event stream and the device identity to
// replay it under. The root package's benchmarks and allocation tests
// consume workloads through this, so the timed and the counted loops are
// byte-for-byte the same.
type EngineWorkload struct {
	engine *engine.Engine
	Events []map[string]string
	// devType/devName/devLoc identify the sensor the events arrive from.
	devType, devName, devLoc string
}

// Replay feeds the i-th event of the stream — the timed-loop body.
func (w *EngineWorkload) Replay(i int) {
	w.engine.HandleDeviceEvent(w.devType, w.devName, w.devLoc, w.Events[i%len(w.Events)])
}

// traceCap is the capacity of the firing-trace ring a benchmark engine
// runs with. The engine is the ring's only user: the one-engine case of a
// hub shard's shared ring.
const traceCap = 16

// NewEngineWorkload builds the named workload at n rules, seeded to steady
// state. Engines are fully instrumented by default — metrics into a private
// obs registry plus a private traceCap-slot firing-trace ring — so every
// benchmark measures the production configuration; pass
// engine.WithMetrics(nil) / engine.WithTrace(nil) to strip either back off
// (the overhead gate's baseline). Names:
//
//	engine_evaluate         single-key temperature event, no readiness flip
//	engine_evaluate_firing  single-key event crossing rule 0's threshold
//	presence_eval           quantified-presence churn, no readiness flip
//	arbitrate               arbitration churn, winner unchanged
//	arbitrate_handoff       arbitration churn flipping the winner every pass
func NewEngineWorkload(name string, n int, opts ...engine.Option) (*EngineWorkload, error) {
	opts = append([]engine.Option{
		engine.WithMetrics(&obs.New(1).Shard(0).Engine),
		engine.WithTrace(engine.NewTraceRing(traceCap)),
	}, opts...)
	w := &EngineWorkload{devType: device.TypePresenceSensor, devName: "presence sensor", devLoc: "home"}
	var (
		db  *registry.DB
		err error
	)
	tbl := conflict.NewTable()
	switch name {
	case "engine_evaluate", "engine_evaluate_firing":
		db, err = roomTempDB(n)
		w.Events = tempEvents()
		if name == "engine_evaluate_firing" {
			w.Events = firingTempEvents()
		}
		w.devType, w.devName, w.devLoc = device.TypeThermometer, "thermometer", "room0"
	case "presence_eval":
		db, err = presenceDB(n)
		w.Events = presenceEvents()
	case "arbitrate":
		db, err = arbitrationDB(n)
		tbl = arbitrationTable()
		w.Events = arbitrationEvents()
	case "arbitrate_handoff":
		db, err = arbitrationDB(n)
		tbl = handoffTable()
		w.Events = handoffEvents()
	default:
		return nil, fmt.Errorf("benchwork: unknown workload %q", name)
	}
	if err != nil {
		return nil, err
	}
	w.engine = engine.New(db, tbl, func() time.Time { return epoch }, opts...)
	switch name {
	case "engine_evaluate", "engine_evaluate_firing":
		seedRoomTemp(w.engine, n, w.Events)
	case "presence_eval":
		seedPresence(w.engine, w.Events)
	default:
		seedArbitration(w.engine, w.Events)
	}
	// Cycle the trace ring so every slot's slices reach steady-state capacity
	// before the timed (and allocation-gated) loop starts.
	for i := 0; i < 2*traceCap+4; i++ {
		w.Replay(i)
	}
	return w, nil
}

// ---- Example Rule 1: single-key temperature workload ----

// roomTempDB builds n rules: rule 0 reads the unqualified "temperature",
// rule i > 0 its own room's qualified key, all additionally gated on Tom
// being in the living room.
func roomTempDB(n int) (*registry.DB, error) {
	db := registry.New()
	for i := 0; i < n; i++ {
		v := "temperature"
		if i > 0 {
			v = fmt.Sprintf("room%d/temperature", i)
		}
		rule := core.NewRule(fmt.Sprintf("r%d", i), "u",
			core.DeviceRef{Name: fmt.Sprintf("dev%d", i)},
			core.Action{Verb: "turn-on"},
			&core.And{Terms: []core.Condition{
				&core.Compare{Var: v, Op: simplex.GT, Value: float64(20 + i%15)},
				&core.Presence{Person: "tom", Place: "living room"},
			}})
		if err := db.Add(rule); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// seedRoomTemp brings an engine over a roomTempDB to steady state: Tom in
// the living room, every room's sensor key populated once (coalesced into a
// single pass), then the event stream replayed once to warm the ingest
// caches and the readiness diff.
func seedRoomTemp(e *engine.Engine, n int, events []map[string]string) {
	e.HandleDeviceEvent(device.TypePresenceSensor, "presence sensor", "home",
		map[string]string{"presence-tom": "living room"})
	low := map[string]string{"temperature": "10"}
	var ev ingest.Event
	for i := 1; i < n; i++ {
		ev.Fill(device.TypeThermometer, "thermometer", fmt.Sprintf("room%d", i), low)
		e.IngestEvent(&ev)
	}
	e.Tick()
	for _, ev := range events {
		e.HandleDeviceEvent(device.TypeThermometer, "thermometer", "room0", ev)
	}
}

// tempEvents returns the below-threshold value stream: room0's temperature
// cycling under every rule's threshold, so no readiness flips and the
// benchmark isolates pure evaluation cost.
func tempEvents() []map[string]string {
	events := make([]map[string]string, 10)
	for i := range events {
		events[i] = map[string]string{"temperature": fmt.Sprintf("%d", 10+i)}
	}
	return events
}

// firingTempEvents returns the threshold-crossing stream: every event flips
// rule 0's readiness, so each pass re-arbitrates and fires.
func firingTempEvents() []map[string]string {
	return []map[string]string{
		{"temperature": "40"},
		{"temperature": "10"},
	}
}

// ---- Example Rules 2/3: quantified presence workload ----

// presenceUserCount is how many users presenceDB registers: large enough
// that the full-scan oracle's per-eval map iteration over every location is
// visible next to the interned counters.
const presenceUserCount = 32

// presenceUsers returns the registered users: tom, alan, emily plus
// background residents.
func presenceUsers() []string {
	users := []string{"tom", "alan", "emily"}
	for i := len(users); i < presenceUserCount; i++ {
		users = append(users, fmt.Sprintf("u%d", i))
	}
	return users
}

// presenceDB builds n rules, the first five quantified over presence —
// nobody-at-home (Example Rule 2's shape), everyone-at, someone-at,
// per-person presence, and an arrival (Example Rule 3's shape) — the rest
// the qualified-temperature fillers that scale the database.
func presenceDB(n int) (*registry.DB, error) {
	db := registry.New()
	quantified := []*core.Rule{
		core.NewRule("off", "tom",
			core.DeviceRef{Name: "fluorescent light"},
			core.Action{Verb: "turn-off"},
			&core.Nobody{Place: "home"}),
		core.NewRule("heat", "tom",
			core.DeviceRef{Name: "heater"},
			core.Action{Verb: "turn-on"},
			&core.Everyone{Place: "living room"}),
		core.NewRule("kettle", "alan",
			core.DeviceRef{Name: "kettle"},
			core.Action{Verb: "turn-on"},
			&core.Presence{Person: core.Someone, Place: "kitchen"}),
		core.NewRule("lamp", "tom",
			core.DeviceRef{Name: "floor lamp"},
			core.Action{Verb: "turn-on"},
			&core.Presence{Person: "tom", Place: "living room"}),
		core.NewRule("welcome", "alan",
			core.DeviceRef{Name: "stereo"},
			core.Action{Verb: "play"},
			&core.Arrival{Person: "alan", Event: "home-from-work"}),
	}
	for i, r := range quantified {
		if i >= n {
			break
		}
		if err := db.Add(r); err != nil {
			return nil, err
		}
	}
	for i := len(quantified); i < n; i++ {
		rule := core.NewRule(fmt.Sprintf("r%d", i), "u",
			core.DeviceRef{Name: fmt.Sprintf("dev%d", i)},
			core.Action{Verb: "turn-on"},
			&core.Compare{Var: fmt.Sprintf("room%d/temperature", i), Op: simplex.GT, Value: float64(20 + i%15)})
		if err := db.Add(rule); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// seedPresence brings an engine over a presenceDB to steady state: the users
// registered, Alan settled in the living room (so nobody-at-home stays
// false), Tom in the hall, then the event stream replayed once to warm the
// ingest caches. The presenceEvents churn keeps every quantified condition's
// truth stable, so the timed loop measures pure quantified re-evaluation.
func seedPresence(e *engine.Engine, events []map[string]string) {
	e.SetUsers(presenceUsers())
	e.HandleDeviceEvent(device.TypePresenceSensor, "presence sensor", "home",
		map[string]string{"presence-alan": "living room"})
	e.HandleDeviceEvent(device.TypePresenceSensor, "presence sensor", "home",
		map[string]string{"presence-tom": "hall"})
	for _, ev := range events {
		e.HandleDeviceEvent(device.TypePresenceSensor, "presence sensor", "home", ev)
	}
}

// presenceEvents returns the presence-churn stream: Tom moving between the
// hall and the study. Every event dirties loc/tom and the location wildcard,
// re-evaluating all quantified rules, without flipping any readiness.
func presenceEvents() []map[string]string {
	return []map[string]string{
		{"presence-tom": "hall"},
		{"presence-tom": "study"},
	}
}

// ---- arbitration workload: contending owners on one device ----

// arbContenders is how many owners contend for the stereo in arbitrationDB.
const arbContenders = 8

// arbitrationDB builds n rules: arbContenders unconditional rules from
// distinct owners all targeting the stereo, plus qualified-temperature
// fillers that scale the database.
func arbitrationDB(n int) (*registry.DB, error) {
	db := registry.New()
	for i := 0; i < arbContenders && i < n; i++ {
		rule := core.NewRule(fmt.Sprintf("c%d", i), fmt.Sprintf("u%d", i),
			core.DeviceRef{Name: "stereo"},
			core.Action{Verb: "play", Settings: map[string]core.Value{"volume": {IsNumber: true, Number: float64(i)}}},
			core.Always{})
		if err := db.Add(rule); err != nil {
			return nil, err
		}
	}
	for i := arbContenders; i < n; i++ {
		rule := core.NewRule(fmt.Sprintf("r%d", i), "u",
			core.DeviceRef{Name: fmt.Sprintf("dev%d", i)},
			core.Action{Verb: "turn-on"},
			&core.Compare{Var: fmt.Sprintf("room%d/temperature", i), Op: simplex.GT, Value: float64(20 + i%15)})
		if err := db.Add(rule); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// arbitrationTable returns the stereo's priority orders: a default order and
// a contextual one that applies while nobody is in the bedroom. Both rank u0
// highest, so the steady-state churn re-arbitrates without a hand-off.
func arbitrationTable() *conflict.Table {
	tbl := conflict.NewTable()
	users := make([]string, arbContenders)
	for i := range users {
		users[i] = fmt.Sprintf("u%d", i)
	}
	tbl.Set(conflict.Order{Device: core.DeviceRef{Name: "stereo"}, Users: users})
	ctxUsers := append([]string{"u0"}, users[1:]...)
	for i, j := 1, len(ctxUsers)-1; i < j; i, j = i+1, j-1 {
		ctxUsers[i], ctxUsers[j] = ctxUsers[j], ctxUsers[i]
	}
	tbl.Set(conflict.Order{
		Device:        core.DeviceRef{Name: "stereo"},
		Context:       &core.Nobody{Place: "bedroom"},
		ContextSource: "nobody at bedroom",
		Users:         ctxUsers,
	})
	return tbl
}

// handoffTable is arbitrationTable with the contextual order led by u1
// instead of u0, so flipping the bedroom's occupancy (handoffEvents) flips
// the applicable order and hands the stereo between u1 and u0 every pass —
// the paper's Fig. 1 stereo hand-off shape.
func handoffTable() *conflict.Table {
	tbl := arbitrationTable()
	users := make([]string, arbContenders)
	for i := range users {
		users[i] = fmt.Sprintf("u%d", i)
	}
	users[0], users[1] = users[1], users[0]
	tbl.Set(conflict.Order{
		Device:        core.DeviceRef{Name: "stereo"},
		Context:       &core.Nobody{Place: "bedroom"},
		ContextSource: "nobody at bedroom",
		Users:         users,
	})
	return tbl
}

// seedArbitration brings an engine over an arbitrationDB to steady state:
// Emily present (her churn drives the contextual order's dependency), one
// pass to register and fire the initial winner, then the event stream
// replayed once to warm the caches.
func seedArbitration(e *engine.Engine, events []map[string]string) {
	e.HandleDeviceEvent(device.TypePresenceSensor, "presence sensor", "home",
		map[string]string{"presence-emily": "hall"})
	for _, ev := range events {
		e.HandleDeviceEvent(device.TypePresenceSensor, "presence sensor", "home", ev)
	}
}

// arbitrationEvents returns the arbitration-churn stream: Emily moving
// between hall and study. Every event dirties the location wildcard the
// contextual order depends on, so every pass re-arbitrates the stereo's
// contenders — and the winner never changes, so nothing fires.
func arbitrationEvents() []map[string]string {
	return []map[string]string{
		{"presence-emily": "hall"},
		{"presence-emily": "study"},
	}
}

// handoffEvents returns the hand-off stream: Alan toggling between the
// bedroom and away flips the contextual order's applicability, so every
// pass's arbitration picks a different winner and fires.
func handoffEvents() []map[string]string {
	return []map[string]string{
		{"presence-alan": "bedroom"},
		{"presence-alan": ""},
	}
}

// ---- rule-churn workload: symtab growth under unique-name lifecycle ----

// ChurnWorkload drives one rule-lifecycle step per op over a fixed live
// window: register a rule with names unique to its sequence number, remove
// the oldest, evaluate. This is the shape that grows a home's symbol table
// (and every id-indexed slice hanging off it) without bound unless epoch
// compaction reclaims the retired ids; BenchmarkRuleChurn measures it with
// the default watermark against a compaction-disabled baseline.
type ChurnWorkload struct {
	db     *registry.DB
	engine *engine.Engine
	live   int
	seq    int
}

// churnRule builds the seq-th unique-named rule: its variable, id and
// device all carry the sequence number, so nothing is shared with any other
// churn rule.
func churnRule(seq int) *core.Rule {
	return core.NewRule(fmt.Sprintf("churn-%d", seq), "u",
		core.DeviceRef{Name: fmt.Sprintf("churn-dev-%d", seq)},
		core.Action{Verb: "turn-on"},
		&core.Compare{Var: fmt.Sprintf("churn-room-%d/temperature", seq), Op: simplex.GT, Value: 20})
}

// NewChurnWorkload builds a churn workload with live rules resident and the
// engine at a pass boundary. Pass engine.WithCompactFloor(0) to measure the
// no-compaction baseline.
func NewChurnWorkload(live int, opts ...engine.Option) (*ChurnWorkload, error) {
	w := &ChurnWorkload{db: registry.New(), live: live}
	w.engine = engine.New(w.db, conflict.NewTable(), func() time.Time { return epoch }, opts...)
	for ; w.seq < live; w.seq++ {
		if err := w.db.Add(churnRule(w.seq)); err != nil {
			return nil, err
		}
	}
	w.engine.Tick()
	return w, nil
}

// Step runs one churn op: add the next unique-named rule, remove the oldest,
// and run the evaluation pass whose boundary hosts the compaction watermark.
func (w *ChurnWorkload) Step() error {
	if err := w.db.Add(churnRule(w.seq)); err != nil {
		return err
	}
	if err := w.db.Remove(fmt.Sprintf("churn-%d", w.seq-w.live)); err != nil {
		return err
	}
	w.seq++
	w.engine.Tick()
	return nil
}

// Symbols returns the current symtab length — the quantity compaction
// bounds.
func (w *ChurnWorkload) Symbols() int { return w.engine.SymbolStats().Symbols }

// ---- fleet workload ----

// fleetRule is the one rule every benchmark home registers.
const fleetRule = "If temperature is higher than 28 degrees, turn on the air conditioner."

// BuildHub seeds a hub with the standard fleet workload: homes each holding
// one user and one temperature rule.
func BuildHub(homes, shards int) (*fleet.Hub, []string, error) {
	return buildHub(homes, shards, func(hub *fleet.Hub, id string) error {
		if err := hub.RegisterUser(id, "u"); err != nil {
			return err
		}
		_, err := hub.Submit(id, fleetRule, "u")
		return err
	})
}

// BuildFigure1Hub seeds a hub whose homes each hold the paper's Fig. 1
// household (package figure1), the home shape of the bench module's
// rebalance workload, and then runs one pass in each home: a living-room
// temperature event that fires no rule.
func BuildFigure1Hub(homes, shards int) (*fleet.Hub, error) {
	hub, _, err := buildHub(homes, shards, func(hub *fleet.Hub, id string) error {
		for _, u := range figure1.Users {
			if err := hub.RegisterUser(id, u.Name, u.Favorites...); err != nil {
				return err
			}
		}
		for _, s := range figure1.Submissions {
			if _, err := hub.Submit(id, s.Source, s.Owner); err != nil {
				return err
			}
		}
		for _, o := range figure1.Orders {
			if err := hub.SetPriority(id, core.DeviceRef{Name: o.Device}, o.Users, o.Context); err != nil {
				return err
			}
		}
		return hub.PostEvent(id, device.TypeThermometer, "thermometer", "living room",
			map[string]string{"temperature": "20"})
	})
	if err != nil {
		return nil, err
	}
	return hub, hub.Quiesce()
}

// buildHub makes a hub and seeds each of its homes.
func buildHub(homes, shards int, seed func(*fleet.Hub, string) error) (*fleet.Hub, []string, error) {
	hub, err := fleet.NewHub(
		fleet.WithShards(shards),
		fleet.WithClock(func() time.Time { return epoch }),
		fleet.WithLogLimit(64),
	)
	if err != nil {
		return nil, nil, err
	}
	ids := make([]string, homes)
	for i := range ids {
		ids[i] = fmt.Sprintf("home-%06d", i)
		if err := seed(hub, ids[i]); err != nil {
			_ = hub.Close()
			return nil, nil, err
		}
	}
	return hub, ids, nil
}
