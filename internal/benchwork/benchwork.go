// Package benchwork holds the benchmark workload builders shared by the
// root package's `go test -bench` benchmarks and the cmd/corebench JSON
// emitter, so BENCH_core.json measures exactly the same rule sets and event
// streams the in-repo benchmarks do.
//
// Three engine workloads reproduce the paper's example-rule shapes:
//
//   - RoomTempDB — Example Rule 1: rule 0 reads the unqualified
//     "temperature" (the full-scan oracle's map-backed context resolves it
//     with a suffix scan over every populated key), every other rule its
//     own room's qualified temperature; a single-key sensor event touches
//     exactly one rule.
//   - PresenceDB — Example Rules 2/3: quantified presence conditions
//     (nobody / everyone / someone-at / per-person presence / arrival) over
//     a populated home; presence churn re-evaluates the quantified rules
//     every pass.
//   - ArbitrationDB — the Fig. 1 hand-off shape: several owners' rules
//     contending for one device under a contextual priority order whose
//     context is dirtied by presence churn, so every pass re-arbitrates.
//
// The fleet workload (BuildHub) seeds one user and one temperature rule per
// home.
package benchwork

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/conflict"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/simplex"
)

// RunMeta is the run environment block BENCH_core.json embeds, so a perf
// trajectory across commits can tell a regression from a machine or
// toolchain change.
type RunMeta struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// NewRunMeta captures the current process's run environment.
func NewRunMeta() RunMeta {
	return RunMeta{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// Epoch is the fixed simulation instant every benchmark clock reports.
var Epoch = time.Date(2005, 3, 7, 18, 0, 0, 0, time.UTC)

// EngineWorkload is one engine benchmark wired up end to end: a seeded,
// steady-state engine plus the event stream and the device identity to
// replay it under. Both the root package's benchmarks and cmd/corebench
// consume workloads through this, so the timed loops are byte-for-byte the
// same measurement.
type EngineWorkload struct {
	Engine *engine.Engine
	Events []map[string]string
	// DeviceType/DeviceName/DeviceLocation identify the sensor the events
	// arrive from.
	DeviceType, DeviceName, DeviceLocation string
}

// Replay feeds the i-th event of the stream — the timed-loop body.
func (w *EngineWorkload) Replay(i int) {
	w.Engine.HandleDeviceEvent(w.DeviceType, w.DeviceName, w.DeviceLocation, w.Events[i%len(w.Events)])
}

// TraceCap is the capacity of the firing-trace ring a benchmark engine
// runs with. The engine is the ring's only user: the one-engine case of a
// hub shard's shared ring.
const TraceCap = 16

// NewEngineWorkload builds the named workload at n rules, seeded to steady
// state. Engines are fully instrumented by default — metrics into a private
// obs registry plus a private TraceCap-slot firing-trace ring — so every
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
		engine.WithTrace(engine.NewTraceRing(TraceCap)),
	}, opts...)
	w := &EngineWorkload{DeviceType: device.TypePresenceSensor, DeviceName: "presence sensor", DeviceLocation: "home"}
	var (
		db  *registry.DB
		err error
	)
	tbl := conflict.NewTable()
	switch name {
	case "engine_evaluate", "engine_evaluate_firing":
		db, err = RoomTempDB(n)
		w.Events = TempEvents()
		if name == "engine_evaluate_firing" {
			w.Events = FiringTempEvents()
		}
		w.DeviceType, w.DeviceName, w.DeviceLocation = device.TypeThermometer, "thermometer", "room0"
	case "presence_eval":
		db, err = PresenceDB(n)
		w.Events = PresenceEvents()
	case "arbitrate":
		db, err = ArbitrationDB(n)
		tbl = ArbitrationTable()
		w.Events = ArbitrationEvents()
	case "arbitrate_handoff":
		db, err = ArbitrationDB(n)
		tbl = HandoffTable()
		w.Events = HandoffEvents()
	default:
		return nil, fmt.Errorf("benchwork: unknown workload %q", name)
	}
	if err != nil {
		return nil, err
	}
	w.Engine = engine.New(db, tbl, func() time.Time { return Epoch }, opts...)
	switch name {
	case "engine_evaluate", "engine_evaluate_firing":
		SeedRoomTemp(w.Engine, n, w.Events)
	case "presence_eval":
		SeedPresence(w.Engine, w.Events)
	default:
		SeedArbitration(w.Engine, w.Events)
	}
	// Cycle the trace ring so every slot's slices reach steady-state capacity
	// before the timed (and allocation-gated) loop starts.
	for i := 0; i < 2*TraceCap+4; i++ {
		w.Replay(i)
	}
	return w, nil
}

// ---- Example Rule 1: single-key temperature workload ----

// RoomTempDB builds n rules: rule 0 reads the unqualified "temperature",
// rule i > 0 its own room's qualified key, all additionally gated on Tom
// being in the living room.
func RoomTempDB(n int) (*registry.DB, error) {
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

// SeedRoomTemp brings an engine over a RoomTempDB to steady state: Tom in
// the living room, every room's sensor key populated once (coalesced into a
// single pass), then the event stream replayed once to warm the ingest
// caches and the readiness diff.
func SeedRoomTemp(e *engine.Engine, n int, events []map[string]string) {
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

// TempEvents returns the below-threshold value stream: room0's temperature
// cycling under every rule's threshold, so no readiness flips and the
// benchmark isolates pure evaluation cost.
func TempEvents() []map[string]string {
	events := make([]map[string]string, 10)
	for i := range events {
		events[i] = map[string]string{"temperature": fmt.Sprintf("%d", 10+i)}
	}
	return events
}

// FiringTempEvents returns the threshold-crossing stream: every event flips
// rule 0's readiness, so each pass re-arbitrates and fires.
func FiringTempEvents() []map[string]string {
	return []map[string]string{
		{"temperature": "40"},
		{"temperature": "10"},
	}
}

// ---- Example Rules 2/3: quantified presence workload ----

// PresenceUserCount is how many users PresenceDB registers: large enough
// that the full-scan oracle's per-eval map iteration over every location is
// visible next to the interned counters.
const PresenceUserCount = 32

// PresenceUsers returns the registered users: tom, alan, emily plus
// background residents.
func PresenceUsers() []string {
	users := []string{"tom", "alan", "emily"}
	for i := len(users); i < PresenceUserCount; i++ {
		users = append(users, fmt.Sprintf("u%d", i))
	}
	return users
}

// PresenceDB builds n rules, the first five quantified over presence —
// nobody-at-home (Example Rule 2's shape), everyone-at, someone-at,
// per-person presence, and an arrival (Example Rule 3's shape) — the rest
// the qualified-temperature fillers that scale the database.
func PresenceDB(n int) (*registry.DB, error) {
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

// SeedPresence brings an engine over a PresenceDB to steady state: the users
// registered, Alan settled in the living room (so nobody-at-home stays
// false), Tom in the hall, then the event stream replayed once to warm the
// ingest caches. The PresenceEvents churn keeps every quantified condition's
// truth stable, so the timed loop measures pure quantified re-evaluation.
func SeedPresence(e *engine.Engine, events []map[string]string) {
	e.SetUsers(PresenceUsers())
	e.HandleDeviceEvent(device.TypePresenceSensor, "presence sensor", "home",
		map[string]string{"presence-alan": "living room"})
	e.HandleDeviceEvent(device.TypePresenceSensor, "presence sensor", "home",
		map[string]string{"presence-tom": "hall"})
	for _, ev := range events {
		e.HandleDeviceEvent(device.TypePresenceSensor, "presence sensor", "home", ev)
	}
}

// PresenceEvents returns the presence-churn stream: Tom moving between the
// hall and the study. Every event dirties loc/tom and the location wildcard,
// re-evaluating all quantified rules, without flipping any readiness.
func PresenceEvents() []map[string]string {
	return []map[string]string{
		{"presence-tom": "hall"},
		{"presence-tom": "study"},
	}
}

// ---- arbitration workload: contending owners on one device ----

// ArbContenders is how many owners contend for the stereo in ArbitrationDB.
const ArbContenders = 8

// ArbitrationDB builds n rules: ArbContenders unconditional rules from
// distinct owners all targeting the stereo, plus qualified-temperature
// fillers that scale the database.
func ArbitrationDB(n int) (*registry.DB, error) {
	db := registry.New()
	for i := 0; i < ArbContenders && i < n; i++ {
		rule := core.NewRule(fmt.Sprintf("c%d", i), fmt.Sprintf("u%d", i),
			core.DeviceRef{Name: "stereo"},
			core.Action{Verb: "play", Settings: map[string]core.Value{"volume": {IsNumber: true, Number: float64(i)}}},
			core.Always{})
		if err := db.Add(rule); err != nil {
			return nil, err
		}
	}
	for i := ArbContenders; i < n; i++ {
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

// ArbitrationTable returns the stereo's priority orders: a default order and
// a contextual one that applies while nobody is in the bedroom. Both rank u0
// highest, so the steady-state churn re-arbitrates without a hand-off.
func ArbitrationTable() *conflict.Table {
	tbl := conflict.NewTable()
	users := make([]string, ArbContenders)
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

// HandoffTable is ArbitrationTable with the contextual order led by u1
// instead of u0, so flipping the bedroom's occupancy (HandoffEvents) flips
// the applicable order and hands the stereo between u1 and u0 every pass —
// the paper's Fig. 1 stereo hand-off shape.
func HandoffTable() *conflict.Table {
	tbl := ArbitrationTable()
	users := make([]string, ArbContenders)
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

// SeedArbitration brings an engine over an ArbitrationDB to steady state:
// Emily present (her churn drives the contextual order's dependency), one
// pass to register and fire the initial winner, then the event stream
// replayed once to warm the caches.
func SeedArbitration(e *engine.Engine, events []map[string]string) {
	e.HandleDeviceEvent(device.TypePresenceSensor, "presence sensor", "home",
		map[string]string{"presence-emily": "hall"})
	for _, ev := range events {
		e.HandleDeviceEvent(device.TypePresenceSensor, "presence sensor", "home", ev)
	}
}

// ArbitrationEvents returns the arbitration-churn stream: Emily moving
// between hall and study. Every event dirties the location wildcard the
// contextual order depends on, so every pass re-arbitrates the stereo's
// contenders — and the winner never changes, so nothing fires.
func ArbitrationEvents() []map[string]string {
	return []map[string]string{
		{"presence-emily": "hall"},
		{"presence-emily": "study"},
	}
}

// HandoffEvents returns the hand-off stream: Alan toggling between the
// bedroom and away flips the contextual order's applicability, so every
// pass's arbitration picks a different winner and fires.
func HandoffEvents() []map[string]string {
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
	DB     *registry.DB
	Engine *engine.Engine
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
	w := &ChurnWorkload{DB: registry.New(), live: live}
	w.Engine = engine.New(w.DB, conflict.NewTable(), func() time.Time { return Epoch }, opts...)
	for ; w.seq < live; w.seq++ {
		if err := w.DB.Add(churnRule(w.seq)); err != nil {
			return nil, err
		}
	}
	w.Engine.Tick()
	return w, nil
}

// Step runs one churn op: add the next unique-named rule, remove the oldest,
// and run the evaluation pass whose boundary hosts the compaction watermark.
func (w *ChurnWorkload) Step() error {
	if err := w.DB.Add(churnRule(w.seq)); err != nil {
		return err
	}
	if err := w.DB.Remove(fmt.Sprintf("churn-%d", w.seq-w.live)); err != nil {
		return err
	}
	w.seq++
	w.Engine.Tick()
	return nil
}

// Symbols returns the current symtab length — the quantity compaction
// bounds.
func (w *ChurnWorkload) Symbols() int { return w.Engine.SymbolStats().Symbols }

// ---- fleet workload ----

// FleetRule is the one rule every benchmark home registers.
const FleetRule = "If temperature is higher than 28 degrees, turn on the air conditioner."

// BuildHub seeds a hub with the standard fleet workload: homes each holding
// one user and one temperature rule.
func BuildHub(homes, shards int) (*fleet.Hub, []string, error) {
	hub, err := fleet.NewHub(
		fleet.WithShards(shards),
		fleet.WithClock(func() time.Time { return Epoch }),
		fleet.WithLogLimit(64),
	)
	if err != nil {
		return nil, nil, err
	}
	ids := make([]string, homes)
	for i := range ids {
		ids[i] = fmt.Sprintf("home-%06d", i)
		if err := hub.RegisterUser(ids[i], "u"); err != nil {
			_ = hub.Close()
			return nil, nil, err
		}
		if _, err := hub.Submit(ids[i], FleetRule, "u"); err != nil {
			_ = hub.Close()
			return nil, nil, err
		}
	}
	return hub, ids, nil
}
