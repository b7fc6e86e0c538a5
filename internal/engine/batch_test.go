package engine

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/conflict"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/ingest"
	"repro/internal/registry"
	"repro/internal/simplex"
)

// tempRule builds a rule "room<i>/temperature > threshold → turn on dev<i>".
func tempRule(t *testing.T, db *registry.DB, i int, threshold float64) {
	t.Helper()
	r := core.NewRule(fmt.Sprintf("r%d", i), "u",
		core.DeviceRef{Name: fmt.Sprintf("dev%d", i)},
		core.Action{Verb: "turn-on"},
		&core.Compare{Var: fmt.Sprintf("room%d/temperature", i), Op: simplex.GT, Value: threshold})
	if err := db.Add(r); err != nil {
		t.Fatal(err)
	}
}

// TestDispatchOneBatchPerPass pins down the batched dispatch path: a pass
// that fires K rules hands them to the dispatcher as exactly one batch (one
// BatchDispatcher call, one log append), not K lock round-trips.
func TestDispatchOneBatchPerPass(t *testing.T) {
	const k = 7
	db := registry.New()
	now := time.Date(2005, 3, 7, 18, 0, 0, 0, time.UTC)
	for i := 0; i < k; i++ {
		tempRule(t, db, i, 25)
	}
	var calls int
	var sizes []int
	e := New(db, conflict.NewTable(), func() time.Time { return now },
		WithBatchDispatcher(func(batch []Fired) {
			calls++
			sizes = append(sizes, len(batch))
			for i := range batch {
				batch[i].Err = fmt.Errorf("dispatched %s", batch[i].Rule.ID)
			}
		}))

	// One ingested event burst making all K rules ready, evaluated in one pass.
	var ev ingest.Event
	for i := 0; i < k; i++ {
		ev.Fill(device.TypeThermometer, "t", fmt.Sprintf("room%d", i),
			map[string]string{"temperature": "30"})
		e.IngestEvent(&ev)
	}
	e.Tick()

	if calls != 1 {
		t.Fatalf("batch dispatcher called %d times, want 1 (one batch per pass)", calls)
	}
	if sizes[0] != k {
		t.Fatalf("batch size = %d, want %d", sizes[0], k)
	}
	if got := e.DispatchBatches(); got != 1 {
		t.Fatalf("DispatchBatches = %d, want 1", got)
	}
	log := e.Log()
	if len(log) != k {
		t.Fatalf("log has %d entries, want %d", len(log), k)
	}
	for _, f := range log {
		if f.Err == nil {
			t.Fatalf("batch dispatcher's Err for %s was not recorded in the log", f.Rule.ID)
		}
	}
	// A pass with nothing fired must not produce an empty batch.
	e.Tick()
	if calls != 1 {
		t.Fatalf("no-op pass invoked the batch dispatcher (calls = %d)", calls)
	}
}

// TestIngestThenTickMatchesHandleDeviceEvent is the engine-level coalescing
// oracle: K ingests followed by one Tick leave the same final context,
// owners and readiness as K sequential HandleDeviceEvent passes — in exactly
// one evaluation pass instead of K.
func TestIngestThenTickMatchesHandleDeviceEvent(t *testing.T) {
	const k = 12
	now := time.Date(2005, 3, 7, 18, 0, 0, 0, time.UTC)
	build := func() (*Engine, *registry.DB) {
		db := registry.New()
		for i := 0; i < k; i++ {
			tempRule(t, db, i, 25)
		}
		return New(db, conflict.NewTable(), func() time.Time { return now }), db
	}
	burst, _ := build()
	sequential, _ := build()

	// The burst includes contradictory writes to the same room; last write wins.
	events := make([]map[string]string, 0, k+2)
	for i := 0; i < k; i++ {
		events = append(events, map[string]string{"temperature": "30"})
	}
	events = append(events,
		map[string]string{"temperature": "10"}, // cools room0 back down...
		map[string]string{"temperature": "31"}) // ...then heats it again

	room := func(i int) string {
		if i >= k {
			return "room0"
		}
		return fmt.Sprintf("room%d", i)
	}
	base := burst.Passes()
	var ev ingest.Event
	for i, vars := range events {
		ev.Fill(device.TypeThermometer, "t", room(i), vars)
		burst.IngestEvent(&ev)
	}
	burst.Tick()
	if got := burst.Passes() - base; got != 1 {
		t.Fatalf("burst ran %d passes, want 1", got)
	}
	for i, vars := range events {
		sequential.HandleDeviceEvent(device.TypeThermometer, "t", room(i), vars)
	}

	if got, want := burst.Owners(), sequential.Owners(); !reflect.DeepEqual(got, want) {
		t.Fatalf("final owners diverge:\nburst      = %v\nsequential = %v", got, want)
	}
	bc, sc := burst.Context(), sequential.Context()
	if !reflect.DeepEqual(bc.Numbers, sc.Numbers) {
		t.Fatalf("final contexts diverge:\nburst      = %v\nsequential = %v", bc.Numbers, sc.Numbers)
	}
	// The burst fired every device exactly once; the sequential run may have
	// fired room0's device more than once, but the set of fired devices and
	// their final actions agree.
	final := func(log []Fired) map[string]string {
		out := make(map[string]string)
		for _, f := range log {
			out[f.Rule.Device.Key()] = f.Rule.Action.String()
		}
		return out
	}
	if got, want := final(burst.Log()), final(sequential.Log()); !reflect.DeepEqual(got, want) {
		t.Fatalf("final fired actions diverge:\nburst      = %v\nsequential = %v", got, want)
	}
}

// TestWithLogLimit checks the capped fired-action log keeps the most recent
// entries.
func TestWithLogLimit(t *testing.T) {
	db := registry.New()
	now := time.Date(2005, 3, 7, 18, 0, 0, 0, time.UTC)
	tempRule(t, db, 0, 25)
	e := New(db, conflict.NewTable(), func() time.Time { return now }, WithLogLimit(4))
	for i := 0; i < 40; i++ {
		v := "30"
		if i%2 == 1 {
			v = "10" // drop below threshold so the next event re-fires
		}
		e.HandleDeviceEvent(device.TypeThermometer, "t", "room0", map[string]string{"temperature": v})
	}
	if got := len(e.Log()); got > 8 {
		t.Fatalf("capped log holds %d entries, want ≤ 8 (2×limit hysteresis)", got)
	}
	if got := len(e.Log()); got == 0 {
		t.Fatal("capped log is empty")
	}
}
