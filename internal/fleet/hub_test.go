package fleet

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/engine"
)

var testEpoch = time.Date(2005, 3, 7, 18, 0, 0, 0, time.UTC)

func testClock() func() time.Time { return func() time.Time { return testEpoch } }

// hotRule is the paper's example rule 1, minus the user-defined word.
const hotRule = "If temperature is higher than 28 degrees, turn on the air conditioner " +
	"with 25 degrees of temperature setting."

func newTestHub(t *testing.T, opts ...HubOption) *Hub {
	t.Helper()
	h, err := NewHub(append([]HubOption{WithClock(testClock())}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = h.Close() })
	return h
}

func seedHome(t *testing.T, h *Hub, home string) {
	t.Helper()
	if err := h.RegisterUser(home, "tom"); err != nil {
		t.Fatalf("%s: register: %v", home, err)
	}
	if _, err := h.Submit(home, hotRule, "tom"); err != nil {
		t.Fatalf("%s: submit: %v", home, err)
	}
}

func postTemp(t *testing.T, h *Hub, home, value string) {
	t.Helper()
	if err := h.PostEvent(home, device.TypeThermometer, "thermometer", "living room",
		map[string]string{"temperature": value}); err != nil {
		t.Fatal(err)
	}
}

func TestHubSubmitEventFire(t *testing.T) {
	h := newTestHub(t, WithShards(2))
	seedHome(t, h, "home-a")
	postTemp(t, h, "home-a", "31")
	if err := h.Quiesce(); err != nil {
		t.Fatal(err)
	}
	log, err := h.Log("home-a")
	if err != nil {
		t.Fatal(err)
	}
	if len(log) != 1 {
		t.Fatalf("log = %d entries, want 1", len(log))
	}
	if got := log[0].Rule.Device.Key(); got != "air conditioner" {
		t.Fatalf("fired device = %q", got)
	}
	owners, err := h.Owners("home-a")
	if err != nil {
		t.Fatal(err)
	}
	if owners["air conditioner"] != log[0].Rule.ID {
		t.Fatalf("owners = %v", owners)
	}
}

// TestHubHomesAreIsolated checks that homes evolve independently: same user
// names, same rule ids, separate state — across shards.
func TestHubHomesAreIsolated(t *testing.T) {
	h := newTestHub(t, WithShards(4))
	homes := []string{"h0", "h1", "h2", "h3", "h4", "h5"}
	for _, home := range homes {
		seedHome(t, h, home)
	}
	// Heat only the even homes.
	for i, home := range homes {
		if i%2 == 0 {
			postTemp(t, h, home, "31")
		}
	}
	if err := h.Quiesce(); err != nil {
		t.Fatal(err)
	}
	for i, home := range homes {
		log, err := h.Log(home)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		if i%2 == 0 {
			want = 1
		}
		if len(log) != want {
			t.Fatalf("%s: log = %d entries, want %d", home, len(log), want)
		}
		rules, err := h.Rules(home)
		if err != nil {
			t.Fatal(err)
		}
		if len(rules) != 1 || rules[0].ID != "tom-1" {
			t.Fatalf("%s: rules = %v", home, rules)
		}
	}
	ids, err := h.Homes()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(homes) {
		t.Fatalf("Homes() = %v", ids)
	}
}

// TestHubCoalescesBurst pins the coalescing semantics of the ISSUE: a burst
// of K events for one home yields exactly ONE evaluation pass, and the final
// state — owners, context, and the in-effect action of every still-owned
// device — matches K sequential passes (oracle equivalence). Intermediate
// transitions the burst never observes (the whole point of coalescing) are
// excluded from the comparison: a device whose rule lapsed by burst end has
// no in-effect action either way.
func TestHubCoalescesBurst(t *testing.T) {
	const k = 32
	for _, tc := range []struct {
		name  string
		last  string // the burst's final temperature
		fires int    // dispatches the coalesced pass should produce
	}{
		{"ends-ready", "31", 1},
		{"ends-lapsed", "20", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			burstHub := newTestHub(t, WithShards(1))
			oracleHub := newTestHub(t, WithShards(1))
			const home = "casa"
			seedHome(t, burstHub, home)
			seedHome(t, oracleHub, home)

			// Values that cross the threshold in both directions mid-burst.
			values := make([]string, k)
			for i := range values {
				switch {
				case i%3 == 0:
					values[i] = "31"
				case i%3 == 1:
					values[i] = "20"
				default:
					values[i] = fmt.Sprintf("%d", 29+i%2)
				}
			}
			values[k-1] = tc.last

			// Gate the burst hub's shard so the whole burst lands in one
			// mailbox drain, then count the passes the flood costs. The burst
			// starts only once the shard is blocked inside the gate: posted
			// earlier, its first events could share the gate's drain and
			// cost a pass of their own.
			before, err := burstHub.Passes(home)
			if err != nil {
				t.Fatal(err)
			}
			gate, entered := make(chan struct{}), make(chan struct{})
			s := burstHub.shardFor(home)
			if !s.mb.put(task{shardFn: func(*shard) { close(entered); <-gate }}) {
				t.Fatal("mailbox closed")
			}
			<-entered
			for _, v := range values {
				postTemp(t, burstHub, home, v)
			}
			close(gate)
			if err := burstHub.Quiesce(); err != nil {
				t.Fatal(err)
			}
			after, err := burstHub.Passes(home)
			if err != nil {
				t.Fatal(err)
			}
			if got := after - before; got != 1 {
				t.Fatalf("burst of %d events cost %d evaluation passes, want exactly 1", k, got)
			}
			bLog, _ := burstHub.Log(home)
			if len(bLog) != tc.fires {
				t.Fatalf("coalesced pass fired %d times, want %d", len(bLog), tc.fires)
			}

			// Oracle: the same events, each fully evaluated before the next.
			for _, v := range values {
				if err := oracleHub.PostEventSync(home, device.TypeThermometer, "thermometer",
					"living room", map[string]string{"temperature": v}); err != nil {
					t.Fatal(err)
				}
			}

			burstOwners, err := burstHub.Owners(home)
			if err != nil {
				t.Fatal(err)
			}
			oracleOwners, err := oracleHub.Owners(home)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(burstOwners, oracleOwners) {
				t.Fatalf("final owners diverge: burst=%v oracle=%v", burstOwners, oracleOwners)
			}
			// For every still-owned device, the action in effect must agree.
			lastAction := func(log []engine.Fired, devKey string) string {
				for i := len(log) - 1; i >= 0; i-- {
					if log[i].Rule.Device.Key() == devKey {
						return log[i].Rule.Action.String()
					}
				}
				return ""
			}
			oLog, _ := oracleHub.Log(home)
			for devKey := range oracleOwners {
				if got, want := lastAction(bLog, devKey), lastAction(oLog, devKey); got != want {
					t.Fatalf("%s: in-effect action diverges: burst=%q oracle=%q", devKey, got, want)
				}
			}
			bCtx, _ := burstHub.Context(home)
			oCtx, _ := oracleHub.Context(home)
			if !reflect.DeepEqual(bCtx.Numbers, oCtx.Numbers) {
				t.Fatalf("final contexts diverge: burst=%v oracle=%v", bCtx.Numbers, oCtx.Numbers)
			}
		})
	}
}

// TestHubOpsSeePriorEvents checks the ordering contract: an operation
// enqueued after an event observes that event fully evaluated.
func TestHubOpsSeePriorEvents(t *testing.T) {
	h := newTestHub(t, WithShards(1))
	seedHome(t, h, "home")
	postTemp(t, h, "home", "31")
	// No Quiesce: Log itself must flush the backlog first.
	log, err := h.Log("home")
	if err != nil {
		t.Fatal(err)
	}
	if len(log) != 1 {
		t.Fatalf("log = %d entries, want 1 (op ran before prior event evaluated)", len(log))
	}
}

// TestHubConcurrentIngestion floods many homes from many goroutines while
// operations interleave — run under -race in CI.
func TestHubConcurrentIngestion(t *testing.T) {
	const homes, producers, perProducer = 16, 8, 50
	h := newTestHub(t, WithShards(4), WithDispatchWorkers(4),
		WithDispatcher(func(string, core.DeviceRef, core.Action) error { return nil }))
	for i := 0; i < homes; i++ {
		seedHome(t, h, fmt.Sprintf("home-%d", i))
	}
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				home := fmt.Sprintf("home-%d", (p+i)%homes)
				v := "31"
				if i%2 == 1 {
					v = "20"
				}
				if err := h.PostEvent(home, device.TypeThermometer, "thermometer",
					"living room", map[string]string{"temperature": v}); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	if err := h.Quiesce(); err != nil {
		t.Fatal(err)
	}
	st, err := h.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Events != producers*perProducer {
		t.Fatalf("stats events = %d, want %d", st.Events, producers*perProducer)
	}
	if st.Homes != homes || st.Rules != homes {
		t.Fatalf("stats = %+v", st)
	}
	if st.Queued != 0 {
		t.Fatalf("queued = %d after Quiesce", st.Queued)
	}
}

func TestHubClosedErrors(t *testing.T) {
	h := newTestHub(t, WithShards(1))
	seedHome(t, h, "home")
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if err := h.PostEvent("home", device.TypeThermometer, "t", "", map[string]string{"temperature": "1"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("PostEvent after close = %v, want ErrClosed", err)
	}
	if _, err := h.Submit("home", hotRule, "tom"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after close = %v, want ErrClosed", err)
	}
	if err := h.Close(); err != nil {
		t.Fatalf("second close = %v", err)
	}
}

func TestHubUnknownUserAndBadRule(t *testing.T) {
	h := newTestHub(t, WithShards(1))
	if _, err := h.Submit("home", hotRule, "nobody"); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("submit by stranger = %v, want ErrUnknownUser", err)
	}
	seedHome(t, h, "home")
	if _, err := h.Submit("home",
		"If temperature is higher than 28 degrees and temperature is lower than 20 degrees, "+
			"turn on the air conditioner.", "tom"); !errors.Is(err, ErrInconsistent) {
		t.Fatalf("inconsistent rule = %v, want ErrInconsistent", err)
	}
}

func TestHubAuthorizer(t *testing.T) {
	h := newTestHub(t, WithShards(1), WithAuthorizer(
		func(home, owner string, dev core.DeviceRef, verb string) bool {
			return owner != "kid" || dev.Name != "air conditioner"
		}))
	if err := h.RegisterUser("home", "kid"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Submit("home", hotRule, "kid"); !errors.Is(err, ErrForbidden) {
		t.Fatalf("forbidden rule = %v, want ErrForbidden", err)
	}
	if _, err := h.Submit("home", "Turn on the light at the hall.", "kid"); err != nil {
		t.Fatalf("allowed rule = %v", err)
	}
}

// TestPostEventSyncZeroAlloc pins the map-shaped post path at zero
// allocations: PostEventSync fills a pooled ingest.Event from a reused vars
// map and acks through a pooled waiter, and the shard ingests and evaluates
// it on warm caches — nothing per event on either goroutine.
func TestPostEventSyncZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	h := newTestHub(t, WithShards(1))
	seedHome(t, h, "h")
	vars := map[string]string{"temperature": "20", "humidity": "40"}
	post := func(temp string) {
		vars["temperature"] = temp
		if err := h.PostEventSync("h", device.TypeThermometer, "thermometer", "living room", vars); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ { // warm the event pool and the ingest caches
		post("20")
		post("21")
	}
	temps := [2]string{"20", "21"}
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		post(temps[i%2])
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state PostEventSync allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestPostEventFeedbackBypassesSeal pins the migration contract: while a
// home is sealed, external posts bounce with ErrHomeSealed but a
// dispatch-feedback post is accepted, and its write reaches the state the
// migration exports.
func TestPostEventFeedbackBypassesSeal(t *testing.T) {
	h := newTestHub(t, WithShards(1))
	seedHome(t, h, "h")
	postTemp(t, h, "h", "20")
	if err := h.SealHome("h"); err != nil {
		t.Fatal(err)
	}
	vars := func(temp string) map[string]string { return map[string]string{"temperature": temp} }
	if err := h.PostEvent("h", device.TypeThermometer, "thermometer", "living room", vars("24")); !errors.Is(err, ErrHomeSealed) {
		t.Fatalf("PostEvent on a sealed home: %v, want ErrHomeSealed", err)
	}
	if err := h.PostEventSync("h", device.TypeThermometer, "thermometer", "living room", vars("25")); !errors.Is(err, ErrHomeSealed) {
		t.Fatalf("PostEventSync on a sealed home: %v, want ErrHomeSealed", err)
	}
	if err := h.PostEventFeedback("h", device.TypeThermometer, "thermometer", "living room", vars("26")); err != nil {
		t.Fatalf("PostEventFeedback on a sealed home: %v, want accepted", err)
	}
	if err := h.Quiesce(); err != nil {
		t.Fatal(err)
	}
	exp, err := h.ExportHome("h")
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := exp.State.Numbers["living room/temperature"]; !ok || got != 26 {
		t.Fatalf("exported temperature = %v, %v; want the feedback write 26", got, ok)
	}
	if got := h.EventsAccepted(); got != 2 {
		t.Fatalf("events accepted = %d, want 2 (the seed post and the feedback)", got)
	}
}
