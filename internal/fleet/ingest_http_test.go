package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/ingest"
	"repro/internal/lang"
	"repro/internal/registry"
	"repro/internal/vocab"
)

// TestErrorStatusTable pins the sentinel-error → HTTP status mapping shared
// by the JSON routes and the event sink.
func TestErrorStatusTable(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{ErrUnknownUser, http.StatusNotFound},
		{ErrForbidden, http.StatusForbidden},
		{ErrInconsistent, http.StatusUnprocessableEntity},
		{ErrClosed, http.StatusServiceUnavailable},
		{lang.ErrParse, http.StatusBadRequest},
		{core.ErrCompile, http.StatusBadRequest},
		{vocab.ErrDuplicate, http.StatusConflict},
		{registry.ErrNotFound, http.StatusNotFound},
		{ErrNoHome, http.StatusNotFound},
		{fmt.Errorf("wrapped: %w", ErrForbidden), http.StatusForbidden},
		{fmt.Errorf("anything else"), http.StatusInternalServerError},
	}
	for _, c := range cases {
		if got := errorStatus(c.err); got != c.want {
			t.Errorf("errorStatus(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// TestHTTPBodyCaps pins the per-route request-body limits: oversized bodies
// answer 413 on every decoding route, the encoding/json routes and the
// event sink alike.
func TestHTTPBodyCaps(t *testing.T) {
	hub := newTestHub(t, WithShards(1))
	ts := httptest.NewServer(NewHTTPHandler(hub,
		WithEventSink(NewEventSink(hub, ingest.Limits{}))))
	defer ts.Close()

	big := strings.Repeat("x", 80<<10)
	for _, route := range []string{
		"/fleet/homes/h/users",
		"/fleet/homes/h/rules",
		"/fleet/homes/h/events",
		"/fleet/homes/h/priority",
	} {
		body := fmt.Sprintf(`{"name":%q}`, big)
		resp, err := http.Post(ts.URL+route, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: oversized body → %d, want 413", route, resp.StatusCode)
		}
	}
}

// TestPostUsersReturnsNormalizedName pins the registration echo: the hub
// registers the normalized form, so the response must carry that name — the
// one later requests (rule owners, priorities) are matched against.
func TestPostUsersReturnsNormalizedName(t *testing.T) {
	hub := newTestHub(t, WithShards(1))
	ts := httptest.NewServer(NewHTTPHandler(hub))
	defer ts.Close()

	resp, body := doJSON(t, ts, "POST", "/fleet/homes/h/users",
		map[string]any{"name": "  ToM   SMITH "})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create user: %d %s", resp.StatusCode, body)
	}
	var name string
	if err := json.Unmarshal(body, &name); err != nil {
		t.Fatal(err)
	}
	if name != "tom smith" {
		t.Fatalf("echoed name = %q, want normalized %q", name, "tom smith")
	}
	users, err := hub.Users("h")
	if err != nil {
		t.Fatal(err)
	}
	if len(users) != 1 || users[0] != name {
		t.Fatalf("hub knows %v, response said %q", users, name)
	}
}

// TestEventSinkBackpressureForcedBacklog stalls a shard, builds a measurable
// backlog behind it, and asserts the sink sheds with 429 + Retry-After while
// the stalled work is still honored once released.
func TestEventSinkBackpressureForcedBacklog(t *testing.T) {
	hub := newTestHub(t, WithShards(1))
	sink := NewEventSink(hub, ingest.Limits{MaxBacklog: 8})
	ts := httptest.NewServer(NewHTTPHandler(hub, WithEventSink(sink)))
	defer ts.Close()

	// Stall the shard: a task that blocks its goroutine until released.
	release := make(chan struct{})
	stalled := make(chan struct{})
	if err := hub.send("h", task{home: "h", fn: func(*Home) {
		close(stalled)
		<-release
	}}); err != nil {
		t.Fatal(err)
	}
	<-stalled

	// Build a backlog past the shed threshold.
	for i := 0; i < 20; i++ {
		postTemp(t, hub, "h", "20")
	}
	// Backlog reads the mailbox directly — HomeStats would block behind the
	// stalled shard here, which is exactly why the admission signal must not
	// run through the shard goroutine.
	if q := hub.Backlog("h"); q <= 8 {
		t.Fatalf("backlog = %d, want > 8", q)
	}

	resp, err := http.Post(ts.URL+"/fleet/homes/h/events", "application/json",
		strings.NewReader(`{"deviceType":"d","name":"n","vars":{"temperature":"21"}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated shard → %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After = %q, want whole seconds >= 1", ra)
	}
	close(release)
	if err := hub.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if q := hub.Backlog("h"); q != 0 {
		t.Fatalf("backlog after release = %d, want 0", q)
	}
	if st, err := hub.HomeStats("h"); err != nil || st.Backlog != 0 {
		t.Fatalf("HomeStats after drain = %+v, %v", st, err)
	}
	// The queued (admitted) events were all applied, none dropped.
	stats, err := hub.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Events != 20 {
		t.Fatalf("events = %d, want the 20 admitted posts", stats.Events)
	}
	if len(stats.ShardQueues) != 1 || stats.ShardQueues[0] != 0 {
		t.Fatalf("shard queues = %v", stats.ShardQueues)
	}
}

// jsonEventHandler is the reference event route the sink is held to: the
// body decoded by encoding/json into a map-shaped request, then posted
// through Hub.PostEvent or, for "sync":true, Hub.PostEventSync. It answers
// with the sink's status contract: 202 for a queued async post, 200 once a
// sync post has been evaluated, 400 malformed, 413 oversized, and the hub's
// error statuses otherwise.
func jsonEventHandler(hub *Hub) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /fleet/homes/{home}/events", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			DeviceType string            `json:"deviceType"`
			Name       string            `json:"name"`
			Location   string            `json:"location"`
			Vars       map[string]string `json:"vars"`
			Sync       bool              `json:"sync"`
		}
		if !decodeBody(w, r, maxEventBody, &req) {
			return
		}
		post, status := hub.PostEvent, http.StatusAccepted
		if req.Sync {
			post, status = hub.PostEventSync, http.StatusOK
		}
		if err := post(r.PathValue("home"), req.DeviceType, req.Name, req.Location, req.Vars); err != nil {
			writeError(w, err)
			return
		}
		w.WriteHeader(status)
	})
	return mux
}

// postBody POSTs raw bytes to an event route and returns the status code.
func postBody(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// TestEventSinkOracleEquivalence feeds the same body bytes through the
// sink and the encoding/json reference handler (on twin hubs) and asserts
// the engine-observed outcome — fired logs, owners, stats — is identical.
func TestEventSinkOracleEquivalence(t *testing.T) {
	fast := newTestHub(t, WithShards(1))
	oracle := newTestHub(t, WithShards(1))
	fastTS := httptest.NewServer(NewHTTPHandler(fast,
		WithEventSink(NewEventSink(fast, ingest.Limits{}))))
	defer fastTS.Close()
	oracleTS := httptest.NewServer(jsonEventHandler(oracle))
	defer oracleTS.Close()
	seedHome(t, fast, "h")
	seedHome(t, oracle, "h")

	bodies := []string{
		// Steady-state sensor churn, async.
		`{"deviceType":"` + device.TypeThermometer + `","name":"thermometer","location":"living room","vars":{"temperature":"31","humidity":"70"}}`,
		`{"deviceType":"` + device.TypeThermometer + `","name":"thermometer","location":"living room","vars":{"temperature":"20"}}`,
		// Escaped keys, unicode, unknown fields, duplicate members.
		`{"deviceType":"` + device.TypeThermometer + `","name":"thermometer","location":"living room","extra":[1,{"a":null}],"vars":{"temperature":"29.5","temperature":"31.5"}}`,
		// Presence + arrival specials.
		`{"deviceType":"sensor","name":"s","location":"hall","vars":{"presence-tom":"living room","event":"tom|come home|1"}}`,
		// Sync post closes each burst so both hubs observe a settled state.
		`{"deviceType":"` + device.TypeThermometer + `","name":"thermometer","location":"living room","vars":{"temperature":"32"},"sync":true}`,
	}
	// Both hubs are quiesced after every post, so each body gets a pass of
	// its own on both. Otherwise async bodies coalesce into passes
	// differently on the twins: a rule that lapses and holds again within
	// one coalesced pass fires once on one hub and twice on the other.
	for i, b := range bodies {
		fr := postBody(t, fastTS.URL+"/fleet/homes/h/events", []byte(b))
		or := postBody(t, oracleTS.URL+"/fleet/homes/h/events", []byte(b))
		if fr.StatusCode != or.StatusCode {
			t.Fatalf("body %d: fast %d, oracle %d", i, fr.StatusCode, or.StatusCode)
		}
		if err := fast.Quiesce(); err != nil {
			t.Fatal(err)
		}
		if err := oracle.Quiesce(); err != nil {
			t.Fatal(err)
		}
	}

	fLog, err1 := fast.Log("h")
	oLog, err2 := oracle.Log("h")
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if len(fLog) != len(oLog) {
		t.Fatalf("fired %d vs oracle %d", len(fLog), len(oLog))
	}
	for i := range fLog {
		if fLog[i].Rule.ID != oLog[i].Rule.ID || !fLog[i].Time.Equal(oLog[i].Time) {
			t.Fatalf("log[%d]: fast %v@%v, oracle %v@%v",
				i, fLog[i].Rule.ID, fLog[i].Time, oLog[i].Rule.ID, oLog[i].Time)
		}
	}
	fOwners, _ := fast.Owners("h")
	oOwners, _ := oracle.Owners("h")
	if !reflect.DeepEqual(fOwners, oOwners) {
		t.Fatalf("owners diverge: fast %v, oracle %v", fOwners, oOwners)
	}
	fCtx, _ := fast.Context("h")
	oCtx, _ := oracle.Context("h")
	if fAt, oAt := fCtx.At("tom", "living room"), oCtx.At("tom", "living room"); !fAt || fAt != oAt {
		t.Fatalf("tom at living room: fast %v, oracle %v (presence event lost?)", fAt, oAt)
	}
	fStats, _ := fast.Stats()
	oStats, _ := oracle.Stats()
	if fStats.Events != oStats.Events {
		t.Fatalf("events: fast %d, oracle %d", fStats.Events, oStats.Events)
	}
}

// TestEventSinkSaturation is the acceptance scenario: on one shard, an
// over-rate flood home is shed with 429 + Retry-After while an in-budget
// calm home on the same shard keeps evaluating — including the dispatch
// feedback its firings generate (the actuated air conditioner reports the
// cooled temperature back into the hub, past admission control). The
// encoding/json reference handler on a twin hub, fed exactly the admitted
// bodies, is the oracle the surviving state must match.
func TestEventSinkSaturation(t *testing.T) {
	feedback := func(hubp **Hub, count *int, mu *sync.Mutex) Dispatcher {
		return func(home string, _ core.DeviceRef, _ core.Action) error {
			mu.Lock()
			*count++
			mu.Unlock()
			// Dispatch feedback enters through PostEvent directly: it must
			// never compete with external clients for admission.
			return (*hubp).PostEvent(home, device.TypeThermometer, "thermometer",
				"living room", map[string]string{"temperature": "20"})
		}
	}
	var fastHub, oracleHub *Hub
	var mu sync.Mutex
	fastFired, oracleFired := 0, 0
	fastHub = newTestHub(t, WithShards(1), WithDispatcher(feedback(&fastHub, &fastFired, &mu)))
	oracleHub = newTestHub(t, WithShards(1), WithDispatcher(feedback(&oracleHub, &oracleFired, &mu)))

	// Admission: sustained 1 ev/s, burst 3, frozen clock — so exactly the
	// first 3 posts of each home are in budget.
	now := time.Unix(1_000_000, 0)
	adm := ingest.NewAdmission(ingest.Limits{Rate: 1, Burst: 3}, fastHub.Backlog,
		ingest.WithAdmissionClock(func() time.Time { return now }))
	fastTS := httptest.NewServer(NewHTTPHandler(fastHub,
		WithEventSink(NewEventSink(fastHub, ingest.Limits{}, ingest.WithAdmission(adm)))))
	defer fastTS.Close()
	oracleTS := httptest.NewServer(jsonEventHandler(oracleHub))
	defer oracleTS.Close()

	for _, hub := range []*Hub{fastHub, oracleHub} {
		seedHome(t, hub, "calm")
		seedHome(t, hub, "flood")
	}

	// Each sync body waits for evaluation AND its dispatch feedback is
	// enqueued before the ack, so the replay order below is deterministic.
	// The feedback is only enqueued, though: a next post that reaches the
	// shard before it drains would share its pass (20 then 31 in one pass
	// leaves the rule ready and fires nothing). Quiescing after every post
	// gives each feedback a pass of its own on both hubs.
	settle := func(h *Hub) {
		t.Helper()
		if err := h.Quiesce(); err != nil {
			t.Fatal(err)
		}
	}
	body := func(temp string) []byte {
		return []byte(`{"deviceType":"` + device.TypeThermometer +
			`","name":"thermometer","location":"living room","vars":{"temperature":"` +
			temp + `"},"sync":true}`)
	}

	// The flood home burns its burst and keeps hammering: 3 admitted, the
	// rest shed with 429 + Retry-After.
	var admitted [][2]string // (home, body) pairs the oracle replays
	shed := 0
	for i := 0; i < 12; i++ {
		b := body("31")
		resp := postBody(t, fastTS.URL+"/fleet/homes/flood/events", b)
		settle(fastHub)
		switch resp.StatusCode {
		case http.StatusOK:
			admitted = append(admitted, [2]string{"flood", string(b)})
		case http.StatusTooManyRequests:
			shed++
			if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
				t.Fatalf("shed response missing Retry-After (got %q)", ra)
			}
		default:
			t.Fatalf("flood post %d: status %d", i, resp.StatusCode)
		}
		// The calm home stays in budget: one post per three flood posts.
		if i%4 == 3 {
			b := body("31")
			resp := postBody(t, fastTS.URL+"/fleet/homes/calm/events", b)
			settle(fastHub)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("calm post at flood step %d: status %d — in-budget home was starved", i, resp.StatusCode)
			}
			admitted = append(admitted, [2]string{"calm", string(b)})
		}
	}
	if shed != 9 {
		t.Fatalf("shed %d flood posts, want 9 of 12", shed)
	}

	// Oracle replay: the same admitted bodies, same order, reference handler.
	for _, ab := range admitted {
		resp := postBody(t, oracleTS.URL+"/fleet/homes/"+ab[0]+"/events", []byte(ab[1]))
		settle(oracleHub)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("oracle replay %s: status %d", ab[0], resp.StatusCode)
		}
	}
	for _, hub := range []*Hub{fastHub, oracleHub} {
		if err := hub.Quiesce(); err != nil { // drain trailing feedback
			t.Fatal(err)
		}
		if err := hub.Quiesce(); err != nil {
			t.Fatal(err)
		}
	}

	// Every admitted 31° fires (its feedback cools the home back down before
	// the next sync post), so calm fired 3× and flood fired 3× on each hub —
	// and every firing's feedback event was ingested, never shed.
	mu.Lock()
	ff, of := fastFired, oracleFired
	mu.Unlock()
	if ff != of {
		t.Fatalf("dispatch count: fast %d, oracle %d", ff, of)
	}
	for _, home := range []string{"calm", "flood"} {
		fLog, _ := fastHub.Log(home)
		oLog, _ := oracleHub.Log(home)
		if len(fLog) != len(oLog) || len(fLog) == 0 {
			t.Fatalf("%s: fired %d vs oracle %d", home, len(fLog), len(oLog))
		}
		fCtx, _ := fastHub.Context(home)
		oCtx, _ := oracleHub.Context(home)
		if fv, fok := fCtx.Number("temperature"); true {
			ov, ook := oCtx.Number("temperature")
			if fok != ook || fv != ov {
				t.Fatalf("%s: temperature fast %v,%v oracle %v,%v — lost feedback event", home, fv, fok, ov, ook)
			}
			if fv != 20 {
				t.Fatalf("%s: temperature = %v, want 20 (the feedback write)", home, fv)
			}
		}
	}
	if calmLog, _ := fastHub.Log("calm"); len(calmLog) != 3 {
		t.Fatalf("calm fired %d times, want every one of its 3 admitted events", len(calmLog))
	}
	st, _ := fastHub.Stats()
	// 6 admitted posts + 6 feedback events; the 9 shed posts never reached
	// the hub.
	if st.Events != 12 {
		t.Fatalf("hub accepted %d events, want 12 (6 admitted + 6 feedback)", st.Events)
	}
}
