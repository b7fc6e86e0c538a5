package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/ingest"
)

// TestMetricsEndpoint: the Prometheus exposition carries the engine and
// ingest counters of real traffic, the transport-side gauges, and the
// admission shed counters.
func TestMetricsEndpoint(t *testing.T) {
	hub := newTestHub(t, WithShards(2))
	ts := httptest.NewServer(NewHTTPHandler(hub,
		WithEventSink(NewEventSink(hub, ingest.Limits{}))))
	defer ts.Close()

	seedHome(t, hub, "h1")
	seedHome(t, hub, "h2")
	for i := 0; i < 4; i++ {
		resp := postBody(t, ts.URL+"/fleet/homes/h1/events",
			[]byte(`{"deviceType":"`+device.TypeThermometer+
				`","name":"thermometer","location":"living room","vars":{"temperature":"31"},"sync":true}`))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post %d: %d", i, resp.StatusCode)
		}
	}
	// One malformed body: must count as a decode error, not a decoded event.
	if resp := postBody(t, ts.URL+"/fleet/homes/h1/events",
		[]byte(`{"deviceType":`)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed post: %d", resp.StatusCode)
	}

	resp, body := doJSON(t, ts, "GET", "/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	out := string(body)
	for _, want := range []string{
		"cadel_homes 2",
		"cadel_ingest_events_decoded_total 4",
		"cadel_ingest_decode_errors_total 1",
		"cadel_events_posted_total 4",
		`cadel_ingest_shed_total{cause="rate"} 0`,
		`cadel_ingest_shed_total{cause="backlog"} 0`,
		`cadel_shard_queue_depth{shard="0"}`,
		`cadel_shard_queue_depth{shard="1"}`,
		"cadel_ingest_decode_duration_ns_count 4",
		"# TYPE cadel_engine_passes_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The sync posts evaluated before answering and the scrape runs a flush
	// barrier, so the pass/fire counters are deterministic: one pass and one
	// firing per posted event (h1's first event fires, later ones keep state).
	var passes, fired uint64
	for _, line := range strings.Split(out, "\n") {
		if n, err := fmt.Sscanf(line, "cadel_engine_passes_total %d", &passes); n == 1 && err == nil {
			continue
		}
		_, _ = fmt.Sscanf(line, "cadel_engine_rules_fired_total %d", &fired)
	}
	// Submit/SetUsers also tick, so passes exceed the event count; the exact
	// floor is the 4 evaluated events.
	if passes < 4 {
		t.Errorf("passes = %d, want >= 4", passes)
	}
	if fired != 1 {
		t.Errorf("rules fired = %d, want exactly 1 (repeat events keep state)", fired)
	}

	// /fleet/stats carries the same totals plus admission stats.
	resp, body = doJSON(t, ts, "GET", "/fleet/stats", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /fleet/stats: %d", resp.StatusCode)
	}
	var st statsBody
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Totals.EventsDecoded != 4 || st.Totals.DecodeErrors != 1 {
		t.Errorf("stats totals = %+v", st.Totals)
	}
	if st.Admission == nil {
		t.Error("stats missing admission block")
	}
	if st.Passes != st.Totals.Passes {
		t.Errorf("Stats.Passes = %d, Totals.Passes = %d — plumbing diverged", st.Passes, st.Totals.Passes)
	}
}

// TestShardEventsMetric: /metrics splits evaluated events by where they
// ran. A post to an idle shard runs inline; posts that arrive while the
// shard goroutine holds the shard queue, and the goroutine evaluates them.
func TestShardEventsMetric(t *testing.T) {
	hub := newTestHub(t, WithShards(1))
	ts := httptest.NewServer(NewHTTPHandler(hub))
	defer ts.Close()
	seedHome(t, hub, "h")
	s := hub.shardFor("h")
	waitIdle(t, s)
	postTemp(t, hub, "h", "31")

	gate, entered := make(chan struct{}), make(chan struct{})
	if !s.mb.put(task{shardFn: func(*shard) { close(entered); <-gate }}) {
		t.Fatal("mailbox closed")
	}
	<-entered
	for _, v := range []string{"20", "31", "25"} {
		postTemp(t, hub, "h", v)
	}
	close(gate)
	if err := hub.Quiesce(); err != nil {
		t.Fatal(err)
	}

	resp, body := doJSON(t, ts, "GET", "/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	for _, want := range []string{
		"# TYPE cadel_shard_events_total counter",
		`cadel_shard_events_total{path="inline"} 1` + "\n",
		`cadel_shard_events_total{path="queued"} 3` + "\n",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestRuleTemplateMetrics: /metrics counts rule compiles by how they were
// served and the templates live in the shard tables. Three homes with one
// vocabulary submit one text: the first compiles it, the other two share
// its template, and removing the three rules empties the table.
func TestRuleTemplateMetrics(t *testing.T) {
	hub := newTestHub(t, WithShards(1))
	ts := httptest.NewServer(NewHTTPHandler(hub))
	defer ts.Close()
	homes := []string{"h1", "h2", "h3"}
	for _, home := range homes {
		seedHome(t, hub, home)
	}
	scrape := func(wants ...string) {
		t.Helper()
		resp, body := doJSON(t, ts, "GET", "/metrics", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /metrics: %d", resp.StatusCode)
		}
		for _, want := range wants {
			if !strings.Contains(string(body), want) {
				t.Errorf("exposition missing %q", want)
			}
		}
	}
	scrape(
		"# TYPE cadel_rule_templates gauge\ncadel_rule_templates 1\n",
		"# TYPE cadel_rule_compiles_total counter\n",
		`cadel_rule_compiles_total{result="shared"} 2`+"\n",
		`cadel_rule_compiles_total{result="compiled"} 1`+"\n",
	)
	for _, home := range homes {
		rules, err := hub.Rules(home)
		if err != nil || len(rules) != 1 {
			t.Fatalf("%s rules = %v, %v", home, rules, err)
		}
		if err := hub.RemoveRule(home, rules[0].ID); err != nil {
			t.Fatal(err)
		}
	}
	scrape("cadel_rule_templates 0\n", `cadel_rule_compiles_total{result="shared"} 2`+"\n")
}

// TestTraceEndpointHandoffExplain is the acceptance scenario: the trace
// endpoint, filtered to one device, reproduces the paper's Fig. 1 hand-off —
// which rule won the device, which lost, and the arbitration reason.
func TestTraceEndpointHandoffExplain(t *testing.T) {
	hub := newTestHub(t, WithShards(1))
	ts := httptest.NewServer(NewHTTPHandler(hub))
	defer ts.Close()

	home := "h1"
	for _, u := range []string{"alan", "emily"} {
		if err := hub.RegisterUser(home, u); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := hub.Submit(home, "If alan is in the living room, turn on the stereo.", "alan"); err != nil {
		t.Fatal(err)
	}
	if _, err := hub.Submit(home, "If emily is in the living room, turn on the stereo.", "emily"); err != nil {
		t.Fatal(err)
	}
	// Contextual priority: while emily is in the living room, she outranks
	// alan on the stereo.
	if err := hub.SetPriority(home, core.DeviceRef{Name: "stereo"}, []string{"emily", "alan"},
		"emily is in the living room"); err != nil {
		t.Fatal(err)
	}

	// Alan alone: his rule takes the stereo. Then emily walks in: contextual
	// order applies and the stereo hands off to her rule.
	for _, vars := range []map[string]string{
		{"presence-alan": "living room"},
		{"presence-emily": "living room"},
	} {
		if err := hub.PostEventSync(home, device.TypePresenceSensor, "presence sensor", "home", vars); err != nil {
			t.Fatal(err)
		}
	}

	resp, body := doJSON(t, ts, "GET", "/fleet/homes/"+home+"/trace?device=stereo", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: %d %s", resp.StatusCode, body)
	}
	var traces []engine.PassTrace
	if err := json.Unmarshal(body, &traces); err != nil {
		t.Fatal(err)
	}
	if len(traces) == 0 {
		t.Fatalf("no stereo traces: %s", body)
	}
	var handoff *engine.TraceDecision
	for i := range traces {
		for j := range traces[i].Decisions {
			d := &traces[i].Decisions[j]
			if d.Winner == "emily-2" && len(d.Losers) > 0 {
				handoff = d
			}
		}
	}
	if handoff == nil {
		t.Fatalf("no hand-off decision: %s", body)
	}
	if handoff.Device != "stereo" || !handoff.Fired || handoff.Owner != "emily" {
		t.Errorf("hand-off = %+v", handoff)
	}
	if handoff.Losers[0].Rule != "alan-1" || handoff.Losers[0].Owner != "alan" {
		t.Errorf("losers = %+v, want alan-1", handoff.Losers)
	}
	if !strings.Contains(handoff.Reason, `"emily"`) ||
		!strings.Contains(handoff.Reason, "#1") ||
		!strings.Contains(handoff.Reason, "emily is in the living room") {
		t.Errorf("reason = %q, want emily ranked #1 under the contextual order", handoff.Reason)
	}

	// The rule filter keeps only decisions mentioning the losing rule.
	resp, body = doJSON(t, ts, "GET", "/fleet/homes/"+home+"/trace?rule=alan-1", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace?rule: %d", resp.StatusCode)
	}
	var byRule []engine.PassTrace
	if err := json.Unmarshal(body, &byRule); err != nil {
		t.Fatal(err)
	}
	if len(byRule) == 0 {
		t.Fatalf("rule filter dropped everything: %s", body)
	}
	for _, p := range byRule {
		for _, d := range p.Decisions {
			if d.Winner != "alan-1" && !mentionsLoser(d, "alan-1") {
				t.Errorf("rule filter leaked decision %+v", d)
			}
		}
	}

	// A device nobody owns filters to an empty (non-null) array.
	resp, body = doJSON(t, ts, "GET", "/fleet/homes/"+home+"/trace?device=toaster", nil)
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "[]" {
		t.Errorf("empty filter: %d %q", resp.StatusCode, body)
	}

	// n caps the newest passes.
	resp, body = doJSON(t, ts, "GET", "/fleet/homes/"+home+"/trace?n=1", nil)
	var capped []engine.PassTrace
	if err := json.Unmarshal(body, &capped); err != nil {
		t.Fatal(err)
	}
	if len(capped) != 1 {
		t.Errorf("n=1 returned %d passes", len(capped))
	}

	// Unknown home: 404, not a materialized home.
	if resp, _ := doJSON(t, ts, "GET", "/fleet/homes/ghost/trace", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("ghost home trace: %d, want 404", resp.StatusCode)
	}
}

func mentionsLoser(d engine.TraceDecision, rule string) bool {
	for _, l := range d.Losers {
		if l.Rule == rule {
			return true
		}
	}
	return false
}

// TestMetricsTraceUnderSaturation hammers the observability endpoints while
// PostEventFast traffic saturates the shards — run under -race, this is the
// data-race gate for the whole scrape/trace path.
func TestMetricsTraceUnderSaturation(t *testing.T) {
	hub := newTestHub(t, WithShards(2), WithTraceLimit(8))
	ts := httptest.NewServer(NewHTTPHandler(hub,
		WithEventSink(NewEventSink(hub, ingest.Limits{}))))
	defer ts.Close()

	homes := []string{"h1", "h2", "h3"}
	for _, home := range homes {
		seedHome(t, hub, home)
	}

	const posters, readers, iters = 4, 3, 150
	var wg sync.WaitGroup
	for p := 0; p < posters; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				home := homes[(p+i)%len(homes)]
				temp := fmt.Sprintf("%d", 25+(i%10))
				resp := postBody(t, ts.URL+"/fleet/homes/"+home+"/events",
					[]byte(`{"deviceType":"`+device.TypeThermometer+
						`","name":"thermometer","location":"living room","vars":{"temperature":"`+temp+`"}}`))
				if resp.StatusCode != http.StatusAccepted {
					t.Errorf("post: %d", resp.StatusCode)
					return
				}
			}
		}(p)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < iters/3; i++ {
				switch i % 3 {
				case 0:
					if resp, _ := doJSON(t, ts, "GET", "/metrics", nil); resp.StatusCode != http.StatusOK {
						t.Errorf("metrics: %d", resp.StatusCode)
					}
				case 1:
					if resp, _ := doJSON(t, ts, "GET", "/fleet/homes/"+homes[r%len(homes)]+"/trace", nil); resp.StatusCode != http.StatusOK {
						t.Errorf("trace: %d", resp.StatusCode)
					}
				default:
					if resp, _ := doJSON(t, ts, "GET", "/fleet/stats", nil); resp.StatusCode != http.StatusOK {
						t.Errorf("stats: %d", resp.StatusCode)
					}
				}
			}
		}(r)
	}
	wg.Wait()
	if err := hub.Quiesce(); err != nil {
		t.Fatal(err)
	}

	// Settled counts: every post decoded and evaluated, nothing lost.
	m := hub.Metrics()
	tot := m.Totals()
	if tot.EventsDecoded != posters*iters {
		t.Errorf("events decoded = %d, want %d", tot.EventsDecoded, posters*iters)
	}
	if tot.Passes == 0 || tot.RulesChecked == 0 {
		t.Errorf("totals not populated: %+v", tot)
	}
}
