package fleet

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/device"
	"repro/internal/engine"
)

// TestHubHomeStatsAndCompact covers the per-home observability and
// compaction operations at the hub level: stats report the symbol
// footprint, removals grow the dead estimate, a forced epoch shrinks the
// table and resets it, and the home keeps evaluating afterwards.
func TestHubHomeStatsAndCompact(t *testing.T) {
	h := newTestHub(t, WithShards(1))

	// Reads on unknown homes fail without materializing them.
	if _, err := h.HomeStats("ghost"); !errors.Is(err, ErrNoHome) {
		t.Fatalf("HomeStats(ghost) err = %v, want ErrNoHome", err)
	}
	if _, _, err := h.CompactHome("ghost"); !errors.Is(err, ErrNoHome) {
		t.Fatalf("CompactHome(ghost) err = %v, want ErrNoHome", err)
	}
	if homes, _ := h.Homes(); len(homes) != 0 {
		t.Fatalf("probing ghost homes materialized %v", homes)
	}

	seedHome(t, h, "casa")
	st, err := h.HomeStats("casa")
	if err != nil {
		t.Fatal(err)
	}
	if st.Users != 1 || st.Rules != 1 || st.Symbols.Symbols == 0 || st.Symbols.Epoch != 0 {
		t.Fatalf("seeded stats = %+v", st)
	}
	before := st.Symbols.Symbols

	if err := h.RemoveRule("casa", "tom-1"); err != nil {
		t.Fatal(err)
	}
	if st, _ = h.HomeStats("casa"); st.Symbols.DeadEstimate == 0 {
		t.Fatalf("dead estimate zero after removal: %+v", st.Symbols)
	}

	cst, compacted, err := h.CompactHome("casa")
	if err != nil || !compacted {
		t.Fatalf("CompactHome = %+v, %v, %v", cst, compacted, err)
	}
	if cst.Epoch != 1 || cst.After >= before {
		t.Fatalf("compaction epoch = %+v, want epoch 1 and a smaller table than %d", cst, before)
	}
	if st, _ = h.HomeStats("casa"); st.Symbols.DeadEstimate != 0 || st.Symbols.Epoch != 1 {
		t.Fatalf("post-compaction stats = %+v", st.Symbols)
	}

	// The home still compiles, evaluates and fires on the renumbered ids.
	if _, err := h.Submit("casa", hotRule, "tom"); err != nil {
		t.Fatal(err)
	}
	postTemp(t, h, "casa", "31")
	if err := h.Quiesce(); err != nil {
		t.Fatal(err)
	}
	log, err := h.Log("casa")
	if err != nil {
		t.Fatal(err)
	}
	if len(log) != 1 || log[0].Rule.Device.Key() != "air conditioner" {
		t.Fatalf("post-compaction log = %v", log)
	}
}

// TestHubCompactOracleModes: a full-scan hub reports compacted=false (no
// ids to compact) rather than an error.
func TestHubCompactOracleModes(t *testing.T) {
	h := newTestHub(t, WithShards(1), WithFullScan())
	seedHome(t, h, "casa")
	if _, compacted, err := h.CompactHome("casa"); err != nil || compacted {
		t.Fatalf("CompactHome on full-scan hub = %v, %v, want false, nil", compacted, err)
	}
}

// TestFleetHTTPStatsAndCompact covers the HTTP surface of the two new
// endpoints, including 404s for unknown homes.
func TestFleetHTTPStatsAndCompact(t *testing.T) {
	hub := newTestHub(t, WithShards(2))
	ts := httptest.NewServer(NewHTTPHandler(hub))
	defer ts.Close()

	if resp, _ := doJSON(t, ts, "GET", "/fleet/homes/ghost/stats", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost stats: %d", resp.StatusCode)
	}
	if resp, _ := doJSON(t, ts, "POST", "/fleet/homes/ghost/compact", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost compact: %d", resp.StatusCode)
	}

	seedHome(t, hub, "casa")
	var st HomeStats
	resp, body := doJSON(t, ts, "GET", "/fleet/homes/casa/stats", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get stats: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Home != "casa" || st.Rules != 1 || st.Symbols.Symbols == 0 {
		t.Fatalf("stats body = %s", body)
	}

	if err := hub.RemoveRule("casa", "tom-1"); err != nil {
		t.Fatal(err)
	}
	resp, body = doJSON(t, ts, "POST", "/fleet/homes/casa/compact", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post compact: %d %s", resp.StatusCode, body)
	}
	var cb compactBody
	if err := json.Unmarshal(body, &cb); err != nil {
		t.Fatal(err)
	}
	if !cb.Compacted || cb.Epoch != 1 || cb.After >= cb.Before {
		t.Fatalf("compact body = %s", body)
	}
}

// TestHubDefaultLogLimit: fleet homes bound their fired-action logs by
// default; the engine keeps at most ~2x DefaultLogLimit entries between
// trims, and WithLogLimit(0) restores the unbounded log.
func TestHubDefaultLogLimit(t *testing.T) {
	events := DefaultLogLimit * 5 // threshold flips every other event → events/2 fires
	wantFires := events / 2
	run := func(t *testing.T, opts ...HubOption) []engine.Fired {
		h := newTestHub(t, append([]HubOption{WithShards(1)}, opts...)...)
		seedHome(t, h, "casa")
		for i := 0; i < events; i++ {
			v := "31"
			if i%2 == 1 {
				v = "20"
			}
			if err := h.PostEventSync("casa", device.TypeThermometer,
				"thermometer", "living room", map[string]string{"temperature": v}); err != nil {
				t.Fatal(err)
			}
		}
		log, err := h.Log("casa")
		if err != nil {
			t.Fatal(err)
		}
		return log
	}
	if log := run(t); len(log) > 2*DefaultLogLimit || len(log) == wantFires {
		t.Fatalf("default hub log holds %d entries, want a trimmed ring <= %d", len(log), 2*DefaultLogLimit)
	}
	if log := run(t, WithLogLimit(0)); len(log) != wantFires {
		t.Fatalf("unbounded hub log holds %d entries, want %d", len(log), wantFires)
	}
}
