package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/device"
)

func doJSON(t *testing.T, ts *httptest.Server, method, path string, body any) (*http.Response, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, ts.URL+path, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	_, _ = out.ReadFrom(resp.Body)
	return resp, out.Bytes()
}

func TestFleetHTTPEndToEnd(t *testing.T) {
	hub := newTestHub(t, WithShards(2))
	ts := httptest.NewServer(NewHTTPHandler(hub))
	defer ts.Close()

	// Register users and submit rules into two homes.
	for _, home := range []string{"h1", "h2"} {
		resp, body := doJSON(t, ts, "POST", "/fleet/homes/"+home+"/users",
			map[string]any{"name": "tom"})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("%s: create user: %d %s", home, resp.StatusCode, body)
		}
		resp, body = doJSON(t, ts, "POST", "/fleet/homes/"+home+"/rules",
			map[string]any{"source": hotRule, "owner": "tom"})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("%s: submit: %d %s", home, resp.StatusCode, body)
		}
		var sub submitBody
		if err := json.Unmarshal(body, &sub); err != nil {
			t.Fatal(err)
		}
		if sub.Rule == nil || sub.Rule.ID != "tom-1" {
			t.Fatalf("%s: submit body = %s", home, body)
		}
	}

	// Bad submissions map to client errors.
	if resp, _ := doJSON(t, ts, "POST", "/fleet/homes/h1/rules",
		map[string]any{"source": hotRule, "owner": "ghost"}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown user: status %d", resp.StatusCode)
	}
	if resp, _ := doJSON(t, ts, "POST", "/fleet/homes/h1/rules",
		map[string]any{"source": "utter gibberish blargh.", "owner": "tom"}); resp.StatusCode >= 500 {
		t.Fatalf("parse failure returned a server error: %d", resp.StatusCode)
	}

	// Post a sensor event into h1 only (sync, so the log is ready to read).
	resp, body := doJSON(t, ts, "POST", "/fleet/homes/h1/events", map[string]any{
		"deviceType": device.TypeThermometer,
		"name":       "thermometer",
		"location":   "living room",
		"vars":       map[string]string{"temperature": "31"},
		"sync":       true,
	})
	if resp.StatusCode != http.StatusOK { // sync post: evaluation already done
		t.Fatalf("post event: %d %s", resp.StatusCode, body)
	}

	var log []firedBody
	resp, body = doJSON(t, ts, "GET", "/fleet/homes/h1/log", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get log: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &log); err != nil {
		t.Fatal(err)
	}
	if len(log) != 1 || log[0].Device != "air conditioner" || log[0].Owner != "tom" {
		t.Fatalf("h1 log = %s", body)
	}
	resp, body = doJSON(t, ts, "GET", "/fleet/homes/h2/log", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatal("get h2 log failed")
	}
	var log2 []firedBody
	if err := json.Unmarshal(body, &log2); err != nil {
		t.Fatal(err)
	}
	if len(log2) != 0 {
		t.Fatalf("h2 log = %s, want empty (homes are isolated)", body)
	}

	// Priority + rules listing + delete.
	if resp, body := doJSON(t, ts, "POST", "/fleet/homes/h1/priority", map[string]any{
		"device": map[string]string{"name": "air conditioner"},
		"users":  []string{"tom"},
	}); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("set priority: %d %s", resp.StatusCode, body)
	}
	if resp, _ := doJSON(t, ts, "DELETE", "/fleet/homes/h2/rules/tom-1", nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete rule: %d", resp.StatusCode)
	}
	var rules []ruleBody
	_, body = doJSON(t, ts, "GET", "/fleet/homes/h2/rules", nil)
	if err := json.Unmarshal(body, &rules); err != nil {
		t.Fatal(err)
	}
	if len(rules) != 0 {
		t.Fatalf("h2 rules after delete = %s", body)
	}

	// Homes + stats.
	var homes []string
	_, body = doJSON(t, ts, "GET", "/fleet/homes", nil)
	if err := json.Unmarshal(body, &homes); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(homes) != "[h1 h2]" {
		t.Fatalf("homes = %v", homes)
	}
	var st Stats
	_, body = doJSON(t, ts, "GET", "/fleet/stats", nil)
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Homes != 2 || st.Events != 1 || st.Shards != 2 {
		t.Fatalf("stats = %+v", st)
	}
	// Compact without a store is a no-op, not an error.
	if resp, _ := doJSON(t, ts, "POST", "/fleet/compact", nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("compact: %d", resp.StatusCode)
	}

	// Export serves the home's rule sources (normalized by the lexer).
	resp, body = doJSON(t, ts, "GET", "/fleet/homes/h1/export", nil)
	var export struct {
		Rules []struct{ Source string }
	}
	if err := json.Unmarshal(body, &export); err != nil || resp.StatusCode != http.StatusOK ||
		len(export.Rules) != 1 || !strings.EqualFold(export.Rules[0].Source, strings.TrimSuffix(hotRule, ".")) {
		t.Fatalf("export: %d %s (%v)", resp.StatusCode, body, err)
	}

	// Arbitration: a second owner's rule for the same device loses to tom's,
	// and the log entry names it as suppressed.
	if resp, body := doJSON(t, ts, "POST", "/fleet/homes/h1/users",
		map[string]any{"name": "alan"}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create alan: %d %s", resp.StatusCode, body)
	}
	resp, body = doJSON(t, ts, "POST", "/fleet/homes/h1/rules",
		map[string]any{"source": hotRule, "owner": "alan"})
	var alans submitBody
	if err := json.Unmarshal(body, &alans); err != nil || resp.StatusCode != http.StatusCreated || alans.Rule == nil {
		t.Fatalf("submit alan's rule: %d %s (%v)", resp.StatusCode, body, err)
	}
	if resp, body := doJSON(t, ts, "POST", "/fleet/homes/h1/priority", map[string]any{
		"device": map[string]string{"name": "air conditioner"},
		"users":  []string{"tom", "alan"},
	}); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("set priority: %d %s", resp.StatusCode, body)
	}
	for _, temp := range []string{"20", "32"} {
		if resp, body := doJSON(t, ts, "POST", "/fleet/homes/h1/events", map[string]any{
			"deviceType": device.TypeThermometer,
			"name":       "thermometer",
			"location":   "living room",
			"vars":       map[string]string{"temperature": temp},
			"sync":       true,
		}); resp.StatusCode != http.StatusOK {
			t.Fatalf("post event: %d %s", resp.StatusCode, body)
		}
	}
	_, body = doJSON(t, ts, "GET", "/fleet/homes/h1/log", nil)
	log = nil
	if err := json.Unmarshal(body, &log); err != nil {
		t.Fatal(err)
	}
	last := log[len(log)-1]
	if last.Owner != "tom" || len(last.Suppressed) != 1 || last.Suppressed[0] != alans.Rule.ID {
		t.Fatalf("h1 log after arbitration = %s", body)
	}
}
