package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	cadel "repro"
	"repro/internal/home"
)

func newAPI(t *testing.T) (*home.Home, *httptest.Server) {
	t.Helper()
	network := cadel.NewNetwork()
	hm, err := home.New(network, home.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = hm.Close() })
	srv, err := cadel.NewServer(network, cadel.WithClock(hm.Clock.Now))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	for _, u := range []string{"tom", "alan"} {
		if err := srv.RegisterUser(u); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := srv.DiscoverDevices(700 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(srv))
	t.Cleanup(ts.Close)
	return hm, ts
}

func doJSON(t *testing.T, method, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var reader *bytes.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		reader = bytes.NewReader(data)
	} else {
		reader = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, reader)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// homeURL is the fleet API prefix of the home server's one home.
const homeURL = "/fleet/homes/" + cadel.HomeID

func TestUsersEndpoint(t *testing.T) {
	_, ts := newAPI(t)
	resp, body := doJSON(t, http.MethodGet, ts.URL+homeURL+"/users", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET users = %d: %s", resp.StatusCode, body)
	}
	var users []string
	if err := json.Unmarshal(body, &users); err != nil {
		t.Fatal(err)
	}
	if len(users) != 2 {
		t.Errorf("users = %v", users)
	}

	resp, _ = doJSON(t, http.MethodPost, ts.URL+homeURL+"/users",
		map[string]any{"name": "emily", "favorites": []string{"roman holiday"}})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST user = %d", resp.StatusCode)
	}
	resp, _ = doJSON(t, http.MethodPost, ts.URL+homeURL+"/users", map[string]any{"name": "emily"})
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate user = %d, want 409", resp.StatusCode)
	}
}

func TestDevicesAndLookupEndpoints(t *testing.T) {
	_, ts := newAPI(t)
	resp, body := doJSON(t, http.MethodGet, ts.URL+"/api/devices", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET devices = %d", resp.StatusCode)
	}
	var devices []map[string]any
	if err := json.Unmarshal(body, &devices); err != nil {
		t.Fatal(err)
	}
	if len(devices) != 20 {
		t.Errorf("devices = %d, want 20", len(devices))
	}

	resp, body = doJSON(t, http.MethodGet, ts.URL+"/api/lookup?sensor=temperature&location=living+room", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET lookup = %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &devices); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(devices))
	for _, d := range devices {
		names = append(names, d["name"].(string))
	}
	joined := strings.Join(names, ",")
	if !strings.Contains(joined, "thermometer") || !strings.Contains(joined, "air conditioner") {
		t.Errorf("lookup = %s", joined)
	}
}

func TestRuleLifecycleOverHTTP(t *testing.T) {
	_, ts := newAPI(t)

	// Word definition.
	resp, body := doJSON(t, http.MethodPost, ts.URL+homeURL+"/rules", map[string]string{
		"source": "Let's call the condition that temperature is higher than 26 degrees and humidity is higher than 65 percent hot and stuffy",
		"owner":  "tom",
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST word = %d: %s", resp.StatusCode, body)
	}
	var sub struct {
		DefinedWord string `json:"definedWord"`
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.DefinedWord != "hot and stuffy" {
		t.Errorf("definedWord = %q", sub.DefinedWord)
	}

	// Rule using the word.
	resp, body = doJSON(t, http.MethodPost, ts.URL+homeURL+"/rules", map[string]string{
		"source": "If hot and stuffy, turn on the air conditioner with 25 degrees of temperature setting.",
		"owner":  "tom",
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST rule = %d: %s", resp.StatusCode, body)
	}
	var created struct {
		Rule *struct {
			ID string `json:"id"`
		} `json:"rule"`
	}
	if err := json.Unmarshal(body, &created); err != nil || created.Rule == nil {
		t.Fatalf("bad response %s (%v)", body, err)
	}

	// Conflicting rule → 201 with the conflicting rule.
	resp, body = doJSON(t, http.MethodPost, ts.URL+homeURL+"/rules", map[string]string{
		"source": "If temperature is higher than 25 degrees, turn on the air conditioner with 23 degrees of temperature setting.",
		"owner":  "alan",
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("conflicting POST = %d: %s", resp.StatusCode, body)
	}
	var conflicted struct {
		Conflicts []map[string]any `json:"conflicts"`
	}
	if err := json.Unmarshal(body, &conflicted); err != nil || len(conflicted.Conflicts) != 1 {
		t.Fatalf("conflicts = %v (%v)", conflicted.Conflicts, err)
	}

	// Priority setup.
	resp, body = doJSON(t, http.MethodPost, ts.URL+homeURL+"/priority", map[string]any{
		"device":  map[string]string{"name": "air conditioner"},
		"users":   []string{"alan", "tom"},
		"context": "alan got home from work",
	})
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("POST priority = %d: %s", resp.StatusCode, body)
	}

	// Listing and deleting.
	resp, body = doJSON(t, http.MethodGet, ts.URL+homeURL+"/rules", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatal("GET rules failed")
	}
	var rules []map[string]any
	if err := json.Unmarshal(body, &rules); err != nil || len(rules) != 2 {
		t.Fatalf("rules = %s", body)
	}
	resp, _ = doJSON(t, http.MethodDelete, ts.URL+homeURL+"/rules/"+created.Rule.ID, nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE = %d", resp.StatusCode)
	}
	resp, _ = doJSON(t, http.MethodDelete, ts.URL+homeURL+"/rules/"+created.Rule.ID, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("double DELETE = %d, want 404", resp.StatusCode)
	}
}

func TestErrorMapping(t *testing.T) {
	_, ts := newAPI(t)
	tests := []struct {
		name   string
		source string
		owner  string
		status int
	}{
		{
			name:   "unknown user",
			source: "Turn on the tv.",
			owner:  "stranger",
			status: http.StatusNotFound,
		},
		{
			name:   "parse error",
			source: "zorble the frobnicator",
			owner:  "tom",
			status: http.StatusBadRequest,
		},
		{
			name:   "inconsistent",
			source: "If temperature is higher than 30 degrees and temperature is lower than 20 degrees, turn on the fan.",
			owner:  "tom",
			status: http.StatusUnprocessableEntity,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			resp, body := doJSON(t, http.MethodPost, ts.URL+homeURL+"/rules",
				map[string]string{"source": tt.source, "owner": tt.owner})
			if resp.StatusCode != tt.status {
				t.Errorf("status = %d, want %d (%s)", resp.StatusCode, tt.status, body)
			}
		})
	}
}

func TestLogAndExportEndpoints(t *testing.T) {
	hm, ts := newAPI(t)
	if _, body := doJSON(t, http.MethodPost, ts.URL+homeURL+"/rules", map[string]string{
		"source": "If tom is in the living room, turn on the floor lamp.",
		"owner":  "tom",
	}); len(body) == 0 {
		t.Fatal("empty submit response")
	}
	if err := hm.Arrive("tom", "living room", "return-home"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	var entries []map[string]any
	for time.Now().Before(deadline) {
		_, body := doJSON(t, http.MethodGet, ts.URL+homeURL+"/log", nil)
		if err := json.Unmarshal(body, &entries); err == nil && len(entries) > 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(entries) == 0 {
		t.Fatal("no log entries after arrival")
	}
	if entries[0]["device"] != "floor lamp" {
		t.Errorf("log entry = %v", entries[0])
	}

	resp, body := doJSON(t, http.MethodGet, ts.URL+homeURL+"/export", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "floor lamp") {
		t.Errorf("export = %d %s", resp.StatusCode, body)
	}
}

func TestUnknownEndpoint(t *testing.T) {
	_, ts := newAPI(t)
	resp, _ := doJSON(t, http.MethodGet, ts.URL+"/api/nothing", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d, want 404", resp.StatusCode)
	}
}

// TestHomeServerScope checks that a home server serves the fleet API for its
// one home only: no other home, no fleet-wide route, no event injection.
func TestHomeServerScope(t *testing.T) {
	_, ts := newAPI(t)
	for _, tc := range []struct{ method, path string }{
		{http.MethodGet, "/fleet/homes/other/users"},
		{http.MethodPost, homeURL + "/events"},
		{http.MethodGet, "/fleet/homes"},
		{http.MethodGet, "/fleet/stats"},
		{http.MethodPost, "/fleet/compact"},
		{http.MethodGet, "/metrics"},
	} {
		resp, body := doJSON(t, tc.method, ts.URL+tc.path, map[string]any{})
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s = %d, want 404 (%s)", tc.method, tc.path, resp.StatusCode, body)
		}
	}
}

func ExampleNew() {
	fmt.Println("see TestRuleLifecycleOverHTTP for end-to-end usage")
	// Output: see TestRuleLifecycleOverHTTP for end-to-end usage
}
