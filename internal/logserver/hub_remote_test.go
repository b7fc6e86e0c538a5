package logserver_test

// End-to-end: a fleet.Hub journaling through fleet.RemoteStore to a live
// logserver — rehydration across hub restarts and snapshots, and the
// fail-closed degraded mode surfacing as 503 + Retry-After on the hub's own
// HTTP API while reads keep serving.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/logserver"
)

func newRawServer(dir string) (*logserver.Server, error) {
	return logserver.New(logserver.Config{Dir: dir, NoSync: true})
}

func jsonBody(s string) io.Reader { return strings.NewReader(s) }

func get(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func TestHubOverRemoteStoreRehydrates(t *testing.T) {
	_, ts := newServer(t, t.TempDir())

	hub, err := fleet.NewHub(fleet.WithShards(2), fleet.WithStore(fastRemote(ts.URL)))
	if err != nil {
		t.Fatal(err)
	}
	if err := hub.RegisterUser("alpha", "tom"); err != nil {
		t.Fatal(err)
	}
	if _, err := hub.Submit("alpha", "Let's call the condition that humidity is higher than 65 % "+
		"and temperature is higher than 28 degrees hot and stuffy", "tom"); err != nil {
		t.Fatal(err)
	}
	if _, err := hub.Submit("alpha", "If hot and stuffy, turn on the air conditioner "+
		"with 25 degrees of temperature setting.", "tom"); err != nil {
		t.Fatal(err)
	}
	// Compact drives WriteSnapshot through the remote store: the server's
	// log is replaced and the seq table must ride along as seq-marks.
	if err := hub.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := hub.Submit("alpha", "Turn on the light at the hall.", "tom"); err != nil {
		t.Fatal(err)
	}
	if err := hub.Close(); err != nil {
		t.Fatal(err)
	}

	// A restarted hub — a fresh client with fresh seq counters — must
	// rehydrate everything and keep appending without being deduplicated.
	hub2, err := fleet.NewHub(fleet.WithShards(2), fleet.WithStore(fastRemote(ts.URL)))
	if err != nil {
		t.Fatal(err)
	}
	rules, err := hub2.Rules("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("rehydrated rules = %d, want 2", len(rules))
	}
	users, err := hub2.Users("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if len(users) != 1 || users[0] != "tom" {
		t.Fatalf("rehydrated users = %v", users)
	}
	if _, err := hub2.Submit("alpha", "If hot and stuffy, turn on the fan.", "tom"); err != nil {
		t.Fatal(err)
	}
	if err := hub2.Close(); err != nil {
		t.Fatal(err)
	}

	// Third incarnation sees the post-restart rule too: the second hub's
	// appends were applied, not silently deduplicated against stale seqs.
	hub3, err := fleet.NewHub(fleet.WithShards(2), fleet.WithStore(fastRemote(ts.URL)))
	if err != nil {
		t.Fatal(err)
	}
	defer hub3.Close()
	rules, err = hub3.Rules("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 3 {
		t.Fatalf("rules after second restart = %d, want 3", len(rules))
	}
}

func TestHubDegradedStoreFailsClosedWith503(t *testing.T) {
	srv, err := newRawServer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())

	hub, err := fleet.NewHub(fleet.WithShards(1), fleet.WithStore(fastRemote(ts.URL,
		fleet.RemoteWithRetries(2),
		fleet.RemoteWithTimeout(200*time.Millisecond),
		fleet.RemoteWithBreaker(1, 5*time.Second),
	)))
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	if err := hub.RegisterUser("alpha", "tom"); err != nil {
		t.Fatal(err)
	}

	// The log server dies. Writes must fail closed; reads keep serving.
	ts.Close()
	srv.Close()
	api := httptest.NewServer(fleet.NewHTTPHandler(hub))
	defer api.Close()

	resp, err := http.Post(api.URL+"/fleet/homes/alpha/users", "application/json",
		jsonBody(`{"name":"emily"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("write with dead store = %s, want 503", resp.Status)
	}
	// The breaker tripped on the first failure, so the 503 carries its
	// cool-down as Retry-After.
	resp, err = http.Post(api.URL+"/fleet/homes/alpha/users", "application/json",
		jsonBody(`{"name":"emily"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second write = %s, want 503", resp.Status)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("degraded 503 is missing Retry-After")
	}

	// The failed mutation was never applied: memory never outlives the journal.
	var users []string
	get(t, api.URL+"/fleet/homes/alpha/users", &users)
	if len(users) != 1 || users[0] != "tom" {
		t.Fatalf("users after failed write = %v, want [tom]", users)
	}

	// /fleet/stats surfaces the degraded store.
	var stats struct {
		Store *struct {
			Degraded     bool   `json:"degraded"`
			AppendErrors uint64 `json:"append_errors"`
			Health       *struct {
				Degraded          bool `json:"degraded"`
				RetryAfterSeconds int  `json:"retry_after_seconds"`
			} `json:"health"`
		} `json:"store"`
	}
	get(t, api.URL+"/fleet/stats", &stats)
	if stats.Store == nil || !stats.Store.Degraded || stats.Store.Health == nil {
		t.Fatalf("stats store block = %+v, want degraded with health", stats.Store)
	}
	if stats.Store.AppendErrors == 0 {
		t.Fatal("stats store block reports no append errors")
	}
	if stats.Store.Health.RetryAfterSeconds <= 0 {
		t.Fatalf("health retry_after_seconds = %d, want > 0", stats.Store.Health.RetryAfterSeconds)
	}
}
