package ring

import (
	"context"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/fleet"
)

// TestPostRoutedBeforeReleaseIsNotLost: a post the source routed to itself
// before a migration, and that reaches the hub only after the release, is
// refused (503; the client's retry is redirected to the new owner). It is
// never applied to a fresh, empty home on the source and acknowledged.
func TestPostRoutedBeforeReleaseIsNotLost(t *testing.T) {
	twinTap := &tap{}
	twin, err := fleet.NewHub(
		fleet.WithShards(1),
		fleet.WithClock(testClock()),
		fleet.WithDispatcher(twinTap.dispatch),
		fleet.WithLogLimit(0),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = twin.Close() }()

	fleetTap := &tap{}
	a, b := newTestNode(t, fleetTap), newTestNode(t, fleetTap)
	// Hold the first event post between routing and the hub.
	routed, deliver := make(chan struct{}), make(chan struct{})
	var once sync.Once
	a.wrap = func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/events") {
				once.Do(func() {
					close(routed)
					<-deliver
				})
			}
			next.ServeHTTP(w, r)
		})
	}
	peers := []string{a.addr, b.addr}
	a.start(peers)
	b.start(peers)

	// A home the ring places on the source, so the source routes the post
	// to its own hub instead of redirecting it.
	home := ""
	for i := 0; home == ""; i++ {
		if h := fmt.Sprintf("home-%d", i); a.node().Ring().Owner(h) == a.addr {
			home = h
		}
	}
	for _, h := range []*fleet.Hub{a.hub(), twin} {
		seedHome(t, h, home)
		postTemp(t, h, home, "31")
	}

	answered := make(chan int, 1)
	go func() {
		resp, err := noRedirect.Post(a.srv.URL+"/fleet/homes/"+home+"/events", "application/json",
			strings.NewReader(`{"deviceType":"thermometer","name":"thermometer","location":"living room","vars":{"temperature":"20"}}`))
		if err != nil {
			t.Error(err)
			answered <- 0
			return
		}
		resp.Body.Close()
		answered <- resp.StatusCode
	}()
	<-routed
	if err := a.node().Migrate(context.Background(), home, b.addr); err != nil {
		t.Fatal(err)
	}
	close(deliver)
	if code := <-answered; code != http.StatusServiceUnavailable && code != http.StatusTemporaryRedirect {
		t.Errorf("post routed before the release answered %d, want 503 or 307", code)
	}
	if hasHome(t, a.hub(), home) {
		t.Error("the late post recreated the released home on the source")
	}

	// The refused post never happened; the home carries on on the target
	// exactly like the twin.
	for _, temp := range []string{"20", "31"} {
		postTemp(t, b.hub(), home, temp)
		postTemp(t, twin, home, temp)
	}
	if got, want := firedStrings(t, b.hub(), home), firedStrings(t, twin, home); !reflect.DeepEqual(got, want) {
		t.Errorf("target log diverged:\n target: %v\n twin:   %v", got, want)
	}
	if got, want := fleetTap.sorted(), twinTap.sorted(); !reflect.DeepEqual(got, want) {
		t.Errorf("dispatch streams diverged:\n fleet: %v\n twin:  %v", got, want)
	}
}
