package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/ingest"
	"repro/internal/rawhttp"
)

// simTime is the fixed instant every hub's clock reports (the evening of
// the paper's Fig. 1), so evaluation does not depend on when a run starts.
var simTime = time.Date(2005, 3, 7, 18, 0, 0, 0, time.UTC)

// fleetRule is the one rule of the light workloads; its action is the timed
// probe action there.
const fleetRule = "If temperature is higher than 28 degrees, turn on the air conditioner."

const thermometer = "urn:cadel-home:device:Thermometer:1"

// newHub builds a hub the way cmd/homeserver -fleet does: one shard per
// CPU, 4 dispatch workers, default log and trace limits and a per-home
// lexicon, plus the fixed clock and the ledger as dispatcher.
func newHub(led *ledger, opts ...fleet.HubOption) (*fleet.Hub, error) {
	return fleet.NewHub(append([]fleet.HubOption{
		fleet.WithDispatchWorkers(4),
		fleet.WithClock(func() time.Time { return simTime }),
		fleet.WithDispatcher(led.dispatch),
	}, opts...)...)
}

// forEach runs fn(i) for i in [0, n) on one goroutine per CPU, so homes on
// different shards are seeded in parallel.
func forEach(n int, fn func(i int) error) error {
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < n; i += workers {
				if err := fn(i); err != nil {
					errs[w] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// passCounts returns the evaluation passes each home has run so far.
func passCounts(hub *fleet.Hub, ids []string) ([]uint64, error) {
	out := make([]uint64, len(ids))
	err := forEach(len(ids), func(i int) (err error) {
		out[i], err = hub.Passes(ids[i])
		return err
	})
	return out, err
}

// homeIDs returns n home ids with the given prefix.
func homeIDs(prefix string, n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("%s-%05d", prefix, i)
	}
	return ids
}

// shuffled returns 0..n-1 in an order fixed by the seed.
func shuffled(rng *rand.Rand, n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// eventBody renders one device event as the event route expects it. A
// sync event is acknowledged (200) only once the home has evaluated it.
func eventBody(deviceType, name, location string, vars map[string]string, sync bool) []byte {
	body, err := json.Marshal(struct {
		DeviceType string            `json:"deviceType"`
		Name       string            `json:"name"`
		Location   string            `json:"location,omitempty"`
		Vars       map[string]string `json:"vars"`
		Sync       bool              `json:"sync,omitempty"`
	}{deviceType, name, location, vars, sync})
	if err != nil {
		panic(err) // a map of strings always marshals
	}
	return body
}

// request renders one HTTP/1.1 request with a body.
func request(method, path string, body []byte) []byte {
	return fmt.Appendf(nil, "%s %s HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		method, path, len(body), body)
}

func eventPath(home string) string { return "/fleet/homes/" + home + "/events" }

// server is a listener and the goroutine serving it.
type server struct {
	addr  string
	close func()
	done  chan struct{}
}

func (s *server) stop() {
	s.close()
	<-s.done
}

func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// serveRaw serves the raw-socket transport for hub. Untraced, it is the
// production assembly, fleet.NewRawIngest over fleet.NewEventSink. Traced,
// the same parts are assembled around the wrappers; the sink then lacks
// the hub's error-to-status table, which no benchmark response exercises.
func serveRaw(hub *fleet.Hub, led *ledger) (*server, error) {
	ln, err := listen()
	if err != nil {
		return nil, err
	}
	var srv *rawhttp.Server
	if led.spans == nil {
		srv = fleet.NewRawIngest(hub, fleet.NewEventSink(hub, ingest.Limits{}))
	} else {
		sink := ingest.NewSink(tracedPoster{hub: hub, l: led},
			ingest.WithAdmission(ingest.NewAdmission(ingest.Limits{}, hub.Backlog)),
			ingest.WithSinkMetrics(hub.MetricsRegistry()))
		srv = rawhttp.NewServer(tracedSink{inner: sink, l: led}, rawhttp.WithMetrics(hub.MetricsRegistry()))
	}
	s := &server{addr: ln.Addr().String(), close: func() { srv.Close() }, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = srv.Serve(ln) // returns ErrServerClosed once stop closes it
	}()
	return s, nil
}

// serveHTTP serves handler over net/http on a loopback listener.
func serveHTTP(handler http.Handler) (*server, error) {
	ln, err := listen()
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	s := &server{addr: ln.Addr().String(), close: func() { srv.Close() }, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = srv.Serve(ln) // returns ErrServerClosed once stop closes it
	}()
	return s, nil
}
