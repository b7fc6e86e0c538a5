package ring

import (
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/ingest"
)

// The harness runs real ring nodes: each testNode is a hub + Node behind a
// stable loopback address (an httptest server proxying to a swappable Node
// pointer), so a "kill" replaces the hub and Node — losing every volatile
// map, as a real process death would — while the address and the on-disk
// store survive.

var testEpoch = time.Date(2005, 3, 7, 18, 0, 0, 0, time.UTC)

func testClock() func() time.Time { return func() time.Time { return testEpoch } }

const hotRule = "If temperature is higher than 28 degrees, turn on the air conditioner."

// tap records every dispatched action. One tap shared by several hubs merges
// their dispatch streams — the exactly-once comparison surface.
type tap struct {
	mu      sync.Mutex
	entries []string
}

func (tp *tap) dispatch(home string, ref core.DeviceRef, action core.Action) error {
	tp.mu.Lock()
	tp.entries = append(tp.entries, home+"|"+ref.Key()+"|"+action.Verb)
	tp.mu.Unlock()
	return nil
}

func (tp *tap) sorted() []string {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	out := append([]string(nil), tp.entries...)
	sort.Strings(out)
	return out
}

type testNode struct {
	t    *testing.T
	dir  string
	tap  *tap
	addr string
	srv  *httptest.Server

	client *http.Client // transfer client for this node's Migrate calls
	peers  []string
	shards int
	// wrap, when set, wraps the fleet handler the node routes owned homes to.
	wrap func(http.Handler) http.Handler

	cur  atomic.Pointer[Node]
	hook atomic.Pointer[func(step string) error]
}

// newTestNode allocates the stable address; call start(peers) once both
// nodes' addresses are known.
func newTestNode(t *testing.T, tp *tap) *testNode {
	t.Helper()
	tn := &testNode{t: t, dir: t.TempDir(), tap: tp, shards: 2}
	tn.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := tn.cur.Load()
		if n == nil {
			http.Error(w, "node down", http.StatusServiceUnavailable)
			return
		}
		n.ServeHTTP(w, r)
	}))
	t.Cleanup(tn.srv.Close)
	tn.addr = strings.TrimPrefix(tn.srv.URL, "http://")
	return tn
}

func (tn *testNode) start(peers []string) {
	tn.t.Helper()
	tn.peers = peers
	st, err := fleet.OpenFileStore(tn.dir)
	if err != nil {
		tn.t.Fatal(err)
	}
	hub, err := fleet.NewHub(
		fleet.WithShards(tn.shards),
		fleet.WithClock(testClock()),
		fleet.WithDispatcher(tn.tap.dispatch),
		fleet.WithLogLimit(0),
		fleet.WithStore(st),
	)
	if err != nil {
		tn.t.Fatal(err)
	}
	var handler http.Handler = fleet.NewHTTPHandler(hub, fleet.WithEventSink(fleet.NewEventSink(hub, ingest.Limits{})))
	if tn.wrap != nil {
		handler = tn.wrap(handler)
	}
	node, err := NewNode(NodeConfig{
		Self:    tn.addr,
		Hub:     hub,
		Handler: handler,
		Peers:   peers,
		TransferHook: func(step string) error {
			if fn := tn.hook.Load(); fn != nil {
				return (*fn)(step)
			}
			return nil
		},
		Client: tn.client,
	})
	if err != nil {
		tn.t.Fatal(err)
	}
	tn.cur.Store(node)
	tn.t.Cleanup(func() { _ = hub.Close() })
}

func (tn *testNode) node() *Node     { return tn.cur.Load() }
func (tn *testNode) hub() *fleet.Hub { return tn.cur.Load().hub }

// restart simulates a process kill and supervisor restart: the hub dies
// (volatile engine state, placement table, import marks — all gone), then a
// fresh hub rehydrates from the same store directory behind the same
// address.
func (tn *testNode) restart() {
	old := tn.cur.Swap(nil)
	if old != nil {
		_ = old.hub.Close()
	}
	tn.start(tn.peers)
}

// seedHome registers the standard user and hot rule on a hub.
func seedHome(t *testing.T, h *fleet.Hub, home string) {
	t.Helper()
	if err := h.RegisterUser(home, "tom"); err != nil {
		t.Fatalf("%s: register: %v", home, err)
	}
	if _, err := h.Submit(home, hotRule, "tom"); err != nil {
		t.Fatalf("%s: submit: %v", home, err)
	}
}

// postTemp posts one synchronous thermometer event.
func postTemp(t *testing.T, h *fleet.Hub, home, temp string) {
	t.Helper()
	if err := h.PostEventSync(home, device.TypeThermometer, "thermometer", "living room",
		map[string]string{"temperature": temp}); err != nil {
		t.Fatalf("%s: post %s: %v", home, temp, err)
	}
}

// firedStrings renders a home's fired log for record-for-record comparison.
func firedStrings(t *testing.T, h *fleet.Hub, home string) []string {
	t.Helper()
	log, err := h.Log(home)
	if err != nil {
		t.Fatalf("%s: log: %v", home, err)
	}
	out := make([]string, len(log))
	for i, f := range log {
		out[i] = f.String()
	}
	return out
}

func hasHome(t *testing.T, h *fleet.Hub, home string) bool {
	t.Helper()
	homes, err := h.Homes()
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range homes {
		if got == home {
			return true
		}
	}
	return false
}
