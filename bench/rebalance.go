package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/ingest"
	"repro/internal/ring"
)

// rebalance: two ring nodes trade every home back and forth, one migration
// at a time, under a light open-loop event stream that follows redirects.
// It is the only workload that runs seal, drain, export, transfer, import
// and release, ring routing and snapshot journaling.
//
// The client holds back a home's events while that home migrates, and a
// migration waits for the home's requests in flight. Ring routing and the
// hub's seal check are separate steps: a post routed before the ownership
// override and delivered after the release passes the lifted seal and is
// applied to a new, empty home on the source, acknowledged and lost. The
// workload keeps clear of that window so that every run checks out.
var rebalance = workload{
	name: "rebalance",
	rates: func(short bool) map[string]float64 {
		s := rebalanceScale(short)
		return map[string]float64{"events_per_s": s.rate, "migrations_per_s": s.moves}
	},
	setup: setupRebalance,
}

type rebalanceSize struct {
	homes int
	rate  float64 // events per second
	moves float64 // migrations per second
}

// A home migrates about every ten seconds and receives an event about
// every second, so about one event in ten finds the client's owner cache
// stale and follows a redirect: the median event goes straight through.
// Migrations are paced well below what the nodes sustain, so their cost
// shows in the CPU per event without the events queueing behind them.
func rebalanceScale(short bool) rebalanceSize {
	if short {
		return rebalanceSize{homes: 32, rate: 200, moves: 20}
	}
	return rebalanceSize{homes: 1024, rate: 1000, moves: 100}
}

// rebNode is one ring member and everything serving it.
type rebNode struct {
	hub   *fleet.Hub
	node  *ring.Node
	store *tracedStore // nil when untraced
	srv   *server
	dir   string
}

type rebalanceBench struct {
	sc     rebalanceSize
	led    *ledger
	tl     *timeline
	nodes  [2]*rebNode
	lanes  map[string]int // node address -> lane
	ld     *loader
	seed   int64
	ids    []string
	order  []int32
	reqs   [][2][]byte
	next   []uint32       // per home: events released (writer-owned)
	held   []sent         // events waiting for their home's migration (writer-owned)
	owner  []atomic.Int32 // per home: the lane the client believes owns it
	busy   []atomic.Int32 // per home: requests in flight
	moving atomic.Int32   // the home being migrated, or -1
	where  []int          // per home: the node holding it (migration loop)
	last   atomic.Int64   // duration of the latest transfer
	moved  atomic.Int64   // migrations completed
	xfer   series         // target-side transfer handler time
	gaps   series         // Node.Migrate wall time
	source series         // Migrate minus its transfer
	redir  series         // 307s seen by the client (duration unused)
}

func setupRebalance(cfg *config, tl *timeline) (bench, error) {
	sc := rebalanceScale(cfg.short)
	rng := rand.New(rand.NewPCG(uint64(cfg.seed), 0x7eba1))
	b := &rebalanceBench{sc: sc, tl: tl, seed: cfg.seed, ids: homeIDs("home", sc.homes), lanes: map[string]int{}}
	b.led = newLedger(b.ids, func(int32, core.DeviceRef, core.Action) bool { return true })
	if cfg.trace {
		b.led.spans = newSpanTable(sc.homes)
	}
	var lns [2]net.Listener
	var addrs []string
	for i := range lns {
		ln, err := listen()
		if err != nil {
			b.closeListeners(lns)
			return nil, err
		}
		lns[i] = ln
		addrs = append(addrs, ln.Addr().String())
		b.lanes[addrs[i]] = i
	}
	for i := range b.nodes {
		n, err := b.newNode(cfg, addrs[i], addrs, lns[i])
		if err != nil {
			b.closeListeners(lns)
			b.close()
			return nil, err
		}
		b.nodes[i] = n
	}
	b.where = make([]int, sc.homes)
	b.owner = make([]atomic.Int32, sc.homes)
	b.busy = make([]atomic.Int32, sc.homes)
	b.moving.Store(-1)
	for i, id := range b.ids {
		b.where[i] = b.lanes[b.nodes[0].node.Ring().Owner(id)]
		b.owner[i].Store(int32(b.where[i]))
	}
	if err := forEach(sc.homes, func(i int) error {
		hub := b.nodes[b.where[i]].hub
		if err := seedFigure1(hub, b.ids[i]); err != nil {
			return err
		}
		_, err := hub.Submit(b.ids[i], fleetRule, "tom")
		return err
	}); err != nil {
		b.close()
		return nil, fmt.Errorf("seeding homes: %w", err)
	}
	b.order = shuffled(rng, sc.homes)
	b.next = make([]uint32, sc.homes)
	b.reqs = make([][2][]byte, sc.homes)
	for i, id := range b.ids {
		for v, temp := range []string{"31", "20"} {
			b.reqs[i][v] = request("POST", eventPath(id),
				eventBody(thermometer, "thermometer", "living room", map[string]string{"temperature": temp}, false))
		}
	}
	b.ld = newLoader(b.led.spans, b.handle, addrs...)
	return b, nil
}

// newNode builds one ring member as cmd/homeserver -fleet -store does.
func (b *rebalanceBench) newNode(cfg *config, self string, peers []string, ln net.Listener) (*rebNode, error) {
	n := &rebNode{}
	var err error
	if n.dir, err = os.MkdirTemp(filepath.Join(cfg.dir, "tmp"), "rebalance-"); err != nil {
		return nil, err
	}
	st, err := fleet.OpenFileStore(n.dir)
	if err != nil {
		os.RemoveAll(n.dir)
		return nil, err
	}
	var store fleet.Store = st
	if cfg.trace {
		n.store = newTracedStore(st, &b.led.spans.on)
		store = n.store
	}
	if n.hub, err = newHub(b.led, fleet.WithStore(store)); err != nil {
		st.Close()
		os.RemoveAll(n.dir)
		return nil, err
	}
	inner := fleet.NewHTTPHandler(n.hub, fleet.WithEventSink(fleet.NewEventSink(n.hub, ingest.Limits{})))
	if n.node, err = ring.NewNode(ring.NodeConfig{Self: self, Hub: n.hub, Handler: inner, Peers: peers}); err != nil {
		n.close()
		return nil, err
	}
	var h http.Handler = n.node
	if cfg.trace {
		h = tracedNode{inner: n.node, on: &b.led.spans.on, transfers: &b.xfer, last: &b.last}
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	n.srv = &server{addr: self, close: func() { srv.Close() }, done: make(chan struct{})}
	go func() {
		defer close(n.srv.done)
		_ = srv.Serve(ln) // returns ErrServerClosed once stop closes it
	}()
	return n, nil
}

func (n *rebNode) close() {
	if n.srv != nil {
		n.srv.stop()
	}
	if n.hub != nil {
		n.hub.Close()
	}
	os.RemoveAll(n.dir)
}

func (b *rebalanceBench) closeListeners(lns [2]net.Listener) {
	for _, ln := range lns {
		if ln != nil {
			ln.Close()
		}
	}
}

// handle follows redirects to the owner the node names and counts an
// event once it is accepted.
func (b *rebalanceBench) handle(from int, s sent, r *response) (bool, error) {
	if r.status == 307 {
		to, ok := b.lanes[r.owner]
		if !ok {
			b.busy[s.home].Add(-1)
			return true, fmt.Errorf("event for %s: redirect to unknown owner %q", b.ids[s.home], r.owner)
		}
		b.redir.add(now(), 0)
		b.owner[s.home].Store(int32(to))
		b.ld.resend(to, s)
		return false, nil
	}
	b.busy[s.home].Add(-1)
	if r.status != 202 {
		return true, fmt.Errorf("event for %s: status %d", b.ids[s.home], r.status)
	}
	b.led.homes[s.home].acked.Add(1)
	b.tl.add(s.sched, 1)
	return true, nil
}

func (b *rebalanceBench) drive(start, end int64) error {
	from := start - int64(warmup)
	err := b.ld.run(end,
		func() error { return b.events(from, end) },
		func() error { return b.migrate(from, end) })
	if err != nil {
		return err
	}
	for _, n := range b.nodes {
		if err := n.hub.Quiesce(); err != nil {
			return err
		}
	}
	return nil
}

// events releases the fleet-rule stream at sc.rate, each event to the lane
// the client believes owns its home. Events of the migrating home wait,
// in order, and keep their scheduled time.
func (b *rebalanceBench) events(from, end int64) error {
	var i int
	var batch [2][]sent
	return openLoop(from, end, spacing(b.sc.rate), func(due int64) error {
		batch[0], batch[1] = batch[0][:0], batch[1][:0]
		h := b.order[i%len(b.order)]
		i++
		k := b.next[h]
		b.next[h]++
		seq := b.led.release(h, k%2 == 0, due)
		waiting := append(b.held, sent{home: h, seq: seq, sched: due, req: b.reqs[h][k%2]})
		b.held = nil
		for _, s := range waiting {
			// Counting the request before reading moving pairs with the migration loop
			// setting moving before reading busy: one of the two sees the other.
			b.busy[s.home].Add(1)
			if b.moving.Load() == s.home {
				b.busy[s.home].Add(-1)
				b.held = append(b.held, s)
				continue
			}
			lane := b.owner[s.home].Load()
			batch[lane] = append(batch[lane], s)
		}
		for lane, bt := range batch {
			if len(bt) > 0 {
				b.ld.send(lane, bt)
			}
		}
		return b.ld.err()
	})
}

// migrate moves every home to the other node and back, in a seeded order,
// one Node.Migrate at a time at sc.moves per second, until end.
func (b *rebalanceBench) migrate(from, end int64) error {
	rng := rand.New(rand.NewPCG(uint64(b.seed), 0x316))
	order := shuffled(rng, b.sc.homes)
	var j int
	return openLoop(from, end, spacing(b.sc.moves), func(int64) error {
		h := order[j%len(order)]
		j++
		return b.move(h)
	})
}

// move migrates home h to the node that does not hold it, once none of its
// requests is in flight.
func (b *rebalanceBench) move(h int32) error {
	src, dst := b.nodes[b.where[h]], b.nodes[1-b.where[h]]
	b.moving.Store(h)
	defer b.moving.Store(-1)
	for wait := time.Now(); b.busy[h].Load() > 0; time.Sleep(50 * time.Microsecond) {
		if time.Since(wait) > 10*time.Second {
			return fmt.Errorf("migrating %s: its requests never finished", b.ids[h])
		}
	}
	b.last.Store(0)
	t0 := now()
	if err := src.node.Migrate(context.Background(), b.ids[h], dst.node.Self()); err != nil {
		return fmt.Errorf("migrating %s: %w", b.ids[h], err)
	}
	gap := now() - t0
	b.moved.Add(1)
	b.gaps.add(t0, gap)
	if x := b.last.Load(); x > 0 {
		b.source.add(t0, gap-x)
	}
	b.where[h] = 1 - b.where[h]
	return nil
}

// check verifies that every home is owned by exactly one node, where the
// migrations left it, and that the hubs accepted exactly the events the
// client saw acknowledged, each firing one action.
func (b *rebalanceBench) check() error {
	held := make([]int, b.sc.homes)
	var accepted uint64
	for i, n := range b.nodes {
		homes, err := n.hub.Homes()
		if err != nil {
			return err
		}
		for _, id := range homes {
			h, ok := b.led.index[id]
			if !ok {
				return fmt.Errorf("node %d holds unknown home %q", i, id)
			}
			held[h]++
			if b.where[h] != i {
				return fmt.Errorf("%s: held by node %d, migrated to node %d", id, i, b.where[h])
			}
		}
		accepted += n.hub.EventsAccepted()
	}
	for h, n := range held {
		if n != 1 {
			return fmt.Errorf("%s: held by %d nodes", b.ids[h], n)
		}
	}
	// A home's events are a second apart and a migrating home's wait for
	// it, so none share a pass: every probe must have its action.
	if err := b.led.settle(func(int32) int64 { return 0 }); err != nil {
		return err
	}
	var acked int64
	for i := range b.led.homes {
		acked += b.led.homes[i].acked.Load()
	}
	if uint64(acked) != accepted {
		return fmt.Errorf("hubs accepted %d events, client saw %d acknowledged", accepted, acked)
	}
	return nil
}

func (b *rebalanceBench) report(p phase, r *report) {
	gaps := b.gaps.within(p.start, p.end)
	r.add("migrate.homes_per_s", float64(len(gaps))/(float64(p.end-p.start)/1e9), "homes/s")
	r.percentiles("migrate.gap_p50_ms", "migrate.gap_p99_ms", gaps, "ms")
	r.percentiles("ring.transfer_p50_ms", "", b.xfer.within(p.start, p.end), "ms")
	r.percentiles("ring.source_p50_ms", "", b.source.within(p.start, p.end), "ms")
	r.add("ring.redirects", float64(len(b.redir.within(p.start, p.end))), "count")
	var appends []int64
	for _, n := range b.nodes {
		if n.store != nil {
			appends = append(appends, n.store.appends.within(p.start, p.end)...)
		}
	}
	r.percentiles("store.append_p50_us", "store.append_p99_us", appends, "us")
}

func (b *rebalanceBench) hubs() []*fleet.Hub {
	return []*fleet.Hub{b.nodes[0].hub, b.nodes[1].hub}
}

func (b *rebalanceBench) ledger() *ledger  { return b.led }
func (b *rebalanceBench) attempted() int64 { return b.ld.attempted.Load() + b.moved.Load() }
func (b *rebalanceBench) failed() int64    { return b.ld.failed.Load() }

func (b *rebalanceBench) close() {
	if b.ld != nil {
		b.ld.stop()
	}
	for _, n := range b.nodes {
		if n != nil {
			n.close()
		}
	}
}
