package main

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/core"
	"repro/internal/fleet"
)

// wire_light: the raw transport at a light open-loop load. A home's events
// are far apart, so nothing coalesces and every event pays its own parse,
// decode, mailbox wake-up, pass and dispatch.
var wireLight = workload{
	name: "wire_light",
	rates: func(short bool) map[string]float64 {
		return map[string]float64{"events_per_s": lightScale(short).rate}
	},
	setup: func(cfg *config, tl *timeline) (bench, error) { return setupWire(cfg, tl, lightScale(cfg.short)) },
}

// wire_saturate: the raw transport under a closed loop of pipelined
// requests, the throughput ceiling. Bursts coalesce into shared passes, so
// transport parse and decode dominate the per-event cost.
var wireSaturate = workload{
	name: "wire_saturate",
	rates: func(short bool) map[string]float64 {
		s := saturateScale(short)
		return map[string]float64{"connections": float64(s.lanes), "pipeline_depth": float64(s.depth)}
	},
	setup: func(cfg *config, tl *timeline) (bench, error) { return setupWire(cfg, tl, saturateScale(cfg.short)) },
}

type wireScale struct {
	homes  int     // homes posting through the transport
	probes int     // extra homes whose sparse events time the closed loop
	rate   float64 // open loop: events per second; 0 = closed loop
	lanes  int     // client connections
	depth  int     // closed loop: requests in flight per connection
	every  int     // closed loop: one request in every this many is a probe
}

func lightScale(short bool) wireScale {
	if short {
		return wireScale{homes: 64, rate: 1000, lanes: 2}
	}
	return wireScale{homes: 4096, rate: 20000, lanes: 2}
}

func saturateScale(short bool) wireScale {
	if short {
		return wireScale{homes: 32, probes: 8, lanes: 2, depth: 16, every: 32}
	}
	return wireScale{homes: 256, probes: 32, lanes: 2, depth: 16, every: 256}
}

type wireBench struct {
	sc    wireScale
	led   *ledger
	tl    *timeline
	hub   *fleet.Hub
	srv   *server
	ld    *loader
	lanes [][]int32       // homes each lane carries, in the seeded order
	reqs  [][2][]byte     // per home: the request above and below the threshold
	next  []uint32        // per home: events released (owned by its lane's writer)
	slots []chan struct{} // closed loop: free request slots per lane
	pass0 []uint64        // per home: evaluation passes run by the end of seeding
}

func setupWire(cfg *config, tl *timeline, sc wireScale) (bench, error) {
	b, err := newWireBench(cfg, tl, sc)
	if err != nil {
		return nil, err
	}
	if b.srv, err = serveRaw(b.hub, b.led); err != nil {
		b.close()
		return nil, err
	}
	addrs := make([]string, sc.lanes)
	for i := range addrs {
		addrs[i] = b.srv.addr
	}
	b.ld = newLoader(b.led.spans, b.handle, addrs...)
	return b, nil
}

// newWireBench builds and seeds the hub and the request set, without a
// transport.
func newWireBench(cfg *config, tl *timeline, sc wireScale) (*wireBench, error) {
	rng := rand.New(rand.NewPCG(uint64(cfg.seed), 0x5eed))
	ids := append(homeIDs("home", sc.homes), homeIDs("probe", sc.probes)...)
	b := &wireBench{sc: sc, tl: tl}
	b.led = newLedger(ids, func(home int32, _ core.DeviceRef, _ core.Action) bool {
		// Closed loop: only the sparse probe homes are timed, the busy homes
		// coalesce by design.
		return sc.rate > 0 || int(home) >= sc.homes
	})
	if cfg.trace {
		b.led.spans = newSpanTable(len(ids))
	}
	var err error
	if b.hub, err = newHub(b.led); err != nil {
		return nil, err
	}
	if err := forEach(len(ids), func(i int) error {
		if err := b.hub.RegisterUser(ids[i], "u"); err != nil {
			return err
		}
		_, err := b.hub.Submit(ids[i], fleetRule, "u")
		return err
	}); err != nil {
		b.close()
		return nil, fmt.Errorf("seeding homes: %w", err)
	}
	if b.pass0, err = passCounts(b.hub, ids); err != nil {
		b.close()
		return nil, err
	}
	// The closed loop's probe events are synchronous: a probe is answered
	// only once evaluated, so the next probe of its home cannot share its
	// pass and every probe keeps its own action, however deep the backlog.
	b.reqs = make([][2][]byte, len(ids))
	for i, id := range ids {
		for v, temp := range []string{"31", "20"} {
			b.reqs[i][v] = request("POST", eventPath(id),
				eventBody(thermometer, "thermometer", "living room", map[string]string{"temperature": temp}, i >= sc.homes))
		}
	}
	// A home always travels the same lane, so its events stay in order.
	b.lanes = make([][]int32, sc.lanes)
	probeLanes := make([][]int32, sc.lanes)
	for _, h := range shuffled(rng, sc.homes) {
		b.lanes[int(h)%sc.lanes] = append(b.lanes[int(h)%sc.lanes], h)
	}
	for p := 0; p < sc.probes; p++ {
		probeLanes[p%sc.lanes] = append(probeLanes[p%sc.lanes], int32(sc.homes+p))
	}
	b.lanes = append(b.lanes, probeLanes...) // lanes[sc.lanes+c]: lane c's probe homes
	b.next = make([]uint32, len(ids))
	if sc.rate == 0 {
		b.slots = make([]chan struct{}, sc.lanes)
		for c := range b.slots {
			b.slots[c] = make(chan struct{}, sc.depth)
			for range sc.depth {
				b.slots[c] <- struct{}{}
			}
		}
	}
	return b, nil
}

func (b *wireBench) handle(from int, s sent, r *response) (bool, error) {
	want := 202
	if int(s.home) >= b.sc.homes {
		want = 200 // a synchronous probe
	}
	if r.status != want {
		return true, fmt.Errorf("event for %s: status %d", b.led.names[s.home], r.status)
	}
	b.led.homes[s.home].acked.Add(1)
	if b.sc.rate > 0 {
		b.tl.add(s.sched, 1) // open loop: an event counts toward the window it was due in
	} else {
		b.tl.add(now(), 1) // closed loop: toward the window it completed in
		b.slots[from] <- struct{}{}
	}
	return true, nil
}

// release registers the next event of home h and returns it.
func (b *wireBench) release(h int32, sched int64) sent {
	k := b.next[h]
	b.next[h]++
	fires := k%2 == 0 // values alternate across the threshold: every other event fires
	probe := fires && (b.sc.rate > 0 || int(h) >= b.sc.homes)
	seq := b.led.release(h, probe, sched)
	return sent{home: h, seq: seq, sched: sched, req: b.reqs[h][k%2]}
}

func (b *wireBench) drive(start, end int64) error {
	senders := make([]func() error, b.sc.lanes)
	for c := range senders {
		senders[c] = func() error {
			if b.sc.rate > 0 {
				return b.openLane(c, start-int64(warmup), end)
			}
			return b.closedLane(c, end)
		}
	}
	if err := b.ld.run(end, senders...); err != nil {
		return err
	}
	return b.hub.Quiesce()
}

// openLane releases lane c's share of a fixed-rate stream: event i goes to
// home order[i % homes], and sweep i/homes alternates the value.
func (b *wireBench) openLane(c int, from, end int64) error {
	homes := b.lanes[c]
	var i int
	batch := make([]sent, 1)
	return openLoop(from, end, spacing(b.sc.rate/float64(b.sc.lanes)), func(due int64) error {
		batch[0] = b.release(homes[i%len(homes)], due)
		i++
		b.ld.send(c, batch)
		return b.ld.err()
	})
}

// closedLane keeps depth requests in flight on lane c until end; one in
// every b.sc.every is an event for one of the lane's probe homes.
func (b *wireBench) closedLane(c int, end int64) error {
	homes, probes := b.lanes[c], b.lanes[b.sc.lanes+c]
	batch := make([]sent, 0, b.sc.depth)
	var n int
	for now() < end {
		select {
		case <-b.slots[c]:
		case <-b.ld.dead:
			return b.ld.err()
		}
		k := 1
	more:
		for ; k < b.sc.depth; k++ {
			select {
			case <-b.slots[c]:
			default:
				break more
			}
		}
		t := now()
		batch = batch[:0]
		for j := 0; j < k; j++ {
			n++
			h := homes[n%len(homes)]
			if n%b.sc.every == 0 {
				h = probes[(n/b.sc.every)%len(probes)]
			}
			batch = append(batch, b.release(h, t))
		}
		b.ld.send(c, batch)
	}
	return nil
}

// check verifies the probe actions. Every event is a pass of its own
// unless the home's events queued up, so a home ran fewer passes than it
// was sent events by as many events as shared a pass with a later one.
func (b *wireBench) check() error {
	passes, err := passCounts(b.hub, b.led.names)
	if err != nil {
		return err
	}
	return b.led.settle(func(h int32) int64 {
		return b.led.homes[h].acked.Load() - int64(passes[h]-b.pass0[h])
	})
}

func (b *wireBench) report(p phase, r *report) {}

func (b *wireBench) hubs() []*fleet.Hub { return []*fleet.Hub{b.hub} }
func (b *wireBench) ledger() *ledger    { return b.led }
func (b *wireBench) attempted() int64   { return b.ld.attempted.Load() }
func (b *wireBench) failed() int64      { return b.ld.failed.Load() }

func (b *wireBench) close() {
	if b.ld != nil {
		b.ld.stop()
	}
	if b.srv != nil {
		b.srv.stop()
	}
	if b.hub != nil {
		b.hub.Close()
	}
}
