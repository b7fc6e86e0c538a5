package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/fleet"
	"repro/internal/ingest"
)

// A traced run times the layers from outside: the benchmark wraps the public
// interfaces the hub is called through (rawhttp.Sink, the net/http event
// handler, ingest.Poster, fleet.Dispatcher, fleet.Store and the ring node's
// http.Handler) and stamps one event in every sampleEvery as it crosses
// each boundary. A home's events travel one connection in order, so the
// per-home FIFO sequence number identifies an event on both sides of the
// socket without touching the wire format.

const sampleEvery = 16

// Stamps of one sampled event, in the order the event crosses them.
const (
	stSched     = iota // scheduled send time
	stWrite            // client write
	stRecv             // first server hook: Sink.Admit entry (raw) or event handler entry (net/http)
	stAdmitted         // Sink.Admit exit (raw only)
	stDeliver          // Sink.Deliver entry (raw only)
	stPost             // ingest.Poster call entry
	stPosted           // ingest.Poster call exit
	stDelivered        // Sink.Deliver exit (raw) or event handler exit (net/http)
	stAction           // Dispatcher call for the event's action
	nStamps
)

// spanTable holds the stamps of sampled events, per home, in the slots
// slot assigns. Recording is switched on in alternate sub-windows of a
// traced run; sequence counting runs throughout so both sides stay aligned.
type spanTable struct {
	on    atomic.Bool
	every uint32 // sampling: one event in every this many, by sequence number
	homes []spanHome
}

type spanHome struct {
	mu   sync.Mutex
	recs [][nStamps]int64
	srv  atomic.Uint32 // events the server side has seen for this home
	cur  atomic.Uint32 // sequence number of the event the server is handling
}

func newSpanTable(homes int) *spanTable {
	return &spanTable{every: sampleEvery, homes: make([]spanHome, homes)}
}

// slot returns where the record of a home's event lives, and whether the
// event is sampled at all. Each home is offset by its index, so homes whose
// events advance in lockstep are not all sampled in the same instant.
func (t *spanTable) slot(home int32, seq uint32) (int, bool) {
	n := seq + uint32(home)%t.every
	return int(n / t.every), n%t.every == 0
}

// seqOf inverts slot: the sequence number of a home's record idx.
func (t *spanTable) seqOf(home int32, idx int) int {
	return idx*int(t.every) - int(uint32(home)%t.every)
}

// open starts the record of a sampled event at release.
func (t *spanTable) open(home int32, seq uint32, sched int64) {
	idx, sampled := t.slot(home, seq)
	if !sampled || !t.on.Load() {
		return
	}
	h := &t.homes[home]
	h.mu.Lock()
	for len(h.recs) <= idx {
		h.recs = append(h.recs, [nStamps]int64{})
	}
	h.recs[idx][stSched] = sched
	h.mu.Unlock()
}

// stamp records one boundary crossing of an open sampled event.
func (t *spanTable) stamp(home int32, seq uint32, st int, at int64) {
	idx, sampled := t.slot(home, seq)
	if !sampled {
		return
	}
	h := &t.homes[home]
	h.mu.Lock()
	if idx < len(h.recs) && h.recs[idx][stSched] != 0 {
		h.recs[idx][st] = at
	}
	h.mu.Unlock()
}

// enter marks the server's first contact with a home's next event and
// returns that event's sequence number.
func (t *spanTable) enter(home int32, at int64) uint32 {
	h := &t.homes[home]
	seq := h.srv.Add(1) - 1
	h.cur.Store(seq)
	t.stamp(home, seq, stRecv, at)
	return seq
}

func (t *spanTable) current(home int32) uint32 { return t.homes[home].cur.Load() }

// records returns the stamps of every sampled event scheduled in [from, to).
func (t *spanTable) records(from, to int64) [][nStamps]int64 {
	var out [][nStamps]int64
	for i := range t.homes {
		h := &t.homes[i]
		h.mu.Lock()
		for _, r := range h.recs {
			if r[stSched] >= from && r[stSched] < to {
				out = append(out, r)
			}
		}
		h.mu.Unlock()
	}
	return out
}

// spanDef names one span as the interval between two stamps.
type spanDef struct {
	name, parent string
	from, to     int
}

var (
	rawSpans = []spanDef{
		{"event", "", stSched, stAction},
		{"client.lag", "event", stSched, stWrite},
		{"transport.recv", "event", stWrite, stRecv},
		{"ingest.admit", "event", stRecv, stAdmitted},
		{"ingest.deliver", "event", stDeliver, stDelivered},
		{"fleet.post", "ingest.deliver", stPost, stPosted},
		{"fleet.post_to_action", "event", stPosted, stAction},
	}
	httpSpans = []spanDef{
		{"event", "", stSched, stAction},
		{"client.lag", "event", stSched, stWrite},
		{"transport.recv", "event", stWrite, stRecv},
		{"ingest.handler", "event", stRecv, stDelivered},
		{"fleet.post", "ingest.handler", stPost, stPosted},
		{"fleet.post_to_action", "event", stPosted, stAction},
	}
)

// writeSpans writes one JSON line per span of every record: name, parent,
// start and end (ns since the run's epoch) and the event id home/seq.
func writeSpans(path string, names []string, t *spanTable, defs []spanDef) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i := range t.homes {
		h := &t.homes[i]
		h.mu.Lock()
		for n, r := range h.recs {
			if r[stSched] == 0 {
				continue
			}
			for _, d := range defs {
				if r[d.from] == 0 || r[d.to] == 0 {
					continue
				}
				fmt.Fprintf(w, `{"event":"%s/%d","name":%q,"parent":%q,"start_ns":%d,"end_ns":%d}`+"\n",
					names[i], t.seqOf(int32(i), n), d.name, d.parent, r[d.from], r[d.to])
			}
		}
		h.mu.Unlock()
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedSink wraps the raw transport's sink.
type tracedSink struct {
	inner *ingest.Sink
	l     *ledger
}

func (s tracedSink) Admit(home string) (ingest.Disposition, bool) {
	t0 := now()
	d, ok := s.inner.Admit(home)
	t1 := now()
	if i, known := s.l.index[home]; known {
		seq := s.l.spans.enter(i, t0)
		s.l.spans.stamp(i, seq, stAdmitted, t1)
	}
	return d, ok
}

func (s tracedSink) Deliver(home string, ev *ingest.Event) ingest.Disposition {
	t0 := now()
	d := s.inner.Deliver(home, ev)
	t1 := now()
	if i, known := s.l.index[home]; known {
		seq := s.l.spans.current(i)
		s.l.spans.stamp(i, seq, stDeliver, t0)
		s.l.spans.stamp(i, seq, stDelivered, t1)
	}
	return d
}

func (s tracedSink) MaxBody() int64 { return s.inner.MaxBody() }

// tracedHandler wraps the net/http event route's handler.
type tracedHandler struct {
	inner http.Handler
	l     *ledger
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := now()
	i, known := h.l.index[r.PathValue("home")]
	if known {
		h.l.spans.enter(i, t0)
	}
	h.inner.ServeHTTP(w, r)
	if known {
		h.l.spans.stamp(i, h.l.spans.current(i), stDelivered, now())
	}
}

// tracedPoster wraps the hub as the sink's ingest.Poster.
type tracedPoster struct {
	hub *fleet.Hub
	l   *ledger
}

func (p tracedPoster) PostEventFast(home string, ev *ingest.Event) error {
	return p.post(home, ev, p.hub.PostEventFast)
}

func (p tracedPoster) PostEventFastSync(home string, ev *ingest.Event) error {
	return p.post(home, ev, p.hub.PostEventFastSync)
}

func (p tracedPoster) post(home string, ev *ingest.Event, fn func(string, *ingest.Event) error) error {
	t0 := now()
	err := fn(home, ev)
	t1 := now()
	if i, known := p.l.index[home]; known {
		seq := p.l.spans.current(i)
		p.l.spans.stamp(i, seq, stPost, t0)
		p.l.spans.stamp(i, seq, stPosted, t1)
	}
	return err
}

// series is a goroutine-safe list of timed samples: when each happened and
// how long it took (ns).
type series struct {
	mu sync.Mutex
	at []int64
	ns []int64
}

func (s *series) add(at, ns int64) {
	s.mu.Lock()
	s.at = append(s.at, at)
	s.ns = append(s.ns, ns)
	s.mu.Unlock()
}

// within returns the durations of the samples taken in [from, to).
func (s *series) within(from, to int64) []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []int64
	for i, t := range s.at {
		if t >= from && t < to {
			out = append(out, s.ns[i])
		}
	}
	return out
}

// tracedStore wraps a hub's fleet.Store, timing appends and noting when a
// rule record reaches the journal.
type tracedStore struct {
	fleet.Store
	on      *atomic.Bool
	appends series
	mu      sync.Mutex
	rules   map[string]int64 // home + "/" + rule id -> Append entry
}

func newTracedStore(s fleet.Store, on *atomic.Bool) *tracedStore {
	return &tracedStore{Store: s, on: on, rules: make(map[string]int64)}
}

func (s *tracedStore) Append(rec fleet.Record) error {
	if !s.on.Load() {
		return s.Store.Append(rec)
	}
	t0 := now()
	err := s.Store.Append(rec)
	s.appends.add(t0, now()-t0)
	if rec.Kind == fleet.RecordRule {
		s.mu.Lock()
		s.rules[rec.Home+"/"+rec.ID] = t0
		s.mu.Unlock()
	}
	return err
}

// journaled returns when the record of rule id reached Append.
func (s *tracedStore) journaled(home, id string) (int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.rules[home+"/"+id]
	return t, ok
}

// tracedNode wraps a ring node's handler, timing the target side of
// migration transfers.
type tracedNode struct {
	inner     http.Handler
	on        *atomic.Bool
	transfers *series
	last      *atomic.Int64 // duration of the latest transfer, for the source split
}

func (n tracedNode) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !n.on.Load() || !strings.HasPrefix(r.URL.Path, "/ring/transfer/") {
		n.inner.ServeHTTP(w, r)
		return
	}
	t0 := now()
	n.inner.ServeHTTP(w, r)
	d := now() - t0
	n.transfers.add(t0, d)
	n.last.Store(d)
}
