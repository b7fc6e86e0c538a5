package main

import (
	"encoding/json"
	"net"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/ingest"
	"repro/internal/rawhttp"
)

// declared returns the metrics BENCHMARK.json declares, name -> unit.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Work     []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Work {
		names = append(names, w.Name)
	}
	if got := workloadNames(); len(got) != len(names) {
		t.Fatalf("BENCHMARK.json declares workloads %v, the benchmark runs %v", names, got)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestWorkloadsShort runs every workload at reduced scale through the same
// code path as the benchmark, untraced and traced: the output checks must
// pass and exactly the metrics BENCHMARK.json declares must be reported.
func TestWorkloadsShort(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := endToEnd
			name := w.name + "/untraced"
			if traced {
				want, name = perLayer, w.name+"/traced"
			}
			t.Run(name, func(t *testing.T) {
				res, err := run(config{workload: w.name, seed: 1, seconds: 1, trace: traced, short: true,
					dir: t.TempDir(), out: os.DevNull})
				if err != nil {
					t.Fatal(err)
				}
				for name, unit := range want {
					m, ok := res.Metrics[name]
					switch {
					case !ok:
						t.Errorf("metric %s not reported", name)
					case m.Unit != unit:
						t.Errorf("metric %s reported in %s, declared in %s", name, m.Unit, unit)
					case !traced && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, must be positive", name, m.Value)
					}
				}
				for name := range res.Metrics {
					if _, ok := want[name]; !ok {
						t.Errorf("metric %s reported but not declared in BENCHMARK.json", name)
					}
				}
				if res.Attempted == 0 || res.Failed != 0 {
					t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
				}
			})
		}
	}
}

// TestSettle checks how probe actions are matched to probe events, with
// and without passes that coalesced a home's events.
func TestSettle(t *testing.T) {
	for _, tc := range []struct {
		name      string
		sched     []int64
		acts      []int64
		coalesced int64
		answer    []int // nil: settle must fail
		missing   int64
	}{
		{"one pass per event", []int64{0, 100, 200}, []int64{1, 101, 201}, 0, []int{0, 1, 2}, 0},
		{"late action, no coalescing", []int64{0, 100}, []int64{150, 151}, 0, []int{0, 1}, 0},
		{"coalesced probe", []int64{0, 100, 200}, []int64{150, 201}, 1, []int{1, 2}, 1},
		{"coalesced last probe", []int64{0, 100, 200}, []int64{1, 250}, 2, []int{0, 2}, 1},
		{"missing action, nothing coalesced", []int64{0, 100, 200}, []int64{150, 201}, 0, nil, 0},
		{"duplicate action", []int64{0, 100}, []int64{1, 2, 101}, 5, nil, 0},
		{"action before its event", []int64{100}, []int64{50}, 0, nil, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := newLedger([]string{"h"}, nil)
			for _, s := range tc.sched {
				l.release(0, true, s)
			}
			l.homes[0].acts = tc.acts
			err := l.settle(func(int32) int64 { return tc.coalesced })
			if tc.answer == nil {
				if err == nil {
					t.Fatalf("settled as %v, want an error", l.homes[0].answer)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := l.homes[0].answer; !reflect.DeepEqual(got, tc.answer) {
				t.Errorf("answers %v, want %v", got, tc.answer)
			}
			if l.missing != tc.missing {
				t.Errorf("missing %d, want %d", l.missing, tc.missing)
			}
		})
	}
}

// stallSink stalls one Admit call, as a server pause would.
type stallSink struct {
	rawhttp.Sink
	at         int64 // which Admit stalls
	n          atomic.Int64
	home       atomic.Value // the home whose event stalled
	from, till atomic.Int64 // when the stall began and ended
}

func (s *stallSink) Admit(home string) (ingest.Disposition, bool) {
	if s.n.Add(1) == s.at {
		s.home.Store(home)
		s.from.Store(now())
		time.Sleep(50 * time.Millisecond)
		s.till.Store(now())
	}
	return s.Sink.Admit(home)
}

// pipeListener hands the server the far ends of in-memory pipes. A pipe
// has no buffer, so a stalled server holds back the client's next write,
// which is how a server pause delays the sender in a real deployment.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *pipeListener) dial() net.Conn {
	client, server := net.Pipe()
	l.conns <- server
	return client
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

// TestLatencyCountsFromSchedule checks that a server stall is charged to
// the events scheduled during it. The stall holds back the writer, so
// those events are written late: their latency from the actual write hides
// the stall, and only their latency from the scheduled time shows it.
func TestLatencyCountsFromSchedule(t *testing.T) {
	cfg := config{workload: wireLight.name, seed: 1, seconds: 1, short: true, dir: t.TempDir()}
	tl := newTimeline()
	// A home's events are 128 ms apart on its lane, longer than the stall,
	// so the burst the stall releases holds at most one event per home and
	// none of them shares a pass with the next one of its home.
	b, err := newWireBench(&cfg, tl, wireScale{homes: 256, rate: 2000, lanes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	b.led.spans = newSpanTable(len(b.led.names))
	b.led.spans.every = 1
	b.led.spans.on.Store(true)

	stall := &stallSink{Sink: fleet.NewEventSink(b.hub, ingest.Limits{}), at: 1000}
	srv := rawhttp.NewServer(stall)
	ln := &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln) // returns ErrServerClosed after Close
	}()
	defer func() {
		srv.Close()
		<-served
	}()
	b.ld = newLoaderDial(b.led.spans, b.handle, b.sc.lanes, func(int) (net.Conn, error) { return ln.dial(), nil })

	start := now() + int64(50*time.Millisecond+warmup)
	tl.origin = start - int64(warmup)
	if err := b.drive(start, start+int64(time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := b.check(); err != nil {
		t.Fatal(err)
	}
	from, till := stall.from.Load(), stall.till.Load()
	if till == 0 {
		t.Fatal("the sink never stalled")
	}
	// On the stalled lane, events scheduled from two ticks into the stall
	// were queued behind the blocked write (the first tick's write itself
	// started on time).
	lane := int(b.led.index[stall.home.Load().(string)]) % b.sc.lanes
	held := 0
	for _, h := range b.lanes[lane] {
		for _, r := range b.led.spans.homes[h].recs {
			if r[stSched] < from+int64(2*time.Millisecond) || r[stSched] >= till-int64(5*time.Millisecond) || r[stAction] == 0 {
				continue // outside the stall, or a below-threshold event without an action
			}
			held++
			fromSched, fromWrite := r[stAction]-r[stSched], r[stAction]-r[stWrite]
			if fromSched < int64(5*time.Millisecond) {
				t.Errorf("event scheduled in the stall: %v from its schedule, want the rest of the stall", time.Duration(fromSched))
			}
			if fromWrite > int64(5*time.Millisecond) {
				t.Errorf("event scheduled in the stall: %v from its write, want no stall", time.Duration(fromWrite))
			}
		}
	}
	if held < 5 {
		t.Fatalf("only %d sampled events were scheduled during the stall", held)
	}
}
