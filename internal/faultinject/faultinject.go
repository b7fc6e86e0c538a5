// Package faultinject is the deterministic fault layer for the remote
// record-log stack (internal/logserver + fleet.RemoteStore): everything a
// flaky network or a dying process does to a store, reproducible from a
// seed.
//
// Two seams, matching where real faults strike:
//
//   - Transport wraps an http.RoundTripper and injects connection timeouts,
//     resets before and after delivery (the reset-after case performs the
//     request and then loses the ack — the delivery the server must
//     deduplicate), synthetic 500s, and duplicated deliveries.
//
//   - The Crash* helpers build fleet.FaultHooks that kill the process at a
//     chosen append or snapshot step; the crash-recovery harness runs a
//     logserver under them in a child process and asserts recovery.
//
// All randomness comes from one seeded, mutex-guarded source, so a failing
// run replays exactly from its seed.
package faultinject

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
)

// Config sets the per-call probabilities (0..1) of each injected fault.
type Config struct {
	// Seed feeds the deterministic random source.
	Seed int64

	// TimeoutP drops the request before it is sent with a timeout error.
	TimeoutP float64
	// ResetBeforeP fails the request before it is sent (connection reset).
	ResetBeforeP float64
	// ResetAfterP performs the request, then reports a reset: the server saw
	// and applied the request, the client never saw the ack.
	ResetAfterP float64
	// HTTP500P performs the request, then replaces the response with a 500.
	HTTP500P float64
	// DuplicateP performs the request twice (a retransmitted delivery) and
	// returns the second response.
	DuplicateP float64

	// DelayP sleeps before delivering the request — injected network
	// latency. The sleep is a seeded-uniform draw in (0, Delay], so a run's
	// latency pattern replays exactly from its seed.
	DelayP float64
	// Delay is the maximum injected latency; zero disables DelayP.
	Delay time.Duration
}

// Stats counts the faults a Transport actually injected.
type Stats struct {
	Timeouts       uint64
	ResetsBefore   uint64
	ResetsAfter    uint64
	HTTP500s       uint64
	Duplicates     uint64
	Delays         uint64
	PartitionDrops uint64
}

// timeoutError satisfies net.Error with Timeout() true, like a real dial or
// read deadline expiry.
type timeoutError struct{}

func (timeoutError) Error() string   { return "faultinject: request timed out" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

// ErrReset is the injected connection-reset error.
var ErrReset = errors.New("faultinject: connection reset")

// ErrPartitioned is the error a one-way-partitioned Transport returns: the
// request was delivered and applied, the response never came back.
var ErrPartitioned = errors.New("faultinject: response lost to one-way partition")

// Transport is a fault-injecting http.RoundTripper.
type Transport struct {
	base http.RoundTripper
	cfg  Config

	mu  sync.Mutex
	rng *rand.Rand

	// partitioned, while set, turns the link one-way: requests deliver (the
	// server applies them) but every response is dropped. The asymmetric
	// half of a network partition — the half that forces servers to
	// deduplicate, because the client must retry what already happened.
	partitioned atomic.Bool

	timeouts, resetsBefore, resetsAfter, http500s, duplicates, delays, partitionDrops atomic.Uint64
}

// NewTransport wraps base (nil means http.DefaultTransport) with the faults
// in cfg.
func NewTransport(cfg Config, base http.RoundTripper) *Transport {
	if base == nil {
		base = http.DefaultTransport
	}
	return &Transport{base: base, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Stats reports the faults injected so far.
func (t *Transport) Stats() Stats {
	return Stats{
		Timeouts:       t.timeouts.Load(),
		ResetsBefore:   t.resetsBefore.Load(),
		ResetsAfter:    t.resetsAfter.Load(),
		HTTP500s:       t.http500s.Load(),
		Duplicates:     t.duplicates.Load(),
		Delays:         t.delays.Load(),
		PartitionDrops: t.partitionDrops.Load(),
	}
}

// SetPartition toggles the one-way partition: while on, every request is
// delivered but its response is dropped with ErrPartitioned. Heal with
// SetPartition(false).
func (t *Transport) SetPartition(on bool) { t.partitioned.Store(on) }

// Partitioned reports whether the one-way partition is active.
func (t *Transport) Partitioned() bool { return t.partitioned.Load() }

func (t *Transport) hit(p float64) bool {
	if p <= 0 {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rng.Float64() < p
}

// perform runs the request once against the base transport, rewinding the
// body via GetBody so one logical request can be delivered more than once.
func (t *Transport) perform(req *http.Request) (*http.Response, error) {
	r := req
	if req.GetBody != nil {
		body, err := req.GetBody()
		if err != nil {
			return nil, fmt.Errorf("faultinject: rewind body: %w", err)
		}
		r = req.Clone(req.Context())
		r.Body = body
	}
	return t.base.RoundTrip(r)
}

func drain(resp *http.Response) {
	if resp != nil && resp.Body != nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// sleepFor draws a seeded-uniform latency in (0, max].
func (t *Transport) sleepFor(max time.Duration) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return time.Duration(t.rng.Int63n(int64(max))) + 1
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.cfg.Delay > 0 && t.hit(t.cfg.DelayP) {
		t.delays.Add(1)
		select {
		case <-time.After(t.sleepFor(t.cfg.Delay)):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	if t.partitioned.Load() {
		resp, err := t.perform(req)
		if err != nil {
			return nil, err
		}
		drain(resp)
		t.partitionDrops.Add(1)
		return nil, ErrPartitioned
	}
	if t.hit(t.cfg.TimeoutP) {
		t.timeouts.Add(1)
		return nil, timeoutError{}
	}
	if t.hit(t.cfg.ResetBeforeP) {
		t.resetsBefore.Add(1)
		return nil, fmt.Errorf("%w before delivery", ErrReset)
	}
	dup := t.hit(t.cfg.DuplicateP)
	resetAfter := t.hit(t.cfg.ResetAfterP)
	fake500 := t.hit(t.cfg.HTTP500P)

	resp, err := t.perform(req)
	if err != nil {
		return nil, err
	}
	if dup {
		t.duplicates.Add(1)
		drain(resp)
		if resp, err = t.perform(req); err != nil {
			return nil, err
		}
	}
	if resetAfter {
		t.resetsAfter.Add(1)
		drain(resp)
		return nil, fmt.Errorf("%w after delivery", ErrReset)
	}
	if fake500 {
		t.http500s.Add(1)
		drain(resp)
		return &http.Response{
			StatusCode: http.StatusInternalServerError,
			Status:     "500 Internal Server Error (injected)",
			Proto:      req.Proto, ProtoMajor: req.ProtoMajor, ProtoMinor: req.ProtoMinor,
			Header:  make(http.Header),
			Body:    io.NopCloser(strings.NewReader("injected fault\n")),
			Request: req,
		}, nil
	}
	return resp, nil
}

// CrashOnAppend builds fleet.FaultHooks that call crash on the n'th append
// write (1-based). With torn true, half the record reaches the WAL first —
// the mid-append process kill; otherwise the whole record lands and the
// crash hits before the append returns — the durable-but-unacked kill.
// crash must not return (os.Exit in the harness's child process).
func CrashOnAppend(n uint64, torn bool, crash func()) fleet.FaultHooks {
	var calls atomic.Uint64
	return fleet.FaultHooks{AppendWrite: func(w io.Writer, line []byte) (int, error) {
		if calls.Add(1) != n {
			return w.Write(line)
		}
		if torn {
			w.Write(line[:len(line)/2])
			crash()
			return 0, errors.New("faultinject: crash hook returned")
		}
		nw, err := w.Write(line)
		if err == nil && nw == len(line) {
			crash()
		}
		return nw, errors.New("faultinject: crash hook returned")
	}}
}

// CrashOnSnapshotStep builds fleet.FaultHooks that call crash when
// WriteSnapshot reaches the given step. crash must not return.
func CrashOnSnapshotStep(step fleet.SnapshotStep, crash func()) fleet.FaultHooks {
	return fleet.FaultHooks{Snapshot: func(at fleet.SnapshotStep) error {
		if at == step {
			crash()
			return errors.New("faultinject: crash hook returned")
		}
		return nil
	}}
}
