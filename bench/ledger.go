package main

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// ledger is a run's record of what the generator released and what the hub
// dispatched, per home. Events that must fire a timed action ("probes") are
// matched to their actions by settle once the hubs are quiet. The
// dispatcher the hub calls is ledger.dispatch.
type ledger struct {
	index map[string]int32 // home id -> slot; read-only once the run starts
	names []string
	homes []homeLedger
	// probe picks the timed actions; the others are only counted.
	probe func(home int32, ref core.DeviceRef, a core.Action) bool
	stray atomic.Int64 // actions for homes the ledger does not know

	// Set by settle: actions dispatched in all, and probe events left
	// without an action because a pass coalesced them.
	actions, missing int64

	spans *spanTable // nil unless the run is traced
}

type homeLedger struct {
	mu     sync.Mutex
	sched  []int64  // scheduled send time of each probe event, in release order
	seqs   []uint32 // that event's per-home sequence number
	acts   []int64  // dispatch time of each probe action, in dispatch order
	answer []int    // set by settle: the probe event each action answers

	sent   atomic.Uint32 // events released so far: the next per-home sequence number
	acked  atomic.Int64  // 2xx responses the client saw for this home
	others atomic.Int64  // non-probe actions dispatched for this home
}

func newLedger(homes []string, probe func(int32, core.DeviceRef, core.Action) bool) *ledger {
	l := &ledger{index: make(map[string]int32, len(homes)), names: homes,
		homes: make([]homeLedger, len(homes)), probe: probe}
	for i, h := range homes {
		l.index[h] = int32(i)
	}
	return l
}

// release registers the next event of a home and returns its per-home
// sequence number. A probe event also records its scheduled time.
func (l *ledger) release(home int32, probe bool, sched int64) uint32 {
	h := &l.homes[home]
	seq := h.sent.Add(1) - 1
	if probe {
		h.mu.Lock()
		h.sched = append(h.sched, sched)
		h.seqs = append(h.seqs, seq)
		h.mu.Unlock()
	}
	if l.spans != nil {
		l.spans.open(home, seq, sched)
	}
	return seq
}

// dispatch is the fleet.Dispatcher of every hub in the run: it timestamps
// each action the engines fire.
func (l *ledger) dispatch(home string, ref core.DeviceRef, a core.Action) error {
	t := now()
	i, ok := l.index[home]
	if !ok {
		l.stray.Add(1)
		return nil
	}
	h := &l.homes[i]
	if !l.probe(i, ref, a) {
		h.others.Add(1)
		return nil
	}
	h.mu.Lock()
	h.acts = append(h.acts, t)
	h.mu.Unlock()
	return nil
}

// latencies returns scheduled-send-to-action latencies, in nanoseconds, of
// the probe events scheduled in [from, to) that settle matched to an
// action.
func (l *ledger) latencies(from, to int64) []int64 {
	var out []int64
	for i := range l.homes {
		h := &l.homes[i]
		h.mu.Lock()
		for n, j := range h.answer {
			if s := h.sched[j]; s >= from && s < to {
				out = append(out, h.acts[n]-s)
			}
		}
		h.mu.Unlock()
	}
	return out
}

// settle matches probe actions with probe events once the hubs are quiet,
// and checks them: every probe action answers its own probe event of the
// same home, and a probe event lacks its action only where its home's
// events shared evaluation passes. A pass that finds several of a home's
// events queued (after a stall of the host, say) evaluates only their end
// state, so it fires at most once, for the last probe it holds, and the
// probes before it fire nothing. coalesced(h) is how many of home h's
// events shared a pass with a later one; a home may lack at most that many
// probe actions.
//
// Each action is matched to the latest probe event scheduled before it
// that still leaves an earlier-scheduled probe for every later action.
// When no pass coalesced, that is the home's n-th probe for its n-th
// action, as the per-home FIFO order implies.
func (l *ledger) settle(coalesced func(home int32) int64) error {
	var missing, extra, unmatched int64
	l.actions, l.missing = 0, 0
	for i := range l.homes {
		h := &l.homes[i]
		h.mu.Lock()
		h.answer = h.answer[:0]
		want, got := len(h.sched), len(h.acts)
		l.actions += int64(got) + h.others.Load()
		switch {
		case got > want:
			extra += int64(got - want)
		case want-got > int(max(coalesced(int32(i)), 0)):
			missing += int64(want - got)
		default:
			l.missing += int64(want - got)
			if !h.match() {
				unmatched++
			}
		}
		h.mu.Unlock()
	}
	if l.spans != nil {
		for i := range l.homes {
			h := &l.homes[i]
			for n, j := range h.answer {
				l.spans.stamp(int32(i), h.seqs[j], stAction, h.acts[n])
			}
		}
	}
	if stray := l.stray.Load(); missing > 0 || extra > 0 || unmatched > 0 || stray > 0 {
		return fmt.Errorf("actions: %d probe events without their action and no coalesced pass to explain it, "+
			"%d extra probe actions, %d homes with an action dispatched before its probe event, %d actions for unknown homes",
			missing, extra, unmatched, stray)
	}
	return nil
}

// match fills h.answer; false means some action has no probe event
// scheduled before it. h.mu is held.
func (h *homeLedger) match() bool {
	next := 0 // first probe event not yet answered
	for n, a := range h.acts {
		j := next - 1
		for j+1 < len(h.sched) && h.sched[j+1] <= a {
			j++
		}
		for ; j >= next && !h.fits(n+1, j+1); j-- {
		}
		if j < next {
			return false
		}
		h.answer = append(h.answer, j)
		next = j + 1
	}
	return true
}

// fits reports whether actions n.. can each be matched, in order, to a
// distinct probe event from j on scheduled before it.
func (h *homeLedger) fits(n, j int) bool {
	for _, a := range h.acts[n:] {
		if j == len(h.sched) || h.sched[j] > a {
			return false
		}
		j++
	}
	return true
}
