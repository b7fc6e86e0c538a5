package engine

import (
	"fmt"
	"time"

	"repro/internal/conflict"
	"repro/internal/core"
)

// Firing trace: a bounded ring of structured pass records answering "why did
// this device switch to that rule". Capture runs on the interned pass under
// the engine lock with every ring slot's slices reused in place (lengths
// truncated, capacities retained), so once the ring has cycled a
// steady-state pass records its trace without allocating. Recorded strings
// are the symbol interner's (dirty keys) and the rules' own (ids, owners) —
// string headers copy for free and stay valid across compaction epochs,
// which renumber ids but never mutate interned strings.
//
// Per-record caps bound a slot's footprint against pathological passes (an
// allDirty pass over 10k rules); overflow sets the record's truncated flag
// instead of growing without bound.
const (
	traceMaxDirty  = 32
	traceMaxCands  = 64
	traceMaxDecs   = 32
	traceMaxLosers = 16
)

// traceRing is the fixed-capacity record ring. Slots are preallocated so the
// only steady-state growth is each slot's slice capacities during the first
// cycle through the ring.
type traceRing struct {
	recs []passRec
	next int    // slot the next record claims
	n    int    // filled slots
	seq  uint64 // records ever started (monotonic pass trace id)
}

func newTraceRing(n int) *traceRing {
	return &traceRing{recs: make([]passRec, n)}
}

// passRec is one captured pass.
type passRec struct {
	seq       uint64
	at        time.Time
	allDirty  bool
	truncated bool
	dirty     []string
	cands     []string
	decs      []passDec
}

// passDec is one device's arbitration outcome within a pass.
type passDec struct {
	devName, devLoc     string
	winner, winnerOwner string
	rank                int
	orderCtx            string
	ordered             bool
	sole                bool
	fired               bool
	losers              []passLoser
}

type passLoser struct{ id, owner string }

// start claims the next slot, truncating its slices in place so their
// capacity carries over to the new record.
func (tr *traceRing) start(at time.Time, allDirty bool) *passRec {
	r := &tr.recs[tr.next]
	tr.next++
	if tr.next == len(tr.recs) {
		tr.next = 0
	}
	if tr.n < len(tr.recs) {
		tr.n++
	}
	tr.seq++
	r.seq = tr.seq
	r.at = at
	r.allDirty = allDirty
	r.truncated = false
	r.dirty = r.dirty[:0]
	r.cands = r.cands[:0]
	r.decs = r.decs[:0]
	return r
}

func (r *passRec) addDirty(name string) {
	if len(r.dirty) >= traceMaxDirty {
		r.truncated = true
		return
	}
	r.dirty = append(r.dirty, name)
}

func (r *passRec) addCand(id string) {
	if len(r.cands) >= traceMaxCands {
		r.truncated = true
		return
	}
	r.cands = append(r.cands, id)
}

// addDec claims the next decision slot. A previously used slot's loser slice
// must survive the reset (an appended passDec{} literal would overwrite its
// capacity with nil), so the slice is re-lengthened in place when capacity
// allows.
func (r *passRec) addDec() *passDec {
	if len(r.decs) >= traceMaxDecs {
		r.truncated = true
		return nil
	}
	if n := len(r.decs); n < cap(r.decs) {
		r.decs = r.decs[:n+1]
	} else {
		r.decs = append(r.decs, passDec{})
	}
	d := &r.decs[len(r.decs)-1]
	losers := d.losers[:0]
	*d = passDec{losers: losers}
	return d
}

func (d *passDec) setDevice(ref core.DeviceRef) {
	d.devName, d.devLoc = ref.Name, ref.Location
}

// setOutcome records the winner scan's result: winner identity, the
// applicable order and rank from the explain, and every losing contender.
func (d *passDec) setOutcome(winner *core.Rule, ex conflict.Explain, list []*core.Rule) {
	d.winner, d.winnerOwner = winner.ID, winner.Owner
	d.rank, d.ordered, d.orderCtx = ex.Rank, ex.Ordered, ex.Context
	d.sole = len(list) == 1
	for _, r := range list {
		if r == winner {
			continue
		}
		if len(d.losers) >= traceMaxLosers {
			break
		}
		d.losers = append(d.losers, passLoser{r.ID, r.Owner})
	}
}

// ---- exported snapshot ----

// PassTrace is one evaluation pass as captured by the firing-trace ring
// (WithTrace): the dirty dependency keys that triggered it, the candidate
// rules re-checked, and each reconciled device's arbitration outcome.
type PassTrace struct {
	Seq        uint64          `json:"seq"`
	Time       time.Time       `json:"time"`
	AllDirty   bool            `json:"all_dirty,omitempty"`
	Truncated  bool            `json:"truncated,omitempty"`
	Dirty      []string        `json:"dirty,omitempty"`
	Candidates []string        `json:"candidates,omitempty"`
	Decisions  []TraceDecision `json:"decisions,omitempty"`
}

// TraceDecision is one device's arbitration outcome: the winning rule (empty
// when every ready rule lapsed and the device lost its owner), the rules it
// beat, and a rendered reason — which priority order applied and where the
// winning owner ranks in it. Fired marks the decisions that changed
// ownership (dispatched an action or cleared the owner).
type TraceDecision struct {
	Device string       `json:"device"`
	Winner string       `json:"winner,omitempty"`
	Owner  string       `json:"owner,omitempty"`
	Reason string       `json:"reason"`
	Fired  bool         `json:"fired,omitempty"`
	Losers []TraceLoser `json:"losers,omitempty"`
}

// TraceLoser is a ready rule that lost arbitration.
type TraceLoser struct {
	Rule  string `json:"rule"`
	Owner string `json:"owner"`
}

// reason renders the arbitration explanation for a decision.
func (d *passDec) reason() string {
	label := "default"
	if d.orderCtx != "" {
		label = fmt.Sprintf("contextual %q", d.orderCtx)
	}
	switch {
	case d.winner == "":
		return "no ready rule remains; device released"
	case !d.ordered && d.sole:
		return "sole ready rule"
	case !d.ordered:
		return "no priority order applies; registration order decides"
	case d.rank < 0 && d.sole:
		return fmt.Sprintf("sole ready rule (owner %q unranked in the %s order)", d.winnerOwner, label)
	case d.rank < 0:
		return fmt.Sprintf("owner %q unlisted in the %s order; registration order decides among unranked owners", d.winnerOwner, label)
	default:
		return fmt.Sprintf("owner %q ranks #%d in the %s priority order", d.winnerOwner, d.rank+1, label)
	}
}

// TraceSnapshot returns the ring's records, oldest first. It allocates
// freely (it is a read endpoint, not the firing path) and renders each
// decision's reason string at snapshot time. Nil when tracing is disabled
// or the engine runs in full-scan mode.
func (e *Engine) TraceSnapshot() []PassTrace {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.tr == nil {
		return nil
	}
	tr := e.tr
	out := make([]PassTrace, 0, tr.n)
	start := tr.next - tr.n
	if start < 0 {
		start += len(tr.recs)
	}
	for i := 0; i < tr.n; i++ {
		r := &tr.recs[(start+i)%len(tr.recs)]
		p := PassTrace{
			Seq:        r.seq,
			Time:       r.at,
			AllDirty:   r.allDirty,
			Truncated:  r.truncated,
			Dirty:      append([]string(nil), r.dirty...),
			Candidates: append([]string(nil), r.cands...),
		}
		for j := range r.decs {
			d := &r.decs[j]
			td := TraceDecision{
				Device: core.DeviceRef{Name: d.devName, Location: d.devLoc}.Key(),
				Winner: d.winner,
				Owner:  d.winnerOwner,
				Reason: d.reason(),
				Fired:  d.fired,
			}
			for _, l := range d.losers {
				td.Losers = append(td.Losers, TraceLoser{Rule: l.id, Owner: l.owner})
			}
			p.Decisions = append(p.Decisions, td)
		}
		out = append(out, p)
	}
	return out
}
