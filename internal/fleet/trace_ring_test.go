package fleet

import (
	"encoding/json"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/engine"
)

func postTempSync(t *testing.T, h *Hub, home, location, value string) {
	t.Helper()
	if err := h.PostEventSync(home, device.TypeThermometer, "thermometer", location,
		map[string]string{"temperature": value}); err != nil {
		t.Fatal(err)
	}
}

func traceOf(t *testing.T, h *Hub, home string) []engine.PassTrace {
	t.Helper()
	tr, err := h.Trace(home)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// checkOwnTrace asserts a home's trace is its own records, oldest first:
// Seqs consecutive (the ring keeps each engine's newest records) and no
// dirty key from the other home's location.
func checkOwnTrace(t *testing.T, home string, tr []engine.PassTrace, foreign string) {
	t.Helper()
	for i, p := range tr {
		if i > 0 && p.Seq != tr[i-1].Seq+1 {
			t.Fatalf("%s: seqs not consecutive oldest-first: %d then %d", home, tr[i-1].Seq, p.Seq)
		}
		if strings.Contains(strings.Join(p.Dirty, ","), foreign) {
			t.Fatalf("%s: trace holds another home's record: %+v", home, p)
		}
	}
}

// TestTraceRingSharedByShard: the homes of one shard share one trace ring.
// Each home's trace holds only its own records, oldest first, and a busy
// home evicts a quiet neighbour's records.
func TestTraceRingSharedByShard(t *testing.T) {
	const ringCap = 6
	hub := newTestHub(t, WithShards(1), WithTraceLimit(ringCap))
	seedHome(t, hub, "quiet")
	seedHome(t, hub, "busy")
	postTempSync(t, hub, "quiet", "living room", "20")
	postTempSync(t, hub, "busy", "kitchen", "20")
	postTempSync(t, hub, "quiet", "living room", "21")

	quiet, busy := traceOf(t, hub, "quiet"), traceOf(t, hub, "busy")
	if len(quiet) < 2 || len(busy) < 1 || len(quiet)+len(busy) > ringCap {
		t.Fatalf("trace lengths quiet %d busy %d, ring %d", len(quiet), len(busy), ringCap)
	}
	checkOwnTrace(t, "quiet", quiet, "kitchen")
	checkOwnTrace(t, "busy", busy, "living room")

	// The busy home fills the ring and evicts every quiet record.
	for i := 0; i < ringCap; i++ {
		postTempSync(t, hub, "busy", "kitchen", []string{"21", "22"}[i%2])
	}
	if q := traceOf(t, hub, "quiet"); len(q) != 0 {
		t.Fatalf("quiet home kept %d records after the busy home cycled the ring", len(q))
	}
	busy = traceOf(t, hub, "busy")
	if len(busy) != ringCap {
		t.Fatalf("busy trace = %d records, want the whole ring (%d)", len(busy), ringCap)
	}
	checkOwnTrace(t, "busy", busy, "living room")

	// ?n= still caps the result to the newest passes.
	ts := httptest.NewServer(NewHTTPHandler(hub))
	defer ts.Close()
	resp, body := doJSON(t, ts, "GET", "/fleet/homes/busy/trace?n=2", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("GET trace?n=2: %d %s", resp.StatusCode, body)
	}
	var capped []engine.PassTrace
	if err := json.Unmarshal(body, &capped); err != nil {
		t.Fatal(err)
	}
	if len(capped) != 2 || capped[0].Seq != busy[ringCap-2].Seq || capped[1].Seq != busy[ringCap-1].Seq {
		t.Fatalf("trace?n=2 = %d records (seqs %v), want the newest two of %v", len(capped), seqsOf(capped), seqsOf(busy))
	}
}

func seqsOf(tr []engine.PassTrace) []uint64 {
	out := make([]uint64, len(tr))
	for i, p := range tr {
		out[i] = p.Seq
	}
	return out
}

// TestTraceRingDoesNotPinDroppedHome: a home released by migration and then
// recreated under the same id starts with an empty trace, and the dropped
// engine is collectable although its records are still in the shard's ring.
func TestTraceRingDoesNotPinDroppedHome(t *testing.T) {
	hub := newTestHub(t, WithShards(1))
	seedHome(t, hub, "h")
	postTempSync(t, hub, "h", "living room", "20")
	postTempSync(t, hub, "h", "living room", "21")
	if len(traceOf(t, hub, "h")) == 0 {
		t.Fatal("no records before the drop")
	}

	collected := make(chan struct{})
	if err := hub.do("h", func(hm *Home) error {
		runtime.AddCleanup(hm.engine, func(ch chan struct{}) { close(ch) }, collected)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	if err := hub.SealHome("h"); err != nil {
		t.Fatal(err)
	}
	if err := hub.Quiesce(); err != nil {
		t.Fatal(err)
	}
	exp, err := hub.ExportHome("h")
	if err != nil {
		t.Fatal(err)
	}
	if err := hub.ReleaseHome("h"); err != nil {
		t.Fatal(err)
	}
	if err := hub.ImportHome(exp); err != nil {
		t.Fatal(err)
	}
	if tr := traceOf(t, hub, "h"); len(tr) != 0 {
		t.Fatalf("recreated home shows %d records of its predecessor (seqs %v)", len(tr), seqsOf(tr))
	}
	postTempSync(t, hub, "h", "living room", "22")
	if tr := traceOf(t, hub, "h"); len(tr) != 1 || tr[0].Seq != 1 {
		t.Fatalf("recreated home's trace = seqs %v, want [1]", seqsOf(tr))
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("dropped home's engine was never collected")
		}
	}
}
