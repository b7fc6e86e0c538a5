package fleet

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/ingest"
)

// The owner rule (see mailbox): one goroutine at a time runs a shard's
// tasks, and an event post that finds the shard idle runs its own event.

// coolRule hands the air conditioner back and forth with hotRule, so
// ownership changes as the temperature crosses either threshold.
const coolRule = "If temperature is lower than 22 degrees, turn off the air conditioner."

// waitIdle blocks until s is unowned with nothing queued. The shard
// goroutine releases its claim only after acking the operation it ran, so a
// post right after Submit returns may still find the shard owned.
func waitIdle(t *testing.T, s *shard) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mb.mu.Lock()
		idle := !s.mb.owned && len(s.mb.queue) == 0
		s.mb.mu.Unlock()
		if idle {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("shard never went idle")
		}
		runtime.Gosched()
	}
}

// owned reports whether some goroutine holds s's claim right now.
func owned(s *shard) bool {
	s.mb.mu.Lock()
	defer s.mb.mu.Unlock()
	return s.mb.owned
}

func tempEvent(temp string) *ingest.Event {
	ev := ingest.AcquireEvent()
	ev.Fill(device.TypeThermometer, "thermometer", "living room", map[string]string{"temperature": temp})
	return ev
}

// TestShardOwnerInlineDispatch: an async post to an idle shard has ingested,
// evaluated and dispatched its event by the time PostEventFast returns.
func TestShardOwnerInlineDispatch(t *testing.T) {
	var fired atomic.Int32
	h := newTestHub(t, WithShards(1), WithDispatcher(func(string, core.DeviceRef, core.Action) error {
		fired.Add(1)
		return nil
	}))
	seedHome(t, h, "h")
	s := h.shardFor("h")
	waitIdle(t, s)
	if err := h.PostEventFast("h", tempEvent("31")); err != nil {
		t.Fatal(err)
	}
	if got := fired.Load(); got != 1 {
		t.Fatalf("dispatched %d actions when PostEventFast returned, want 1", got)
	}
	if in, q := s.sm.EventsInline.Load(), s.sm.EventsQueued.Load(); in != 1 || q != 0 {
		t.Fatalf("events inline %d, queued %d; want 1, 0", in, q)
	}
	if owned(s) {
		t.Fatal("the poster kept its claim after returning")
	}
}

// TestShardOwnerConcurrentPosters: seeded posters race on one shard, each
// owning some homes and numbering each home's events (in illuminance, which
// no rule reads), so the last number applied shows per-home FIFO order held.
// Whatever ran inline
// and whatever queued or coalesced, every home must end where a full-scan
// twin fed that home's events one by one ends: same owners, same context.
// Fired logs are compared for homes none of whose passes coalesced; the
// sync-only poster guarantees there are some.
func TestShardOwnerConcurrentPosters(t *testing.T) {
	const posters, homesPer, perHome = 4, 3, 60
	// The dispatcher yields mid-pass, so other posters find the shard owned
	// and queue behind the inline run.
	hub := newTestHub(t, WithShards(1), WithDispatcher(func(string, core.DeviceRef, core.Action) error {
		runtime.Gosched()
		return nil
	}))
	twin := newTestHub(t, WithShards(1), WithFullScan())
	temps := []string{"20", "21.5", "25", "28", "29", "31", "33.5"}

	type ev struct{ home, temp string }
	streams := make([][]ev, posters) // each poster's post order
	perHomeEvents := map[string][]string{}
	var homes []string
	for p := 0; p < posters; p++ {
		rng := rand.New(rand.NewSource(int64(21 + p)))
		left := map[string]int{}
		var mine []string
		for i := 0; i < homesPer; i++ {
			home := fmt.Sprintf("p%d-h%d", p, i)
			mine = append(mine, home)
			homes = append(homes, home)
			left[home] = perHome
		}
		for len(mine) > 0 {
			i := rng.Intn(len(mine))
			home := mine[i]
			e := ev{home, temps[rng.Intn(len(temps))]}
			streams[p] = append(streams[p], e)
			perHomeEvents[home] = append(perHomeEvents[home], e.temp)
			if left[home]--; left[home] == 0 {
				mine = append(mine[:i], mine[i+1:]...)
			}
		}
	}
	passesBefore := map[string]uint64{}
	for _, home := range homes {
		for _, h := range []*Hub{hub, twin} {
			seedHome(t, h, home)
			if _, err := h.Submit(home, coolRule, "tom"); err != nil {
				t.Fatal(err)
			}
		}
		n, err := hub.Passes(home)
		if err != nil {
			t.Fatal(err)
		}
		passesBefore[home] = n
	}

	// Poster 0 posts sync only; the others mix async map and wire posts
	// with the odd sync one.
	var wg sync.WaitGroup
	for p := range streams {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(41 + p)))
			seq := map[string]int{}
			for _, e := range streams[p] {
				seq[e.home]++
				vars := map[string]string{"temperature": e.temp, "illuminance": strconv.Itoa(seq[e.home])}
				var err error
				switch r := rng.Intn(10); {
				case p == 0 || r == 0:
					err = hub.PostEventSync(e.home, device.TypeThermometer, "thermometer", "living room", vars)
				case r < 5:
					err = hub.PostEvent(e.home, device.TypeThermometer, "thermometer", "living room", vars)
				default:
					wev := ingest.AcquireEvent()
					wev.Fill(device.TypeThermometer, "thermometer", "living room", vars)
					if err = hub.PostEventFast(e.home, wev); err != nil {
						wev.Release()
					}
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := hub.Quiesce(); err != nil {
		t.Fatal(err)
	}
	for _, home := range homes {
		for i, temp := range perHomeEvents[home] {
			if err := twin.PostEventSync(home, device.TypeThermometer, "thermometer", "living room",
				map[string]string{"temperature": temp, "illuminance": strconv.Itoa(i + 1)}); err != nil {
				t.Fatal(err)
			}
		}
	}

	compared := 0
	for _, home := range homes {
		hOwn, _ := hub.Owners(home)
		tOwn, _ := twin.Owners(home)
		if !reflect.DeepEqual(hOwn, tOwn) {
			t.Errorf("%s: owners %v, full-scan twin %v", home, hOwn, tOwn)
		}
		hCtx, _ := hub.Context(home)
		tCtx, _ := twin.Context(home)
		if !reflect.DeepEqual(hCtx.Numbers, tCtx.Numbers) {
			t.Errorf("%s: context %v, full-scan twin %v", home, hCtx.Numbers, tCtx.Numbers)
		}
		if got := hCtx.Numbers["living room/illuminance"]; got != perHome {
			t.Errorf("%s: last applied event #%v, want #%d", home, got, perHome)
		}
		passes, _ := hub.Passes(home)
		if passes-passesBefore[home] != perHome {
			continue // some pass coalesced: the fired log may legitimately differ
		}
		compared++
		hLog, _ := hub.Log(home)
		tLog, _ := twin.Log(home)
		if len(hLog) != len(tLog) {
			t.Errorf("%s: fired %d, full-scan twin %d", home, len(hLog), len(tLog))
			continue
		}
		for i := range hLog {
			if hLog[i].Rule.ID != tLog[i].Rule.ID || !hLog[i].Time.Equal(tLog[i].Time) {
				t.Errorf("%s log[%d]: %v@%v, twin %v@%v", home, i, hLog[i].Rule.ID, hLog[i].Time, tLog[i].Rule.ID, tLog[i].Time)
			}
		}
	}
	if compared < homesPer {
		t.Errorf("compared the fired logs of %d homes, want at least the %d sync-only ones", compared, homesPer)
	}
	sm := hub.shards[0].sm
	in, q := sm.EventsInline.Load(), sm.EventsQueued.Load()
	if in+q != posters*homesPer*perHome {
		t.Errorf("events inline %d + queued %d, want %d", in, q, posters*homesPer*perHome)
	}
	t.Logf("events inline %d, queued %d; fired logs compared on %d of %d homes", in, q, compared, len(homes))
}

// TestShardOwnerCloseWaitsForInlineRun: Close while a poster's inline pass
// is blocked in a dispatcher returns only after that run releases the shard,
// whether or not tasks queued behind the claim. Every task admitted behind
// it still runs and is acked; posts after Close fail with ErrClosed.
func TestShardOwnerCloseWaitsForInlineRun(t *testing.T) {
	for _, queued := range []bool{false, true} {
		t.Run(fmt.Sprintf("queued=%v", queued), func(t *testing.T) {
			testCloseWaitsForInlineRun(t, queued)
		})
	}
}

func testCloseWaitsForInlineRun(t *testing.T, queued bool) {
	entered, unblock := make(chan struct{}), make(chan struct{})
	var once sync.Once
	var h2Fired atomic.Int32
	h, err := NewHub(WithClock(testClock()), WithShards(1),
		WithDispatcher(func(home string, _ core.DeviceRef, _ core.Action) error {
			if home == "h" {
				once.Do(func() { close(entered); <-unblock })
				return nil
			}
			h2Fired.Add(1)
			return nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	seedHome(t, h, "h")
	seedHome(t, h, "h2")
	s := h.shardFor("h")
	waitIdle(t, s)

	inlineErr := make(chan error, 1)
	go func() { inlineErr <- h.PostEventFast("h", tempEvent("31")) }()
	<-entered

	// Queue a sync post and a read behind the claim.
	syncErr := make(chan error, 1)
	type logResult struct {
		n   int
		err error
	}
	logRes := make(chan logResult, 1)
	if queued {
		go func() {
			syncErr <- h.PostEventSync("h2", device.TypeThermometer, "thermometer", "living room",
				map[string]string{"temperature": "31"})
		}()
		waitBacklog(t, h, "h", 1)
		go func() {
			l, err := h.Log("h")
			logRes <- logResult{len(l), err}
		}()
		waitBacklog(t, h, "h", 2)
	}

	closed := make(chan error, 1)
	go func() { closed <- h.Close() }()
	for {
		h.mu.RLock()
		c := h.closed
		h.mu.RUnlock()
		if c {
			break
		}
		runtime.Gosched()
	}
	if err := h.PostEvent("h2", device.TypeThermometer, "thermometer", "living room",
		map[string]string{"temperature": "20"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post after Close = %v, want ErrClosed", err)
	}
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while the inline run still held the shard", err)
	case <-time.After(20 * time.Millisecond):
	}

	close(unblock)
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close never returned")
	}
	if err := <-inlineErr; err != nil {
		t.Fatalf("inline post: %v", err)
	}
	if !queued {
		return
	}
	if err := <-syncErr; err != nil {
		t.Fatalf("queued sync post: %v", err)
	}
	if r := <-logRes; r.err != nil || r.n != 1 {
		t.Fatalf("queued Log = %d entries, %v; want the inline firing", r.n, r.err)
	}
	if got := h2Fired.Load(); got != 1 {
		t.Fatalf("queued sync post dispatched %d actions, want 1", got)
	}
}

// waitBacklog blocks until home's shard has at least n tasks queued.
func waitBacklog(t *testing.T, h *Hub, home string, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for h.Backlog(home) < n {
		if time.Now().After(deadline) {
			t.Fatalf("backlog never reached %d", n)
		}
		runtime.Gosched()
	}
}

// TestShardOwnerFeedbackFromInlineDispatch: a dispatcher that posts
// feedback to its own shard during an inline pass finds the shard owned by
// its own goroutine, so the feedback queues: no deadlock, no lost event.
func TestShardOwnerFeedbackFromInlineDispatch(t *testing.T) {
	var h *Hub
	h = newTestHub(t, WithShards(1), WithDispatcher(func(home string, _ core.DeviceRef, _ core.Action) error {
		return h.PostEventFeedback(home, device.TypeThermometer, "thermometer", "living room",
			map[string]string{"temperature": "20"})
	}))
	seedHome(t, h, "h")
	s := h.shardFor("h")
	waitIdle(t, s)
	done := make(chan error, 1)
	go func() { done <- h.PostEventFast("h", tempEvent("31")) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("inline post deadlocked on its own feedback")
	}
	if err := h.Quiesce(); err != nil {
		t.Fatal(err)
	}
	ctx, err := h.Context("h")
	if err != nil {
		t.Fatal(err)
	}
	if got := ctx.Numbers["living room/temperature"]; got != 20 {
		t.Fatalf("temperature = %v, want the feedback write 20", got)
	}
	if log, _ := h.Log("h"); len(log) != 1 {
		t.Fatalf("fired %d times, want 1", len(log))
	}
	if got := h.EventsAccepted(); got != 2 {
		t.Fatalf("events accepted = %d, want the post and its feedback", got)
	}
	if in, q := s.sm.EventsInline.Load(), s.sm.EventsQueued.Load(); in != 1 || q != 1 {
		t.Fatalf("events inline %d, queued %d; want 1, 1", in, q)
	}
}

// TestShardOwnerPlacementRefusals: a sealed home refuses an external post
// and admits feedback; a released home refuses both. A refusal is decided
// before any claim, so it leaves the shard unowned and runs nothing.
func TestShardOwnerPlacementRefusals(t *testing.T) {
	h := newTestHub(t, WithShards(1))
	seedHome(t, h, "h")
	s := h.shardFor("h")
	vars := map[string]string{"temperature": "31"}
	refused := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrHomeSealed) {
			t.Fatalf("%s: %v, want ErrHomeSealed", what, err)
		}
		if owned(s) || s.sm.EventsInline.Load() != 1 {
			t.Fatalf("%s: the refused post claimed the shard (owned %v, inline %d)",
				what, owned(s), s.sm.EventsInline.Load())
		}
	}

	if err := h.SealHome("h"); err != nil {
		t.Fatal(err)
	}
	waitIdle(t, s)
	if err := h.PostEventFeedback("h", device.TypeThermometer, "thermometer", "living room", vars); err != nil {
		t.Fatalf("feedback on a sealed home: %v", err)
	}
	if got := s.sm.EventsInline.Load(); got != 1 {
		t.Fatalf("admitted feedback ran inline %d times, want 1", got)
	}
	refused("sealed, external", h.PostEvent("h", device.TypeThermometer, "thermometer", "living room", vars))
	ev := tempEvent("31")
	refused("sealed, external fast", h.PostEventFast("h", ev))
	ev.Release() // a refused post leaves ev with the caller

	if err := h.ReleaseHomeTo("h", "elsewhere"); err != nil {
		t.Fatal(err)
	}
	waitIdle(t, s)
	refused("released, external", h.PostEvent("h", device.TypeThermometer, "thermometer", "living room", vars))
	refused("released, feedback", h.PostEventFeedback("h", device.TypeThermometer, "thermometer", "living room", vars))
	if homes, _ := h.Homes(); len(homes) != 0 {
		t.Fatalf("homes after release = %v, want none", homes)
	}
	if q := s.sm.EventsQueued.Load(); q != 0 {
		t.Fatalf("events queued = %d, want 0", q)
	}
}
