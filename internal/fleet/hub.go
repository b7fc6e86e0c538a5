package fleet

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/conflict"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/vocab"
)

// task is one unit of shard work: either a coalescable device event, a
// per-home operation, or a shard-level operation.
type task struct {
	home    string
	event   *ingest.Event   // coalescable device event; pooled, so a post allocates nothing
	fn      func(*Home)     // per-home operation; receives nil if the home does not exist and acc < accCreate
	shardFn func(*shard)    // shard-level operation (stats, barriers, migration steps)
	acc     access          // how the task touches its home: what the placement table admits
	done    chan struct{}   // close-once ack (API operations, barriers)
	wg      *sync.WaitGroup // reusable ack for sync event posts; pooled, so the sync path allocates nothing
}

// access is how a task touches its home; mailbox.admit checks it.
type access uint8

const (
	accRead     access = iota // reads, shard-level tasks and migration steps: always admitted
	accWrite                  // mutation of an existing home (RemoveRule)
	accCreate                 // mutation or external event: materializes the home on first touch
	accFeedback               // dispatch-feedback event: accCreate, but admitted while sealed
)

// mailbox is an unbounded MPSC queue plus the shard's owner flag.
// Unboundedness is deliberate: a dispatch callback may feed events back into
// the hub (an actuated appliance notifies its own property change), and a
// bounded channel would deadlock the shard against its own downstream.
// Production backpressure belongs at the transport in front of PostEvent,
// not here.
//
// The owner rule: at most one goroutine runs a shard's tasks at a time, and
// it holds the claim (owned) for as long as it does. The shard goroutine
// claims before each drain. An event post that finds the shard unowned with
// an empty queue claims it instead of queueing and runs its own event on the
// poster's goroutine (run to completion, as in flat combining): no wake-up of
// the parked shard goroutine sits between the post and the action. Because a
// claim needs an empty queue, nothing admitted earlier is overtaken, and a
// busy shard still queues, so bursts still coalesce.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []task
	closed bool
	owned  bool                 // a goroutine is running the shard's tasks
	table  map[string]Placement // placement table (migrate.go), under mu like the queue
}

func newMailbox() *mailbox {
	m := &mailbox{table: make(map[string]Placement)}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// put enqueues an accRead task; it reports false when the mailbox is closed.
func (m *mailbox) put(t task) bool {
	_, err := m.admit(t, false)
	return err == nil
}

// admit enqueues a task. It fails with ErrClosed once the mailbox is
// closed, and with a SealedError when the home's placement refuses the
// task's access: a sealed home takes no writes but feedback, a released one
// none at all. Both refusals come before any claim. With claim set and the
// shard idle (unowned, nothing queued), the task is not queued: the caller
// becomes the owner, must run the task itself and then call release. An
// empty table costs one length test, so the steady-state post stays
// allocation-free.
func (m *mailbox) admit(t task, claim bool) (claimed bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false, ErrClosed
	}
	if len(m.table) > 0 && t.acc != accRead {
		if p := m.table[t.home]; p.State == PlaceReleased || p.State == PlaceSealed && t.acc != accFeedback {
			return false, &SealedError{Home: t.home, RetryAfter: DefaultSealRetryAfter}
		}
	}
	if claim && !m.owned && len(m.queue) == 0 {
		m.owned = true
		return true, nil
	}
	m.queue = append(m.queue, t)
	if len(m.queue) == 1 && !m.owned { // an owner's release wakes the shard goroutine instead
		m.cond.Signal()
	}
	return false, nil
}

// drainInto blocks until work is queued and the shard is unowned, claims
// it, then hands over the ENTIRE backlog in one swap — this is what turns an
// event flood into one coalesced batch. buf is the consumer's recycled
// slice. ok is false once the mailbox is closed, empty and unowned.
func (m *mailbox) drainInto(buf []task) (batch []task, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.owned || len(m.queue) == 0 {
		if m.closed && !m.owned && len(m.queue) == 0 {
			return nil, false
		}
		m.cond.Wait()
	}
	m.owned = true
	batch = m.queue
	m.queue = buf[:0]
	return batch, true
}

// release ends the caller's claim and wakes the shard goroutine when tasks
// queued behind the claim, or Close waits for the goroutine to exit.
func (m *mailbox) release() {
	m.mu.Lock()
	m.owned = false
	wake := len(m.queue) > 0 || m.closed
	m.mu.Unlock()
	if wake {
		m.cond.Signal()
	}
}

func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.cond.Broadcast()
}

// shard owns a partition of the hub's homes. All state below is touched only
// by the shard's current owner (see mailbox): the shard goroutine, or a
// poster running its own event inline; and by replay, before the shard
// goroutine starts. The mailbox lock orders one owner's writes before the
// next owner's reads.
type shard struct {
	hub     *Hub
	mb      *mailbox
	sm      *obs.ShardMetrics // this shard's stripe of the hub's metrics
	tr      *engine.TraceRing // firing-trace ring shared by the shard's homes
	homes   map[string]*Home
	pending []*Home    // homes with ingested-but-unevaluated events, each once (Home.pending)
	rules   *ruleTable // compiled rules shared by the shard's homes
	spare   []task     // recycled drain buffer; the shard goroutine's alone
}

func (s *shard) run() {
	defer s.hub.wg.Done()
	for {
		batch, ok := s.mb.drainInto(s.spare)
		if !ok {
			return
		}
		var events uint64
		for i := range batch {
			if batch[i].event != nil {
				events++
			}
			s.exec(batch[i])
			batch[i] = task{} // drop references for the recycled buffer
		}
		s.flush()
		s.mb.release()
		s.sm.EventsQueued.Add(events)
		s.spare = batch
	}
}

// runInline is the poster's half of the owner rule: it runs t, an event post
// whose admit claimed the idle shard, on the caller's goroutine — ingest,
// pass, inline dispatch, sync ack — then releases the shard. The release is
// deferred so a panicking dispatcher cannot leave the shard owned forever.
func (s *shard) runInline(t task) {
	defer s.mb.release()
	s.exec(t)
	s.flush()
	s.sm.EventsInline.Inc()
}

func (s *shard) exec(t task) {
	if t.shardFn != nil {
		s.flush()
		t.shardFn(s)
		if t.done != nil {
			close(t.done)
		}
		return
	}
	// Reads on a home that was never written leave hm nil: a probe of an
	// unknown home id must not grow the shard's home map.
	hm := s.homes[t.home]
	if hm == nil && t.acc >= accCreate {
		hm = s.home(t.home)
	}
	if t.event != nil {
		hm.Apply(t.event)
		if !hm.pending {
			hm.pending = true
			s.pending = append(s.pending, hm)
		}
		if t.wg != nil { // synchronous event: evaluate before acking
			s.flush()
			t.wg.Done()
		}
		return
	}
	// Operations observe fully evaluated state and run in arrival order
	// relative to the events around them.
	s.flush()
	t.fn(hm)
	if t.done != nil {
		close(t.done)
	}
}

// flush evaluates every home with pending ingested events: one engine pass
// per home regardless of how many events the backlog held for it. Each home
// leaves the list before its pass, so a panicking dispatcher leaves no
// stale entry behind; the list keeps its capacity.
func (s *shard) flush() {
	for n := len(s.pending); n > 0; n = len(s.pending) {
		hm := s.pending[n-1]
		s.pending[n-1] = nil
		s.pending = s.pending[:n-1]
		hm.pending = false
		hm.Flush()
	}
}

// home returns the shard's home, creating it on first touch.
func (s *shard) home(id string) *Home {
	hm, ok := s.homes[id]
	if !ok {
		hm = newHome(id, &s.hub.cfg, s.hub.batchDispatcherFor(id), s.sm, s.tr, s.rules)
		s.homes[id] = hm
		s.hub.metrics.Homes.Add(1)
	}
	return hm
}

// evict drops a resident home from the shard's memory, with its pending
// pass and its rules' template references; the store is the caller's
// business.
func (s *shard) evict(id string) {
	hm, ok := s.homes[id]
	if !ok {
		return
	}
	delete(s.homes, id)
	if hm.pending {
		hm.pending = false
		s.pending = slices.DeleteFunc(s.pending, func(p *Home) bool { return p == hm })
	}
	hm.releaseRules()
	s.hub.metrics.Homes.Add(-1)
}

// dispatchJob is one fired action being applied by the worker pool.
type dispatchJob struct {
	home  string
	batch []engine.Fired
	i     int
	wg    *sync.WaitGroup
}

// Hub is the sharded multi-home engine.
type Hub struct {
	cfg     config
	store   Store
	metrics *obs.Metrics
	shards  []*shard
	jobs    chan dispatchJob
	wg      sync.WaitGroup
	poolWG  sync.WaitGroup

	mu        sync.RWMutex // guards closed against in-flight sends
	closed    bool
	compactMu sync.Mutex // serializes Compact's stop-the-world pause

	events atomic.Uint64 // events accepted by PostEvent[Sync]
}

// NewHub builds and starts a hub. With a store attached, every home recorded
// there is rehydrated — users, words, rules, priorities — before the shards
// start serving.
func NewHub(opts ...HubOption) (*Hub, error) {
	cfg := config{
		shards:   runtime.GOMAXPROCS(0),
		now:      time.Now,
		eventTTL: 4 * time.Hour,
		logLimit: DefaultLogLimit,
		traceCap: DefaultTraceLimit,
		lexicon:  func(string) *vocab.Lexicon { return vocab.Default() },
	}
	for _, o := range opts {
		o.apply(&cfg)
	}
	if cfg.shards < 1 {
		cfg.shards = 1
	}
	h := &Hub{cfg: cfg, store: cfg.store, metrics: obs.New(cfg.shards)}
	if ms, ok := h.store.(interface{ SetStoreMetrics(*obs.StoreMetrics) }); ok {
		ms.SetStoreMetrics(&h.metrics.Store)
	}
	for i := 0; i < cfg.shards; i++ {
		// The ring is built up front, not on a home's first pass: a shard
		// that has run fills it anyway.
		h.shards = append(h.shards, &shard{
			hub:   h,
			mb:    newMailbox(),
			sm:    h.metrics.Shard(i),
			tr:    engine.NewTraceRing(cfg.traceCap),
			homes: make(map[string]*Home),
			rules: newRuleTable(h.metrics.Shard(i)),
		})
	}
	if cfg.dispatchWorkers > 0 {
		h.jobs = make(chan dispatchJob, cfg.dispatchWorkers)
		h.poolWG.Add(cfg.dispatchWorkers)
		for i := 0; i < cfg.dispatchWorkers; i++ {
			go h.dispatchWorker()
		}
	}
	if h.store != nil {
		if err := h.replay(); err != nil {
			h.stopPool()
			_ = h.store.Close() // the hub owns the store from WithStore on
			return nil, err
		}
	}
	h.wg.Add(len(h.shards))
	for _, s := range h.shards {
		go s.run()
	}
	return h, nil
}

// replay rehydrates every home from the store. It runs before the shard
// goroutines start, so it touches shard state directly. Rehydration runs the
// engines in quiet mode: replayed rules whose conditions hold on the rebuilt
// context are adopted as device owners without dispatching — the actions
// fired in the process's previous life, and a restart must not fire them
// again (the same exactly-once argument migration import relies on).
func (h *Hub) replay() error {
	defer func() {
		for _, s := range h.shards {
			for _, hm := range s.homes {
				hm.engine.SetQuiet(false)
			}
		}
	}()
	return h.store.Replay(func(rec Record) error {
		if rec.Home == "" {
			return errors.New("fleet: record without home")
		}
		s := h.shardFor(rec.Home)
		if rec.Kind == RecordHomeReset {
			// Migration tombstone: discard everything replayed for this home
			// so far. A released home stays gone; an interrupted import's
			// partial records are superseded by the retry that follows.
			s.evict(rec.Home)
			return nil
		}
		hm := s.home(rec.Home)
		hm.engine.SetQuiet(true) // idempotent; lifted when replay finishes
		if err := hm.applyRecord(rec); err != nil {
			return fmt.Errorf("fleet: replay home %q: %w", rec.Home, err)
		}
		return nil
	})
}

// healthReporter is implemented by store backends with failure modes worth
// surfacing (RemoteStore's breaker); local stores have none.
type healthReporter interface{ StoreHealth() StoreHealth }

// StoreHealth reports the attached store backend's health. ok is false when
// no store is attached or the backend has no health to report (MemStore,
// FileStore).
func (h *Hub) StoreHealth() (StoreHealth, bool) {
	if hr, ok := h.store.(healthReporter); ok {
		return hr.StoreHealth(), true
	}
	return StoreHealth{}, false
}

func (h *Hub) shardFor(home string) *shard {
	// Inline FNV-1a: hash/fnv's interface value would allocate on every
	// event in the ingestion hot path.
	hash := uint32(2166136261)
	for i := 0; i < len(home); i++ {
		hash ^= uint32(home[i])
		hash *= 16777619
	}
	return h.shards[hash%uint32(len(h.shards))]
}

// batchDispatcherFor wires one home's engine to the hub's dispatch path: the
// whole fired batch of one pass goes out together — through the worker pool
// when one is configured, inline otherwise — and Err lands back in each entry
// before the engine logs the batch.
func (h *Hub) batchDispatcherFor(home string) engine.BatchDispatcher {
	return func(batch []engine.Fired) {
		disp := h.cfg.dispatch
		if disp == nil {
			return
		}
		if h.jobs == nil || len(batch) == 1 {
			for i := range batch {
				batch[i].Err = disp(home, batch[i].Rule.Device, batch[i].Rule.Action)
			}
			return
		}
		var wg sync.WaitGroup
		wg.Add(len(batch))
		for i := range batch {
			h.jobs <- dispatchJob{home: home, batch: batch, i: i, wg: &wg}
		}
		wg.Wait()
	}
}

func (h *Hub) dispatchWorker() {
	defer h.poolWG.Done()
	for j := range h.jobs {
		j.batch[j.i].Err = h.cfg.dispatch(j.home, j.batch[j.i].Rule.Device, j.batch[j.i].Rule.Action)
		j.wg.Done()
	}
}

func (h *Hub) stopPool() {
	if h.jobs != nil {
		close(h.jobs)
		h.poolWG.Wait()
	}
}

// Close drains and stops every shard, then the dispatch pool, then the store.
// Operations already enqueued still complete, and a post already running its
// event inline finishes first; later ones fail with ErrClosed.
func (h *Hub) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.closed = true
	for _, s := range h.shards {
		s.mb.close()
	}
	h.mu.Unlock()
	h.wg.Wait()
	// Shards are stopped: drain every engine's batched metric accumulators so
	// a post-Close scrape of the registry reads final counts.
	for _, s := range h.shards {
		for _, hm := range s.homes {
			hm.engine.FlushMetrics()
		}
	}
	h.stopPool()
	if h.store != nil {
		return h.store.Close()
	}
	return nil
}

// send enqueues a task for the home's shard under the closed-check lock.
func (h *Hub) send(home string, t task) error {
	_, err := h.admit(home, t, false)
	return err
}

// admit is send for a task that may claim an idle shard (see
// mailbox.admit): when it does, admit returns the shard, and the caller must
// run the task with runInline. That run happens after admit has dropped
// Hub.mu: the task may post again, and a second RLock queued behind a
// pending Close would deadlock.
func (h *Hub) admit(home string, t task, claim bool) (owner *shard, err error) {
	if home == "" {
		return nil, errors.New("fleet: empty home id")
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	if h.closed {
		return nil, ErrClosed
	}
	s := h.shardFor(home)
	claimed, err := s.mb.admit(t, claim)
	if claimed {
		return s, nil
	}
	return nil, err
}

// do runs fn on the home's shard goroutine and waits for it; fn receives nil
// when the home does not exist (reads must not materialize homes). Calling
// do from code already running on that shard (an OnFire observer, a
// dispatcher, on the shard goroutine or inline on a poster) would deadlock —
// observers get everything they need as arguments instead.
func (h *Hub) do(home string, fn func(*Home) error) error {
	return h.exec(home, accRead, fn)
}

func (h *Hub) exec(home string, acc access, fn func(*Home) error) error {
	var err error
	done := make(chan struct{})
	if sendErr := h.send(home, task{
		home: home,
		acc:  acc,
		fn:   func(hm *Home) { err = fn(hm) },
		done: done,
	}); sendErr != nil {
		return sendErr
	}
	<-done
	return err
}

// onShard runs fn on home's shard goroutine and waits for its result.
func (h *Hub) onShard(home string, fn func(*shard) error) error {
	var err error
	done := make(chan struct{})
	if sendErr := h.send(home, task{home: home, shardFn: func(s *shard) { err = fn(s) }, done: done}); sendErr != nil {
		return sendErr
	}
	<-done
	return err
}

// barrier runs fn synchronously on every shard, one after another.
func (h *Hub) barrier(fn func(*shard)) error {
	for _, s := range h.shards {
		done := make(chan struct{})
		h.mu.RLock()
		ok := !h.closed && s.mb.put(task{shardFn: fn, done: done})
		h.mu.RUnlock()
		if !ok {
			return ErrClosed
		}
		<-done
	}
	return nil
}

// Quiesce blocks until every event enqueued before the call has been
// ingested and evaluated. Benchmarks and tests use it as a drain barrier.
func (h *Hub) Quiesce() error { return h.barrier(func(*shard) {}) }

// NumShards returns the hub's shard count.
func (h *Hub) NumShards() int { return len(h.shards) }

// ShardQueues returns each shard's mailbox depth right now, in shard order —
// the signal admission control sheds on, exposed per shard because one hot
// shard can be saturated while the rest of the fleet idles.
func (h *Hub) ShardQueues() []int {
	out := make([]int, len(h.shards))
	for i, s := range h.shards {
		s.mb.mu.Lock()
		out[i] = len(s.mb.queue)
		s.mb.mu.Unlock()
	}
	return out
}

// EventsAccepted returns how many device events PostEvent* accepted.
func (h *Hub) EventsAccepted() uint64 { return h.events.Load() }

// ---- per-home operations ----
// Every operation runs on the home's shard goroutine, serialized with the
// home's event stream: an operation observes all events enqueued before it.
// Mutations materialize the home on first touch and, when a store append
// fails, roll themselves back so memory never outlives what a restart would
// rehydrate. Reads on a home that was never written return empty results
// without creating anything (probing ids must not grow the fleet).

// RegisterUser adds a user to a home, creating the home on first touch.
func (h *Hub) RegisterUser(home, name string, favorites ...string) error {
	return h.exec(home, accCreate, func(hm *Home) error {
		if err := hm.RegisterUser(name, favorites...); err != nil {
			return err
		}
		if err := h.append(Record{Home: home, Kind: RecordUser, User: vocab.Normalize(name), Favorites: favorites}); err != nil {
			hm.rollbackUser(name)
			return err
		}
		return nil
	})
}

// Users returns a home's registered users.
func (h *Hub) Users(home string) ([]string, error) {
	var out []string
	err := h.do(home, func(hm *Home) error {
		if hm != nil {
			out = hm.Users()
		}
		return nil
	})
	return out, err
}

// SetFavorites replaces a user's favourite keywords.
func (h *Hub) SetFavorites(home, user string, keywords []string) error {
	return h.exec(home, accCreate, func(hm *Home) error {
		old, had := hm.favorites[vocab.Normalize(user)]
		hm.SetFavorites(user, keywords)
		if err := h.append(Record{Home: home, Kind: RecordFavorites, User: vocab.Normalize(user), Favorites: keywords}); err != nil {
			if had {
				hm.SetFavorites(user, old)
			} else {
				delete(hm.favorites, vocab.Normalize(user))
				hm.engine.SetFavorites(vocab.Normalize(user), nil)
			}
			return err
		}
		return nil
	})
}

// Submit parses and registers one CADEL command for a home (see Home.Submit).
func (h *Hub) Submit(home, source, owner string) (*Result, error) {
	var res *Result
	err := h.exec(home, accCreate, func(hm *Home) error {
		var err error
		res, err = hm.Submit(source, owner)
		if err != nil {
			return err
		}
		var rec Record
		var undo func()
		switch {
		case res.Rule != nil:
			rec = Record{Home: home, Kind: RecordRule,
				ID: res.Rule.ID, Owner: res.Rule.Owner, Source: res.Rule.Source}
			undo = func() { hm.rollbackRule(res.Rule.ID) }
		case res.WordKind == vocab.KindCondWord:
			rec = Record{Home: home, Kind: RecordCondWord,
				Word: res.DefinedWord, Owner: vocab.Normalize(owner), Source: res.WordSource}
			undo = func() { hm.rollbackWord(vocab.KindCondWord, res.DefinedWord) }
		case res.WordKind == vocab.KindConfWord:
			rec = Record{Home: home, Kind: RecordConfWord,
				Word: res.DefinedWord, Owner: vocab.Normalize(owner), Source: res.WordSource}
			undo = func() { hm.rollbackWord(vocab.KindConfWord, res.DefinedWord) }
		default:
			return nil
		}
		if err := h.append(rec); err != nil {
			undo()
			res = nil
			return err
		}
		return nil
	})
	return res, err
}

// RemoveRule deletes a home's rule by id.
func (h *Hub) RemoveRule(home, id string) error {
	return h.exec(home, accWrite, func(hm *Home) error {
		if hm == nil {
			return fmt.Errorf("%w: %q", registry.ErrNotFound, id)
		}
		removed, _ := hm.db.Get(id)
		if err := hm.RemoveRule(id); err != nil {
			return err
		}
		if err := h.append(Record{Home: home, Kind: RecordRemove, ID: id}); err != nil {
			if removed != nil {
				_ = hm.restoreRule(removed.ID, removed.Owner, removed.Source)
			}
			return err
		}
		return nil
	})
}

// Rules returns a home's rules in registration order.
func (h *Hub) Rules(home string) ([]*core.Rule, error) {
	var out []*core.Rule
	err := h.do(home, func(hm *Home) error {
		if hm != nil {
			out = hm.Rules()
		}
		return nil
	})
	return out, err
}

// RulesByOwner returns one user's rules in a home.
func (h *Hub) RulesByOwner(home, owner string) ([]*core.Rule, error) {
	var out []*core.Rule
	err := h.do(home, func(hm *Home) error {
		if hm != nil {
			out = hm.RulesByOwner(owner)
		}
		return nil
	})
	return out, err
}

// ExportRules serializes a home's rule database.
func (h *Hub) ExportRules(home string) ([]byte, error) {
	var out []byte
	err := h.do(home, func(hm *Home) error {
		if hm == nil {
			var err error
			out, err = registry.New().Export()
			return err
		}
		var err error
		out, err = hm.ExportRules()
		return err
	})
	return out, err
}

// ImportRules loads rules exported by ExportRules into a home. Rules whose
// store append fails are rolled back, so the reported count matches what a
// restart would rehydrate.
func (h *Hub) ImportRules(home string, data []byte) (int, error) {
	var n int
	err := h.exec(home, accCreate, func(hm *Home) error {
		var recs []registry.Record
		var err error
		n, recs, err = hm.ImportRules(data)
		for _, r := range recs {
			if aerr := h.append(Record{Home: home, Kind: RecordRule, ID: r.ID, Owner: r.Owner, Source: r.Source}); aerr != nil {
				hm.rollbackRule(r.ID)
				n--
				if err == nil {
					err = aerr
				}
			}
		}
		return err
	})
	return n, err
}

// SetPriority records a priority order for a device in a home. A failed
// store append is reported but not rolled back (the previous order is
// overwritten in place); the caller should retry.
func (h *Hub) SetPriority(home string, ref core.DeviceRef, users []string, contextSource string) error {
	return h.exec(home, accCreate, func(hm *Home) error {
		if err := hm.SetPriority(ref, users, contextSource); err != nil {
			return err
		}
		dev := ref
		return h.append(Record{
			Home: home, Kind: RecordPriority,
			Device: &dev, Users: users, Context: contextSource,
		})
	})
}

// PriorityOrders returns the orders applying to a device in a home.
func (h *Hub) PriorityOrders(home string, ref core.DeviceRef) ([]conflict.Order, error) {
	var out []conflict.Order
	err := h.do(home, func(hm *Home) error {
		if hm != nil {
			out = hm.PriorityOrders(ref)
		}
		return nil
	})
	return out, err
}

// PostEvent ingests a device event for a home without waiting for a busy
// shard. When the home's shard is idle, the event is evaluated — and a
// single fired action dispatched — on the caller's goroutine before
// PostEvent returns; otherwise it queues. Events of one home are applied in
// posting order; a backlog coalesces into a single evaluation pass. The
// event is copied into a pooled ingest.Event before PostEvent returns, so
// the caller keeps vars and may reuse it. A home sealed for migration or
// released refuses it with a SealedError.
func (h *Hub) PostEvent(home, deviceType, friendlyName, location string, vars map[string]string) error {
	return h.postVars(home, deviceType, friendlyName, location, vars, accCreate, false)
}

// PostEventFeedback is PostEvent for dispatch-feedback chains (an actuated
// appliance notifying its own property change from a Dispatcher or OnFire
// callback). A sealed home still admits it, so in-flight chains keep
// draining while the coordinator's quiesce loop waits for them and new
// external posts bounce with 503. A released home refuses it like any other
// write: the home lives elsewhere, and admitting the post would recreate it
// here empty.
func (h *Hub) PostEventFeedback(home, deviceType, friendlyName, location string, vars map[string]string) error {
	return h.postVars(home, deviceType, friendlyName, location, vars, accFeedback, false)
}

// PostEventSync ingests a device event and waits until the home has
// evaluated it. Like PostEvent, it copies vars and keeps no reference.
func (h *Hub) PostEventSync(home, deviceType, friendlyName, location string, vars map[string]string) error {
	return h.postVars(home, deviceType, friendlyName, location, vars, accCreate, true)
}

// postVars fills a pooled event from a map-shaped event and posts it.
func (h *Hub) postVars(home, deviceType, friendlyName, location string, vars map[string]string, acc access, wait bool) error {
	ev := ingest.AcquireEvent()
	ev.Fill(deviceType, friendlyName, location, vars)
	err := h.post(home, ev, acc, wait)
	if err != nil {
		ev.Release()
	}
	return err
}

// PostEventFast is PostEvent for a wire-decoded event. On success the
// hub takes ownership of ev (including every slice decoded from it) and
// releases it to the pool after the home applies it; on error the caller
// still owns ev. This is the ingest.Poster surface the sink posts into.
func (h *Hub) PostEventFast(home string, ev *ingest.Event) error {
	return h.post(home, ev, accCreate, false)
}

// PostEventFastSync is PostEventFast waiting until the home has evaluated
// the event. Ownership transfers as in PostEventFast; ev is already released
// by the time this returns.
func (h *Hub) PostEventFastSync(home string, ev *ingest.Event) error {
	return h.post(home, ev, accCreate, true)
}

// syncWaiters pools the WaitGroups that ack synchronous posts: a one-shot
// channel per event would be the last allocation left on the sync path.
// Reuse is safe because each waiter's Wait has returned before the pool
// sees it again.
var syncWaiters = sync.Pool{New: func() any { return new(sync.WaitGroup) }}

// post hands ev to home's shard — the one event path every post method
// takes — and, when wait is set, blocks until the home has evaluated it.
// When the shard is idle, post claims it and evaluates ev on the caller's
// goroutine before returning, async posts included; otherwise ev queues for
// the shard goroutine. On success the hub owns ev; on error the caller
// still does.
func (h *Hub) post(home string, ev *ingest.Event, acc access, wait bool) error {
	t := task{home: home, acc: acc, event: ev}
	if wait {
		t.wg = syncWaiters.Get().(*sync.WaitGroup)
		t.wg.Add(1)
	}
	owner, err := h.admit(home, t, true)
	if err == nil {
		h.events.Add(1)
	}
	if owner != nil {
		owner.runInline(t)
	}
	if t.wg != nil {
		if err == nil {
			t.wg.Wait()
		} else {
			t.wg.Done()
		}
		syncWaiters.Put(t.wg)
	}
	return err
}

// Backlog reports how many tasks are queued right now on the shard that owns
// home — the admission-control load signal: the shard mailbox is unbounded
// by design, so the transport sheds on this depth instead.
func (h *Hub) Backlog(home string) int {
	s := h.shardFor(home)
	s.mb.mu.Lock()
	defer s.mb.mu.Unlock()
	return len(s.mb.queue)
}

// Tick re-evaluates a home at the current clock time (after advancing a
// simulation clock). A no-op for homes that do not exist yet.
func (h *Hub) Tick(home string) error {
	return h.do(home, func(hm *Home) error {
		if hm != nil {
			hm.Tick()
		}
		return nil
	})
}

// Log returns a home's fired-action log.
func (h *Hub) Log(home string) ([]engine.Fired, error) {
	var out []engine.Fired
	err := h.do(home, func(hm *Home) error {
		if hm != nil {
			out = hm.Log()
		}
		return nil
	})
	return out, err
}

// Context returns a copy of a home's current context. Only the cheap cached
// snapshot is taken on the home's shard goroutine; the mutation-safe deep
// clone happens on the caller, so observability never stalls the shard.
func (h *Hub) Context(home string) (*core.Context, error) {
	var snap *core.Context
	err := h.do(home, func(hm *Home) error {
		if hm != nil {
			snap = hm.Snapshot()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if snap == nil {
		return core.NewContext(h.cfg.now()), nil
	}
	return snap.Clone(), nil
}

// Owners returns a home's device → owning-rule-ID map.
func (h *Hub) Owners(home string) (map[string]string, error) {
	out := map[string]string{}
	err := h.do(home, func(hm *Home) error {
		if hm != nil {
			out = hm.Owners()
		}
		return nil
	})
	return out, err
}

// HomeStats is one home's observability snapshot: rule/user counts, the
// engine's pass counters, and its symbol-table / id-slice footprint (the
// idle-memory side of the symtab id-space hygiene work).
type HomeStats struct {
	Home    string             `json:"home"`
	Users   int                `json:"users"`
	Rules   int                `json:"rules"`
	Passes  uint64             `json:"passes"`
	Batches uint64             `json:"dispatch_batches"`
	Symbols engine.SymbolStats `json:"symbols"`
	// Backlog is the queue depth of the shard owning this home at snapshot
	// time — the signal admission control sheds on.
	Backlog int `json:"backlog"`
}

// HomeStats returns one home's counters and symbol footprint. It fails with
// ErrNoHome for homes that were never written (reads must not materialize
// homes).
func (h *Hub) HomeStats(home string) (HomeStats, error) {
	st := HomeStats{Home: home, Backlog: h.Backlog(home)}
	err := h.do(home, func(hm *Home) error {
		if hm == nil {
			return ErrNoHome
		}
		st.Users = len(hm.users)
		st.Rules = hm.db.Len()
		st.Passes = hm.engine.Passes()
		st.Batches = hm.engine.DispatchBatches()
		st.Symbols = hm.SymbolStats()
		return nil
	})
	return st, err
}

// CompactHome forces a symbol-compaction epoch on one home's engine,
// mirroring the store-level Compact endpoint at the id layer. It runs on the
// home's shard goroutine, serialized with the home's event stream like any
// other operation. compacted is false when the home's engine runs the
// full-scan oracle and holds no compactible ids.
func (h *Hub) CompactHome(home string) (st engine.CompactStats, compacted bool, err error) {
	err = h.do(home, func(hm *Home) error {
		if hm == nil {
			return ErrNoHome
		}
		st, compacted = hm.CompactSymbols()
		return nil
	})
	return st, compacted, err
}

// Passes returns how many evaluation passes a home's engine has run.
func (h *Hub) Passes(home string) (uint64, error) {
	var out uint64
	err := h.do(home, func(hm *Home) error {
		if hm != nil {
			out = hm.Passes()
		}
		return nil
	})
	return out, err
}

func (h *Hub) append(rec Record) error {
	if h.store == nil {
		return nil
	}
	if err := h.store.Append(rec); err != nil {
		return err
	}
	h.metrics.StoreAppends.Inc()
	return nil
}

// Metrics returns the hub's metrics registry after a flush barrier: every
// home engine drains its batched accumulators first, so a scrape right after
// Quiesce observes deterministic counts. On a closed hub the barrier is a
// no-op (Close already flushed) and the final counters are returned.
func (h *Hub) Metrics() *obs.Metrics {
	_ = h.barrier(func(s *shard) {
		for _, hm := range s.homes {
			hm.engine.FlushMetrics()
		}
	})
	return h.metrics
}

// Trace returns a home's records in its shard's firing-trace ring, oldest
// pass first. The shard's other homes share the ring, so a quiet home's
// records may have been evicted. It fails with ErrNoHome for homes that
// were never written, and returns nil when tracing is disabled
// (WithTraceLimit(0)).
func (h *Hub) Trace(home string) ([]engine.PassTrace, error) {
	var out []engine.PassTrace
	err := h.do(home, func(hm *Home) error {
		if hm == nil {
			return ErrNoHome
		}
		out = hm.engine.TraceSnapshot()
		return nil
	})
	return out, err
}

// ---- fleet-wide operations ----

// Homes returns every home id across all shards, sorted.
func (h *Hub) Homes() ([]string, error) {
	var out []string
	err := h.barrier(func(s *shard) {
		for id := range s.homes {
			out = append(out, id)
		}
	})
	sort.Strings(out)
	return out, err
}

// Stats aggregates the hub's ingestion and evaluation counters.
type Stats struct {
	Shards int    `json:"shards"`
	Homes  int    `json:"homes"`
	Events uint64 `json:"events"` // device events accepted
	Passes uint64 `json:"passes"` // engine evaluation passes across homes
	// Batches counts evaluation passes that fired at least one action (each
	// pass's fired set leaves the engine as one dispatch batch) — NOT the
	// number of individual fired actions; read a home's Log for those.
	Batches uint64 `json:"dispatch_batches"`
	Rules   int    `json:"rules"`  // registered rules across homes
	Queued  int    `json:"queued"` // tasks waiting in mailboxes right now
	// ShardQueues is the per-shard mailbox depth behind Queued, in shard
	// order — the granularity admission control sheds on (one hot shard can
	// be saturated while the rest of the fleet idles).
	ShardQueues []int `json:"shard_queues"`
}

// Stats returns a consistent-enough snapshot of the hub's counters. The
// events/passes ratio is the ingestion coalescing factor.
func (h *Hub) Stats() (Stats, error) {
	st := Stats{Shards: len(h.shards), Events: h.events.Load(), ShardQueues: h.ShardQueues()}
	for _, q := range st.ShardQueues {
		st.Queued += q
	}
	err := h.barrier(func(s *shard) {
		st.Homes += len(s.homes)
		for _, hm := range s.homes {
			hm.engine.FlushMetrics()
			st.Rules += hm.db.Len()
		}
	})
	// Pass/batch totals come from the metrics registry (flushed by the
	// barrier above) instead of a second per-home counter walk.
	tot := h.metrics.Totals()
	st.Passes = tot.Passes
	st.Batches = tot.DispatchBatches
	return st, err
}

// Compact writes a snapshot of every home's durable state to the store and
// truncates its log. Every shard is held at the snapshot point until the
// truncation completes — otherwise a mutation appended by an
// already-released shard would land in the WAL only to be truncated away,
// lost to the next restart. No-op without a store.
func (h *Hub) Compact() error {
	if h.store == nil {
		return nil
	}
	// Only one compactor may pause the shards at a time: two interleaved
	// pause-task enqueues could order differently on different shards, each
	// compactor then waiting on a shard paused for the other — a permanent
	// fleet-wide deadlock.
	h.compactMu.Lock()
	defer h.compactMu.Unlock()
	var (
		mu      sync.Mutex
		recs    []Record
		arrived sync.WaitGroup
		release = make(chan struct{})
	)
	h.mu.RLock()
	if h.closed {
		h.mu.RUnlock()
		return ErrClosed
	}
	// Under the read lock Close cannot run, so every put succeeds and every
	// shard is guaranteed to reach the pause point.
	arrived.Add(len(h.shards))
	for _, s := range h.shards {
		s.mb.put(task{shardFn: func(sh *shard) {
			ids := make([]string, 0, len(sh.homes))
			for id := range sh.homes {
				ids = append(ids, id)
			}
			sort.Strings(ids)
			mu.Lock()
			for _, id := range ids {
				recs = append(recs, sh.homes[id].snapshotRecords()...)
			}
			mu.Unlock()
			arrived.Done()
			<-release
		}})
	}
	h.mu.RUnlock()
	arrived.Wait()
	err := h.store.WriteSnapshot(recs)
	close(release)
	return err
}
