// Package fleet scales the CADEL home server from the paper's single home
// (Fig. 3, Nishigaki et al., ICDCS 2005) to a multi-home service. A Hub owns
// N shards; every home maps to one shard by hash, and each shard runs the
// homes it owns — their lexicon, rule database, priority table and execution
// engine — behind one mailbox and one owner at a time, so homes evaluate
// independently and shards evaluate in parallel.
//
// The pipeline, stage by stage (see README.md for the sketch):
//
//	ingestion → shard mailbox → coalesce → engine pass → dispatch pool → store
//
// Ingestion runs to completion on an idle shard and coalesces on a busy
// one: a PostEvent that finds its shard idle claims it and evaluates the
// event on the caller's goroutine, with no mailbox wake-up; otherwise it
// enqueues onto the home's shard mailbox, and the shard goroutine drains
// its whole backlog at once — a burst of UPnP property-change events for
// one home collapses into one accumulated dirty-key set and a single
// evaluation pass instead of a pass per NOTIFY. Actions fired by a pass are handed to the dispatch worker pool
// as one batch (engine.WithBatchDispatcher), so slow appliance round-trips
// overlap instead of serializing under the engine lock. Rule and priority
// mutations persist through a pluggable Store; a hub restarted over the same
// store rehydrates every home's users, words, rules and priorities.
package fleet

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/vocab"
)

// Errors reported by the fleet.
var (
	// ErrClosed marks operations on a hub after Close.
	ErrClosed = errors.New("fleet: hub closed")
	// ErrInconsistent marks a rule whose condition can never hold; the hub
	// refuses it so the user can fix the condition (Sect. 4.4).
	ErrInconsistent = errors.New("fleet: rule condition can never hold")
	// ErrUnknownUser marks a submission by a user the home has not registered.
	ErrUnknownUser = errors.New("fleet: unknown user")
	// ErrForbidden marks a rule whose owner lacks the privilege for the
	// target device and action.
	ErrForbidden = errors.New("fleet: user may not perform this action on this device")
	// ErrNoHome marks a per-home read (stats, compaction) on a home that was
	// never written; reads must not materialize homes.
	ErrNoHome = errors.New("fleet: home does not exist")
	// ErrStoreDegraded marks a write refused (or abandoned) because the
	// durable store backend is unreachable: the hub fails the write closed —
	// it applies nothing to memory and the HTTP layer answers 503 with a
	// Retry-After — while reads keep serving from memory. Wrap it in a
	// DegradedError to carry the retry hint.
	ErrStoreDegraded = errors.New("fleet: store degraded")
	// ErrHomeSealed marks a mutation or event on a home sealed for live
	// migration (Hub.SealHome) or released to another node: the HTTP layer
	// answers 503 with a Retry-After; by the time the client retries, the
	// ring answers with a 307 to the new owner. Wrap it in a SealedError to
	// carry the hint.
	ErrHomeSealed = errors.New("fleet: home sealed for migration")
	// ErrMigrationInFlight marks a seal of a home another migration holds.
	ErrMigrationInFlight = errors.New("fleet: migration already in flight")
)

// DegradedError is a store-degraded failure with a retry hint. It unwraps to
// ErrStoreDegraded; the HTTP layer turns RetryAfter into a Retry-After
// header on the 503.
type DegradedError struct {
	// RetryAfter is how long the caller should wait before retrying the
	// write — the breaker's remaining cool-down, or one backoff step when the
	// failure exhausted its retries without tripping the breaker.
	RetryAfter time.Duration
	// Err is the underlying transport failure; nil when the breaker refused
	// the write without attempting it.
	Err error
}

// Error implements error.
func (e *DegradedError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("%v: %v", ErrStoreDegraded, e.Err)
	}
	return ErrStoreDegraded.Error()
}

// Unwrap makes errors.Is(err, ErrStoreDegraded) hold.
func (e *DegradedError) Unwrap() error { return ErrStoreDegraded }

// DefaultSealRetryAfter is the Retry-After hint handed to clients that hit a
// sealed home. Migrations are sub-second in practice; one second keeps dumb
// retry loops from hammering the source while it snapshots.
const DefaultSealRetryAfter = time.Second

// SealedError is a write refused because the home is sealed for migration.
// It unwraps to ErrHomeSealed; the HTTP layer turns RetryAfter into a
// Retry-After header on the 503.
type SealedError struct {
	Home       string
	RetryAfter time.Duration
}

// Error implements error.
func (e *SealedError) Error() string {
	return fmt.Sprintf("%v: %q", ErrHomeSealed, e.Home)
}

// Unwrap makes errors.Is(err, ErrHomeSealed) hold.
func (e *SealedError) Unwrap() error { return ErrHomeSealed }

// DefaultLogLimit is the per-home fired-action log cap applied unless
// WithLogLimit overrides it. Long-running homes fire indefinitely, so an
// unbounded log is a slow leak at fleet scale; pass WithLogLimit(0) to keep
// everything (single-home debugging, short-lived tests).
const DefaultLogLimit = 1024

// DefaultTraceLimit is the per-shard firing-trace ring capacity (pass
// records kept for GET /fleet/homes/{home}/trace) unless WithTraceLimit
// overrides it. All homes of a shard share the ring, so a busy home evicts
// a quiet neighbour's records. The ring is allocated with the hub and
// reuses its slots in place, so the cap bounds memory, not allocation rate.
//
// The value is set by memory (about 250 B a slot), not by retention: a
// record lasts capacity / traced passes per second of its shard, about
// 0.1 s for a shard of 2,048 homes taking 10,000 events/s, so such homes
// keep about half a record each. Raise it with WithTraceLimit where
// deeper per-home history is worth the heap (internal/obs/README.md).
const DefaultTraceLimit = 1024

// Dispatcher applies one fired action of one home to the real (or simulated)
// appliance. The single-home server wires this to UPnP control.
// action.Settings is the firing rule's compiled settings map, which rules of
// other homes may share (see core.Rule): the dispatcher must treat it as
// read-only.
type Dispatcher func(home string, ref core.DeviceRef, action core.Action) error

// OnFire observes every dispatched action. It runs on whichever goroutine
// owns the home's shard for the pass (the shard goroutine, or the poster
// whose event ran inline); it must not wait on the hub for the same shard.
type OnFire func(home string, f engine.Fired)

// Authorizer gates rule submission: it reports whether owner may register a
// rule performing verb on the device. nil allows everything.
type Authorizer func(home, owner string, device core.DeviceRef, verb string) bool

// LexiconFactory builds the lexicon for a new home. The default gives every
// home its own vocab.Default(): a private overlay for the home's persons and
// words over the one built-in base every home shares. A caller that must
// reach a home's lexicon from outside the hub (cadel.Server hands it to the
// lookup service) supplies the lexicon itself.
type LexiconFactory func(home string) *vocab.Lexicon

type config struct {
	shards          int
	dispatchWorkers int
	now             func() time.Time
	eventTTL        time.Duration
	logLimit        int
	traceCap        int
	fullScan        bool
	dispatch        Dispatcher
	onFire          OnFire
	authorize       Authorizer
	lexicon         LexiconFactory
	store           Store
}

// HubOption configures a Hub.
type HubOption interface{ apply(*config) }

type optionFunc func(*config)

func (f optionFunc) apply(c *config) { f(c) }

// WithShards sets the number of shards (mailboxes, each with its
// goroutine). Homes map to
// shards by hash; more shards mean more evaluation parallelism. Defaults to
// the number of CPUs.
func WithShards(n int) HubOption {
	return optionFunc(func(c *config) { c.shards = n })
}

// WithDispatchWorkers sets the size of the dispatch worker pool shared by all
// shards. 0 (the default) dispatches inline on the goroutine running the
// pass; with workers, a pass's fired batch of two or more goes out in
// parallel.
func WithDispatchWorkers(n int) HubOption {
	return optionFunc(func(c *config) { c.dispatchWorkers = n })
}

// WithClock supplies the time source shared by every home's engine.
func WithClock(now func() time.Time) HubOption {
	return optionFunc(func(c *config) { c.now = now })
}

// WithEventTTL sets how long arrival events stay part of a home's context.
func WithEventTTL(ttl time.Duration) HubOption {
	return optionFunc(func(c *config) { c.eventTTL = ttl })
}

// WithLogLimit caps each home's fired-action log (engine.WithLogLimit).
// The default is DefaultLogLimit; n <= 0 removes the cap and keeps
// everything.
func WithLogLimit(n int) HubOption {
	return optionFunc(func(c *config) { c.logLimit = n })
}

// WithTraceLimit sets each shard's firing-trace ring capacity: the pass
// records kept across all of the shard's homes together (engine.TraceRing),
// so a busy home can evict a quiet neighbour's records. The default is
// DefaultTraceLimit; n <= 0 disables tracing entirely.
func WithTraceLimit(n int) HubOption {
	return optionFunc(func(c *config) { c.traceCap = n })
}

// WithFullScan puts every home's engine in full-scan (oracle) mode
// (engine.WithFullScan): the naive evaluator over a map-backed context,
// holding no symbol ids. Equivalence checks and benchmarks use it as the
// oracle/baseline.
func WithFullScan() HubOption {
	return optionFunc(func(c *config) { c.fullScan = true })
}

// WithDispatcher installs the action dispatcher.
func WithDispatcher(d Dispatcher) HubOption {
	return optionFunc(func(c *config) { c.dispatch = d })
}

// WithOnFire installs a fired-action observer.
func WithOnFire(fn OnFire) HubOption {
	return optionFunc(func(c *config) { c.onFire = fn })
}

// WithAuthorizer installs the rule-submission privilege check.
func WithAuthorizer(a Authorizer) HubOption {
	return optionFunc(func(c *config) { c.authorize = a })
}

// WithLexiconFactory overrides how a new home's lexicon is built.
func WithLexiconFactory(f LexiconFactory) HubOption {
	return optionFunc(func(c *config) { c.lexicon = f })
}

// WithStore attaches a persistence store. NewHub replays it to rehydrate
// every home, then appends every later mutation. The hub takes ownership and
// closes the store on Close.
func WithStore(s Store) HubOption {
	return optionFunc(func(c *config) { c.store = s })
}

// Result reports the outcome of submitting one CADEL command to a home.
type Result struct {
	// Rule is the registered rule object; nil for word definitions.
	Rule *core.Rule
	// DefinedWord is the new word for CondDef/ConfDef commands; WordKind
	// and WordSource carry what the word stands for.
	DefinedWord string
	WordKind    vocab.Kind
	WordSource  string
	// Conflicts lists existing rules the new rule can conflict with. The rule
	// is registered regardless; the caller should present the list and record
	// a priority order (Fig. 7).
	Conflicts []Conflict
}
