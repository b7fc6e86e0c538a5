// Package obs is the fleet's allocation-free observability layer: atomic
// counters and gauges plus fixed-bucket log-linear histograms, grouped into
// per-hub-shard blocks so the hot writers (each shard's current owner, plus
// the transport goroutines hashed onto the owning shard's stripe) never
// contend on a shared cache line, and rendered as hand-rolled Prometheus
// text exposition — no dependencies beyond the standard library.
//
// The zero-alloc contract: Observe/Inc/Add never allocate and never lock.
// A Histogram is a fixed [256]uint64 bucket array (values 0–15 linear, then
// four sub-buckets per power-of-two octave), so one observation is exactly
// two atomic adds; the bucket count is derived at scrape time instead of
// being a third counter. Scrape-side calls (WritePrometheus, Totals) may
// allocate freely — they run per scrape, not per event.
package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram bucket layout: values below histLinear each get their own
// bucket; larger values are split into histSub sub-buckets per power-of-two
// octave, giving a worst-case relative bucket width of 1/histSub (~25%
// resolution) across the whole uint64 range in a fixed 256-slot array.
const (
	histLinear  = 16
	histSub     = 4
	histBuckets = histLinear + (64-4)*histSub
)

// Histogram is a fixed-bucket log-linear histogram of uint64 samples
// (durations in nanoseconds, set sizes). Observe is wait-free: one atomic
// add on the bucket, one on the running sum. There is no count field — the
// count is the sum of the buckets, computed at scrape time.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	sum     atomic.Uint64
}

// bucketIndex maps a sample to its bucket: identity below histLinear, then
// octave o = floor(log2 v) with the next two bits selecting the sub-bucket.
func bucketIndex(v uint64) int {
	if v < histLinear {
		return int(v)
	}
	o := bits.Len64(v) - 1 // 4..63
	sub := int((v >> (uint(o) - 2)) & (histSub - 1))
	return histLinear + (o-4)*histSub + sub
}

// bucketBound returns the inclusive upper bound of bucket i as a float (the
// top octaves exceed the float64 integer range; monitoring does not care).
func bucketBound(i int) float64 {
	if i < histLinear {
		return float64(i)
	}
	i -= histLinear
	o := i/histSub + 4
	sub := i % histSub
	return math.Ldexp(1, o) + float64(sub+1)*math.Ldexp(1, o-2) - 1
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	h.buckets[bucketIndex(v)].Add(1)
	h.sum.Add(v)
}

// Count returns the number of samples recorded (scrape-side: O(buckets)).
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum returns the sum of all recorded samples.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Stats summarizes the histogram for JSON stats endpoints (scrape-side).
func (h *Histogram) Stats() HistStats {
	var s histSnap
	h.addTo(&s)
	return histStats(&s)
}

// histSnap is a scrape-time merge of one or more histograms.
type histSnap struct {
	buckets [histBuckets]uint64
	sum     uint64
	count   uint64
}

func (h *Histogram) addTo(s *histSnap) {
	for i := range h.buckets {
		n := h.buckets[i].Load()
		s.buckets[i] += n
		s.count += n
	}
	s.sum += h.sum.Load()
}

// quantile estimates the q-quantile as the upper bound of the bucket where
// the cumulative count crosses q.
func (s *histSnap) quantile(q float64) float64 {
	if s.count == 0 {
		return 0
	}
	target := uint64(q * float64(s.count))
	if target >= s.count {
		target = s.count - 1
	}
	var cum uint64
	for i := range s.buckets {
		cum += s.buckets[i]
		if cum > target {
			return bucketBound(i)
		}
	}
	return bucketBound(histBuckets - 1)
}

// EngineMetrics is the per-shard block the evaluation engines write. Engines
// batch their deltas in plain fields under the engine lock and flush them
// here at firing passes and every 32nd pass (see engine.WithMetrics), so a
// steady-state pass costs well under one atomic add; the histograms are
// sampled on the same every-32nd cadence.
type EngineMetrics struct {
	Passes          Counter
	RulesChecked    Counter
	RulesFired      Counter
	RulesSuppressed Counter
	DispatchBatches Counter
	CompactEpochs   Counter
	PassNs          Histogram // sampled: wall duration of the locked pass
	DirtyKeys       Histogram // sampled: dirty dependency ids per pass
}

// IngestMetrics is the per-shard-stripe block the transport decoders write
// (one observation per posted event — the wire path is request-scale, not
// pass-scale, so nothing is sampled or batched here).
type IngestMetrics struct {
	EventsDecoded Counter
	DecodeErrors  Counter
	DecodeNs      Histogram
}

// StoreMetrics is the hub-level block the store backend writes — the remote
// record-log client's retry/backoff/breaker instrumentation. Store traffic is
// mutation-scale (one append per rule/user/priority change), not event-scale,
// so a single unsharded block is contention-free in practice; every write is
// still one wait-free atomic op.
type StoreMetrics struct {
	AppendErrors  Counter   // appends that failed after exhausting retries
	AppendRetries Counter   // individual retried append attempts
	BreakerTrips  Counter   // circuit-breaker open transitions
	Degraded      Gauge     // 1 while the breaker holds the store degraded
	AppendNs      Histogram // wall duration of successful appends (incl. retries)
}

// MigrationMetrics is the hub-level block live home migration writes (see
// internal/ring). Migration is operator-scale — a handful per rebalance, not
// per event — so a single unsharded block suffices; writes are still
// wait-free atomic ops.
type MigrationMetrics struct {
	Started         Counter   // migrations begun on this node as the source
	Completed       Counter   // migrations fully released (target acked)
	Failed          Counter   // migrations aborted and unsealed (home stayed)
	Imported        Counter   // homes imported on this node as the target
	TransferRetries Counter   // retried transfer POST attempts
	DurationNs      Histogram // seal-to-release wall time of completed migrations
}

// ConnMetrics is the per-stripe connection block the raw-socket HTTP front
// end writes (see internal/rawhttp). Connections are assigned a stripe
// round-robin at accept (Metrics.ConnShard), so concurrent connection
// goroutines spread over the shard stripes instead of hammering one cache
// line; every write is a single wait-free atomic op, nothing allocates.
type ConnMetrics struct {
	ConnsAccepted  Counter // connections accepted by the raw listener
	ConnsActive    Gauge   // connections currently open
	KeepaliveReuse Counter // requests served on an already-used connection
	ParseErrors    Counter // request heads the parser rejected
	ReadTimeouts   Counter // reads that hit a deadline (slowloris, stalls)
}

// ShardMetrics groups one hub shard's blocks. The shard's current owner
// (its mailbox goroutine, or a poster evaluating its own event on an idle
// shard) writes the Engine block and the two event counters; transport
// goroutines hash each home onto its owning shard's Ingest stripe
// (Metrics.IngestShard), so cross-shard traffic never shares a write-hot
// cache line. Conn stripes are claimed round-robin by the raw front end's
// connections.
type ShardMetrics struct {
	Engine EngineMetrics
	Ingest IngestMetrics
	Conn   ConnMetrics
	// Where each device event ran: inline on the posting goroutine, which
	// found the shard idle and evaluated the event before returning, or
	// queued in the mailbox for the shard goroutine.
	EventsInline Counter
	EventsQueued Counter
	// The shard's compiled-rule table: live templates, and rule compiles
	// served from a template (shared) or by parsing and compiling.
	RuleTemplates        Gauge
	RuleCompilesShared   Counter
	RuleCompilesCompiled Counter
}

// Metrics is a hub's full metric surface: hub-level series plus one
// ShardMetrics per shard. Scrapes aggregate across shards, so shard count is
// an implementation detail of the exposition.
type Metrics struct {
	Homes        Gauge   // homes resident in the hub
	StoreAppends Counter // journal records appended to the store
	Store        StoreMetrics
	Migration    MigrationMetrics
	shards       []*ShardMetrics
}

// New builds a Metrics with the given shard count (minimum one).
func New(shards int) *Metrics {
	if shards < 1 {
		shards = 1
	}
	m := &Metrics{shards: make([]*ShardMetrics, shards)}
	for i := range m.shards {
		m.shards[i] = &ShardMetrics{}
	}
	return m
}

// NumShards returns the shard count.
func (m *Metrics) NumShards() int { return len(m.shards) }

// Shard returns shard i's block.
func (m *Metrics) Shard(i int) *ShardMetrics { return m.shards[i] }

// IngestShard returns the ingest stripe for a home, hashed with the same
// FNV-1a the fleet hub shards homes by, so a home's transport metrics land
// on its owning shard's block.
func (m *Metrics) IngestShard(home string) *IngestMetrics {
	return &m.shards[fnv32(home)%uint32(len(m.shards))].Ingest
}

// ConnShard returns the connection stripe for the i-th accepted connection;
// the raw front end assigns stripes round-robin from its accept counter.
func (m *Metrics) ConnShard(i uint64) *ConnMetrics {
	return &m.shards[i%uint64(len(m.shards))].Conn
}

func fnv32(s string) uint32 {
	hash := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		hash ^= uint32(s[i])
		hash *= 16777619
	}
	return hash
}

// HistStats is a scrape-time histogram summary for JSON stats endpoints.
type HistStats struct {
	Count uint64  `json:"count"`
	Sum   uint64  `json:"sum"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Totals is the cross-shard aggregate for JSON stats endpoints.
type Totals struct {
	Passes           uint64    `json:"passes"`
	RulesChecked     uint64    `json:"rules_checked"`
	RulesFired       uint64    `json:"rules_fired"`
	RulesSuppressed  uint64    `json:"rules_suppressed"`
	DispatchBatches  uint64    `json:"dispatch_batches"`
	CompactEpochs    uint64    `json:"compact_epochs"`
	EventsDecoded    uint64    `json:"events_decoded"`
	DecodeErrors     uint64    `json:"decode_errors"`
	EventsInline     uint64    `json:"events_inline"`
	EventsQueued     uint64    `json:"events_queued"`
	StoreAppends     uint64    `json:"store_appends"`
	RuleTemplates    int64     `json:"rule_templates"`
	CompilesShared   uint64    `json:"rule_compiles_shared"`
	CompilesCompiled uint64    `json:"rule_compiles_compiled"`
	PassNs           HistStats `json:"pass_ns"`
	DecodeNs         HistStats `json:"decode_ns"`
}

// StoreTotals is the store-backend aggregate for JSON stats endpoints: the
// health signal operators read to see a flapping backend before homes start
// shedding writes.
type StoreTotals struct {
	Appends       uint64    `json:"appends"`
	AppendErrors  uint64    `json:"append_errors"`
	AppendRetries uint64    `json:"append_retries"`
	BreakerTrips  uint64    `json:"breaker_trips"`
	Degraded      bool      `json:"degraded"`
	AppendNs      HistStats `json:"append_ns"`
}

// StoreTotals summarizes the store block.
func (m *Metrics) StoreTotals() StoreTotals {
	return StoreTotals{
		Appends:       m.StoreAppends.Load(),
		AppendErrors:  m.Store.AppendErrors.Load(),
		AppendRetries: m.Store.AppendRetries.Load(),
		BreakerTrips:  m.Store.BreakerTrips.Load(),
		Degraded:      m.Store.Degraded.Load() != 0,
		AppendNs:      m.Store.AppendNs.Stats(),
	}
}

func histStats(s *histSnap) HistStats {
	return HistStats{
		Count: s.count,
		Sum:   s.sum,
		P50:   s.quantile(0.50),
		P90:   s.quantile(0.90),
		P99:   s.quantile(0.99),
	}
}

// Totals sums every shard's counters and merges the histograms.
func (m *Metrics) Totals() Totals {
	var t Totals
	var passNs, decodeNs histSnap
	for _, sh := range m.shards {
		t.Passes += sh.Engine.Passes.Load()
		t.RulesChecked += sh.Engine.RulesChecked.Load()
		t.RulesFired += sh.Engine.RulesFired.Load()
		t.RulesSuppressed += sh.Engine.RulesSuppressed.Load()
		t.DispatchBatches += sh.Engine.DispatchBatches.Load()
		t.CompactEpochs += sh.Engine.CompactEpochs.Load()
		t.EventsDecoded += sh.Ingest.EventsDecoded.Load()
		t.DecodeErrors += sh.Ingest.DecodeErrors.Load()
		t.EventsInline += sh.EventsInline.Load()
		t.EventsQueued += sh.EventsQueued.Load()
		t.RuleTemplates += sh.RuleTemplates.Load()
		t.CompilesShared += sh.RuleCompilesShared.Load()
		t.CompilesCompiled += sh.RuleCompilesCompiled.Load()
		sh.Engine.PassNs.addTo(&passNs)
		sh.Ingest.DecodeNs.addTo(&decodeNs)
	}
	t.StoreAppends = m.StoreAppends.Load()
	t.PassNs = histStats(&passNs)
	t.DecodeNs = histStats(&decodeNs)
	return t
}

// WritePrometheus renders every metric in Prometheus text exposition format,
// aggregated across shards. Histograms render sparsely: only buckets whose
// cumulative count changes, plus the mandatory +Inf.
func (m *Metrics) WritePrometheus(w io.Writer) {
	t := m.Totals()
	writeGauge(w, "cadel_homes", "Homes resident in the hub.", m.Homes.Load())
	writeCounter(w, "cadel_store_appends_total", "Journal records appended to the fleet store.", t.StoreAppends)
	writeCounter(w, "cadel_store_append_errors_total", "Store appends that failed after exhausting retries.", m.Store.AppendErrors.Load())
	writeCounter(w, "cadel_store_append_retries_total", "Retried store append attempts.", m.Store.AppendRetries.Load())
	writeCounter(w, "cadel_store_breaker_trips_total", "Store circuit-breaker open transitions.", m.Store.BreakerTrips.Load())
	writeGauge(w, "cadel_store_degraded", "1 while the store circuit breaker holds writes degraded.", m.Store.Degraded.Load())
	writeCounter(w, "cadel_engine_passes_total", "Evaluation passes run across all homes.", t.Passes)
	writeCounter(w, "cadel_engine_rules_checked_total", "Candidate rules re-evaluated.", t.RulesChecked)
	writeCounter(w, "cadel_engine_rules_fired_total", "Rule actions dispatched (arbitration winners).", t.RulesFired)
	writeCounter(w, "cadel_engine_rules_suppressed_total", "Ready rules that lost arbitration on a firing pass.", t.RulesSuppressed)
	writeCounter(w, "cadel_engine_dispatch_batches_total", "Dispatch batches handed out (at most one per pass).", t.DispatchBatches)
	writeCounter(w, "cadel_engine_compact_epochs_total", "Symbol-compaction epochs run.", t.CompactEpochs)
	writeCounter(w, "cadel_ingest_events_decoded_total", "Events decoded by the wire fast path.", t.EventsDecoded)
	writeCounter(w, "cadel_ingest_decode_errors_total", "Event bodies the wire decoder rejected.", t.DecodeErrors)
	fmt.Fprintf(w, "# HELP cadel_shard_events_total Device events evaluated, by path: inline on the posting goroutine (idle shard) or queued for the shard goroutine.\n"+
		"# TYPE cadel_shard_events_total counter\ncadel_shard_events_total{path=\"inline\"} %d\ncadel_shard_events_total{path=\"queued\"} %d\n",
		t.EventsInline, t.EventsQueued)
	writeGauge(w, "cadel_rule_templates", "Compiled-rule templates live in the shards' tables.", t.RuleTemplates)
	fmt.Fprintf(w, "# HELP cadel_rule_compiles_total Rule compiles, by how they were served: from a shard's template (shared) or by parsing and compiling.\n"+
		"# TYPE cadel_rule_compiles_total counter\ncadel_rule_compiles_total{result=\"shared\"} %d\ncadel_rule_compiles_total{result=\"compiled\"} %d\n",
		t.CompilesShared, t.CompilesCompiled)

	var accepted, reuse, parseErrs, timeouts uint64
	var active int64
	for _, sh := range m.shards {
		accepted += sh.Conn.ConnsAccepted.Load()
		active += sh.Conn.ConnsActive.Load()
		reuse += sh.Conn.KeepaliveReuse.Load()
		parseErrs += sh.Conn.ParseErrors.Load()
		timeouts += sh.Conn.ReadTimeouts.Load()
	}
	writeCounter(w, "cadel_http_conns_accepted_total", "Connections accepted by the raw-socket ingest listener.", accepted)
	writeGauge(w, "cadel_http_conns_active", "Raw-socket ingest connections currently open.", active)
	writeCounter(w, "cadel_http_keepalive_reuse_total", "Requests served on an already-used raw connection.", reuse)
	writeCounter(w, "cadel_http_parse_errors_total", "Request heads the raw parser rejected.", parseErrs)
	writeCounter(w, "cadel_http_read_timeouts_total", "Raw connection reads that hit a deadline.", timeouts)

	var passNs, dirty, decodeNs histSnap
	for _, sh := range m.shards {
		sh.Engine.PassNs.addTo(&passNs)
		sh.Engine.DirtyKeys.addTo(&dirty)
		sh.Ingest.DecodeNs.addTo(&decodeNs)
	}
	writeHist(w, "cadel_engine_pass_duration_ns", "Wall duration of the locked evaluation pass (sampled every 32nd pass).", &passNs)
	writeHist(w, "cadel_engine_dirty_keys", "Dirty dependency ids per pass (sampled every 32nd pass).", &dirty)
	writeHist(w, "cadel_ingest_decode_duration_ns", "Wire decode duration per event.", &decodeNs)

	var appendNs histSnap
	m.Store.AppendNs.addTo(&appendNs)
	writeHist(w, "cadel_store_append_duration_ns", "Wall duration of successful store appends, retries included.", &appendNs)

	writeCounter(w, "cadel_migrations_started_total", "Home migrations begun with this node as the source.", m.Migration.Started.Load())
	writeCounter(w, "cadel_migrations_completed_total", "Home migrations released after the target acked.", m.Migration.Completed.Load())
	writeCounter(w, "cadel_migrations_failed_total", "Home migrations aborted and unsealed.", m.Migration.Failed.Load())
	writeCounter(w, "cadel_migrations_imported_total", "Homes imported with this node as the target.", m.Migration.Imported.Load())
	writeCounter(w, "cadel_migration_transfer_retries_total", "Retried migration transfer attempts.", m.Migration.TransferRetries.Load())
	var migNs histSnap
	m.Migration.DurationNs.addTo(&migNs)
	writeHist(w, "cadel_migration_duration_ns", "Seal-to-release wall time of completed migrations.", &migNs)
}

func writeCounter(w io.Writer, name, help string, v uint64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

func writeGauge(w io.Writer, name, help string, v int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
}

func writeHist(w io.Writer, name, help string, s *histSnap) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		n := s.buckets[i]
		if n == 0 {
			continue
		}
		cum += n
		fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, bucketBound(i), cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n", name, s.count, name, s.sum, name, s.count)
}
