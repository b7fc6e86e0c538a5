package obs

import (
	"math"
	"strings"
	"testing"

	"repro/internal/alloctest"
)

// Every sample must land in a bucket whose bound brackets it, and bucket
// bounds must be strictly increasing so cumulative rendering is valid.
func TestBucketIndexBrackets(t *testing.T) {
	prev := -1.0
	for i := 0; i < histBuckets; i++ {
		b := bucketBound(i)
		if b <= prev {
			t.Fatalf("bucket %d bound %g not above previous %g", i, b, prev)
		}
		prev = b
	}
	samples := []uint64{0, 1, 15, 16, 17, 31, 32, 63, 64, 100, 1023, 1024, 1 << 20, 1 << 40, 1<<63 + 12345, math.MaxUint64}
	for _, v := range samples {
		i := bucketIndex(v)
		if i < 0 || i >= histBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, i)
		}
		if float64(v) > bucketBound(i)+1 { // +1: bound is float-rounded at high octaves
			t.Errorf("sample %d above its bucket bound %g (bucket %d)", v, bucketBound(i), i)
		}
		if i > 0 && float64(v) < bucketBound(i-1) {
			t.Errorf("sample %d below previous bucket bound %g (bucket %d)", v, bucketBound(i-1), i)
		}
	}
}

func TestHistogramCountSumQuantile(t *testing.T) {
	var h Histogram
	for v := uint64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 500500 {
		t.Fatalf("sum = %d", h.Sum())
	}
	var s histSnap
	h.addTo(&s)
	p50 := s.quantile(0.5)
	if p50 < 400 || p50 > 700 {
		t.Errorf("p50 = %g, want ~500 within bucket resolution", p50)
	}
	p99 := s.quantile(0.99)
	if p99 < 900 || p99 > 1100 {
		t.Errorf("p99 = %g, want ~990 within bucket resolution", p99)
	}
}

// The hot-path write ops must not allocate: the engine's steady-state
// zero-alloc gates run with metrics enabled.
func TestWritesAreAllocationFree(t *testing.T) {
	m := New(2)
	sh := m.Shard(0)
	if n, _ := alloctest.PerCall(200, func() {
		sh.Engine.Passes.Inc()
		sh.Engine.RulesChecked.Add(3)
		sh.Engine.PassNs.Observe(420)
		sh.Ingest.DecodeNs.Observe(97)
		m.Homes.Add(1)
	}); n != 0 {
		t.Fatalf("allocs/op = %g, want 0", n)
	}
}

func TestIngestShardStableAndInRange(t *testing.T) {
	m := New(4)
	a := m.IngestShard("home-0001")
	if a != m.IngestShard("home-0001") {
		t.Fatal("stripe not stable for a home")
	}
	hit := false
	for i := 0; i < 4; i++ {
		if a == &m.Shard(i).Ingest {
			hit = true
		}
	}
	if !hit {
		t.Fatal("stripe is not one of the shard blocks")
	}
}

func TestWritePrometheus(t *testing.T) {
	m := New(2)
	m.Homes.Set(3)
	m.StoreAppends.Add(7)
	m.Shard(0).Engine.Passes.Add(10)
	m.Shard(1).Engine.Passes.Add(5)
	m.Shard(0).Engine.PassNs.Observe(100)
	m.Shard(1).Engine.PassNs.Observe(5000)
	m.Shard(1).Ingest.EventsDecoded.Add(2)

	var sb strings.Builder
	m.WritePrometheus(&sb)
	out := sb.String()

	for _, want := range []string{
		"cadel_homes 3",
		"cadel_store_appends_total 7",
		"cadel_engine_passes_total 15", // aggregated across shards
		"cadel_ingest_events_decoded_total 2",
		"cadel_engine_pass_duration_ns_count 2",
		"cadel_engine_pass_duration_ns_sum 5100",
		`cadel_engine_pass_duration_ns_bucket{le="+Inf"} 2`,
		"# TYPE cadel_engine_pass_duration_ns histogram",
		"# TYPE cadel_engine_passes_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// Cumulative buckets: the 100ns bucket line must show 1, not 2.
	if !strings.Contains(out, `cadel_engine_pass_duration_ns_bucket{le="111"} 1`) {
		t.Errorf("expected cumulative bucket le=111 count 1\n%s", out)
	}
}

func TestTotals(t *testing.T) {
	m := New(3)
	for i := 0; i < 3; i++ {
		m.Shard(i).Engine.RulesFired.Add(uint64(i + 1))
		m.Shard(i).Ingest.DecodeNs.Observe(50)
	}
	tot := m.Totals()
	if tot.RulesFired != 6 {
		t.Errorf("RulesFired = %d, want 6", tot.RulesFired)
	}
	if tot.DecodeNs.Count != 3 || tot.DecodeNs.Sum != 150 {
		t.Errorf("DecodeNs = %+v", tot.DecodeNs)
	}
}
