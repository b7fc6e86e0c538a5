// Command bench is the hub benchmark: it builds the production fleet stack
// in-process, drives it over loopback TCP from an open-loop or closed-loop
// generator, checks every output, and prints end-to-end metrics (or, with
// --trace 1, per-layer metrics) as the last line of standard output:
//
//	bash bench/run.sh --workload wire_light --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh compare a.jsonl b.jsonl
//
// See README.md for the workloads, the metrics and how the bounds in
// BENCHMARK.json were set.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/fleet"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64 // measured window
	trace    bool
	short    bool   // reduced scale: tests only
	dir      string // results, traces and temporary stores
	out      string // result file, one JSON line per run
}

// A run builds its stack at least minSetups times and until the builds
// add up to setupBudget, at most maxSetups times; setup_s is the median
// build time and the last build is the one measured. Cheap set-ups repeat
// more, so their median is as steady as that of the expensive ones.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 3 * time.Second
)

// moreSetups reports whether a run builds its stack again after i builds
// that took spent in all. Traced runs, which report no setup_s, and the
// tests' short runs build once.
func moreSetups(cfg *config, i int, spent time.Duration) bool {
	if cfg.trace || cfg.short {
		return false
	}
	return i < minSetups || (i < maxSetups && spent < setupBudget)
}

// warmup runs the load before the measured window so per-home caches and
// connection buffers reach steady state.
const warmup = 500 * time.Millisecond

func main() {
	cfg := config{}
	flag.StringVar(&cfg.workload, "workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the measured window")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end metrics")
	flag.StringVar(&cfg.dir, "dir", ".bench_build", "directory for results, traces and temporary stores")
	flag.StringVar(&cfg.out, "out", "", "result file to append one JSON line per run to (default DIR/results.jsonl)")
	flag.Parse()
	cfg.trace = *trace == 1

	if flag.Arg(0) == "compare" {
		if flag.NArg() != 3 {
			fatalf("usage: bench compare A.jsonl B.jsonl")
		}
		worse, err := compare(os.Stdout, "BENCHMARK.json", flag.Arg(1), flag.Arg(2))
		if err != nil {
			fatalf("compare: %v", err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() > 0 {
		fatalf("unexpected arguments %q", flag.Args())
	}
	if cfg.seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatalf("--seconds must be positive and --trace 0 or 1")
	}
	if cfg.out == "" {
		cfg.out = filepath.Join(cfg.dir, "results.jsonl")
	}
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = workloadNames()
	}
	for _, name := range names {
		c := cfg
		c.workload = name
		res, err := run(c)
		if err != nil {
			fatalf("%s: %v", name, err)
		}
		if err := appendResult(c.out, res); err != nil {
			fatalf("%s: writing result: %v", name, err)
		}
		line, err := json.Marshal(summary{Correct: true, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics})
		if err != nil {
			fatalf("%s: %v", name, err)
		}
		fmt.Println(string(line))
	}
}

// epoch is the zero of every timestamp the benchmark records: nanoseconds
// on the monotonic clock, comparable across goroutines.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

func at(ns int64) time.Time { return epoch.Add(time.Duration(ns)) }

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result is one run as appended to the result file.
type result struct {
	Meta      meta              `json:"meta"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Samples   map[string]int    `json:"samples"` // sample count behind each percentile
	SetupS    []float64         `json:"setup_runs_s,omitempty"`
}

// meta identifies the run and the machine it ran on.
type meta struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	WindowS    float64            `json:"window_s"`
	Rates      map[string]float64 `json:"offered_rates"`
	Traced     bool               `json:"traced"`
	Short      bool               `json:"short,omitempty"`
	Commit     string             `json:"commit"`
	GoVersion  string             `json:"go_version"`
	GOOS       string             `json:"goos"`
	GOARCH     string             `json:"goarch"`
	NumCPU     int                `json:"num_cpu"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Time       string             `json:"time"`
}

func appendResult(path string, res *result) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// commit reads HEAD when the working directory is a git checkout; git is
// kept from searching parent directories.
func commit() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// bench is one workload's stack and load, built by its workload's setup.
type bench interface {
	// drive runs the load from start (the warm-up begins earlier) until
	// end, then drains it: every response read and every hub quiesced.
	drive(start, end int64) error
	// check verifies the outputs once drive has returned.
	check() error
	// report adds the workload's own per-layer metrics for a phase.
	report(p phase, r *report)
	hubs() []*fleet.Hub
	ledger() *ledger
	attempted() int64
	failed() int64
	close()
}

// workload describes one traffic mix. setup builds its stack and seeds it;
// completed events are counted into tl.
type workload struct {
	name  string
	rates func(short bool) map[string]float64
	setup func(cfg *config, tl *timeline) (bench, error)
}

var workloads = []workload{wireLight, wireSaturate, homeRich, rebalance}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// phase is the measured window of a run, cut into sub-windows.
type phase struct {
	start, end int64
	before     snapshot // at start
	after      snapshot // at the drain barrier once the load has stopped
	queueMax   int
}

// subWindow is the slice of a phase that a traced run switches span
// recording on or off for, and that tail percentiles are grouped by.
const subWindow = int64(time.Second)

// windows returns the sub-window count and length of the phase.
func (p *phase) windows() (int, int64) {
	length := min(subWindow, p.end-p.start)
	return int((p.end - p.start) / length), length
}

// recording reports whether a traced run records spans in sub-window i. It
// records every other one, so the sub-windows between measure what
// recording costs under the same conditions.
func recording(i int) bool { return i%2 == 1 }

func run(cfg config) (*result, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if err := os.MkdirAll(filepath.Join(cfg.dir, "tmp"), 0o755); err != nil {
		return nil, err
	}
	res := &result{
		Meta: meta{
			Workload: cfg.workload, Seed: cfg.seed, WindowS: cfg.seconds, Rates: w.rates(cfg.short),
			Traced: cfg.trace, Short: cfg.short, Commit: commit(),
			GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			Time: time.Now().UTC().Format(time.RFC3339),
		},
		Metrics: map[string]metric{},
		Samples: map[string]int{},
	}

	var b bench
	var tl *timeline
	var spent time.Duration
	for i := 0; i == 0 || moreSetups(&cfg, i, spent); i++ {
		if b != nil {
			b.close()
			runtime.GC()
		}
		tl = newTimeline()
		t0 := time.Now()
		var err error
		if b, err = w.setup(&cfg, tl); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		spent += time.Since(t0)
		res.SetupS = append(res.SetupS, time.Since(t0).Seconds())
	}
	defer b.close()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / (1 << 20)

	start := now() + int64(50*time.Millisecond+warmup)
	tl.origin = start - int64(warmup)
	p := &phase{start: start, end: start + int64(cfg.seconds*float64(time.Second))}
	led := b.ledger()
	mon := startMonitor(b.hubs(), p, led.spans)
	if err := b.drive(p.start, p.end); err != nil {
		mon.stop()
		return nil, fmt.Errorf("load: %w", err)
	}
	mon.finish()
	if err := b.check(); err != nil {
		return nil, fmt.Errorf("output check: %w", err)
	}
	res.Attempted, res.Failed = b.attempted(), b.failed()

	rep := &report{metrics: res.Metrics, samples: res.Samples}
	if !cfg.trace {
		rep.add("setup_s", median(res.SetupS), "s")
		rep.endToEnd(p, tl, led)
		rep.add("heap_mb", heapMB, "MiB")
		return res, rep.positive()
	}
	rep.perLayer(p, tl, led, cfg.workload == wireSaturate.name)
	b.report(*p, rep)
	if led.spans != nil {
		defs := rawSpans
		if cfg.workload == homeRich.name {
			defs = httpSpans
		}
		if err := writeSpans(filepath.Join(cfg.dir, "trace-"+cfg.workload+".jsonl"), led.names, led.spans, defs); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	rep.fillLayers()
	return res, nil
}

// snapshot is the process and hub counters at one instant.
type snapshot struct {
	at        int64
	cpuNs     int64
	gcs       uint32
	gcPauseNs uint64
	events    uint64 // hub-accepted events
	passes    uint64
	checked   uint64
	passNsSum uint64
	passNsN   uint64
	appends   uint64
	parseErrs uint64
}

// cpuTime is the user plus system CPU the process has used, in ns.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func takeSnapshot(hubs []*fleet.Hub) snapshot {
	s := snapshot{at: now(), cpuNs: cpuTime()}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.gcs, s.gcPauseNs = ms.NumGC, ms.PauseTotalNs
	for _, h := range hubs {
		m := h.MetricsRegistry()
		t := m.Totals()
		s.events += h.EventsAccepted()
		s.passes += t.Passes
		s.checked += t.RulesChecked
		s.passNsSum += t.PassNs.Sum
		s.passNsN += t.PassNs.Count
		s.appends += m.StoreAppends.Load()
		for i := 0; i < m.NumShards(); i++ {
			s.parseErrs += m.Shard(i).Conn.ParseErrors.Load()
		}
	}
	return s
}

// monitor snapshots the counters at the start of the phase, samples shard
// queue depths every 100 ms, and on a traced run switches span recording
// per sub-window.
type monitor struct {
	hubs   []*fleet.Hub
	p      *phase
	done   chan struct{}
	exited chan struct{}
}

func startMonitor(hubs []*fleet.Hub, p *phase, spans *spanTable) *monitor {
	m := &monitor{hubs: hubs, p: p, done: make(chan struct{}), exited: make(chan struct{})}
	go func() {
		defer close(m.exited)
		if !m.sleepUntil(p.start) {
			return
		}
		p.before = takeSnapshot(hubs)
		k, length := p.windows()
		for t := now(); t < p.end; t = now() {
			i := (t - p.start) / length
			if spans != nil {
				spans.on.Store(i < int64(k) && recording(int(i)))
			}
			if !m.sleepUntil(min(t+int64(100*time.Millisecond), p.start+(i+1)*length, p.end)) {
				return
			}
			for _, h := range hubs {
				for _, q := range h.ShardQueues() {
					p.queueMax = max(p.queueMax, q)
				}
			}
		}
		if spans != nil {
			spans.on.Store(false)
		}
		<-m.done
	}()
	return m
}

// sleepUntil waits for the instant t; false means the monitor was stopped.
func (m *monitor) sleepUntil(t int64) bool {
	if d := t - now(); d > 0 {
		select {
		case <-time.After(time.Duration(d)):
		case <-m.done:
			return false
		}
	}
	return true
}

func (m *monitor) stop() {
	close(m.done)
	<-m.exited
}

// finish takes the phase's closing snapshot at the drain barrier.
func (m *monitor) finish() {
	m.stop()
	m.p.after = takeSnapshot(m.hubs)
}

// timeline counts completed events per millisecond from its origin.
type timeline struct {
	origin int64
	slots  []atomic.Int64
}

const timelineSlots = 1 << 18 // ~262 s of 1 ms slots: longer than any run

func newTimeline() *timeline { return &timeline{slots: make([]atomic.Int64, timelineSlots)} }

func (t *timeline) add(at int64, n int64) {
	i := (at - t.origin) / int64(time.Millisecond)
	if i < 0 {
		i = 0
	}
	if i >= int64(len(t.slots)) {
		i = int64(len(t.slots)) - 1
	}
	t.slots[i].Add(n)
}

// count returns the events counted in [from, to).
func (t *timeline) count(from, to int64) int64 {
	lo := max((from-t.origin)/int64(time.Millisecond), 0)
	hi := min((to-t.origin)/int64(time.Millisecond), int64(len(t.slots)))
	var n int64
	for i := lo; i < hi; i++ {
		n += t.slots[i].Load()
	}
	return n
}

// report accumulates the metrics of a run.
type report struct {
	metrics map[string]metric
	samples map[string]int
}

func (r *report) add(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// percentiles adds the p50 and, under the p99 name, the p99 of ns, scaled
// to unit, and records the sample count behind them.
func (r *report) percentiles(p50, p99 string, ns []int64, unit string) {
	scale := map[string]float64{"ms": 1e6, "us": 1e3, "ns": 1}[unit]
	sortNs(ns)
	r.add(p50, quantile(ns, 0.50)/scale, unit)
	r.samples[p50] = len(ns)
	if p99 != "" {
		r.add(p99, quantile(ns, 0.99)/scale, unit)
		r.samples[p99] = len(ns)
	}
}

// endToEnd adds the user-visible metrics of a phase. The phase closes at
// the drain barrier, so a backlog left when the load stops lowers the
// throughput, and the CPU spent draining it is charged to its events.
func (r *report) endToEnd(p *phase, tl *timeline, led *ledger) {
	events := float64(max(tl.count(p.start, p.after.at), 1))
	r.add("throughput_eps", events/(float64(p.after.at-p.start)/1e9), "events/s")
	r.add("cpu_us_per_event", float64(p.after.cpuNs-p.before.cpuNs)/1e3/events, "us")
	r.percentiles("e2a_p50_ms", "", led.latencies(p.start, p.end), "ms")
}

// windowStat is one sub-window's events and median latency.
type windowStat struct {
	events int64
	p50    float64 // ns
}

func windowStats(p *phase, tl *timeline, led *ledger) []windowStat {
	k, length := p.windows()
	out := make([]windowStat, k)
	for i := range out {
		from := p.start + int64(i)*length
		out[i].events = tl.count(from, from+length)
		lat := led.latencies(from, from+length)
		sortNs(lat)
		out[i].p50 = quantile(lat, 0.50)
	}
	return out
}

// minTailSamples is the fewest latencies a tail quantile is computed from.
const minTailSamples = 1000

// tail returns the median, over runs of consecutive sub-windows of the
// phase holding at least minTailSamples latencies each, of each run's
// q-quantile, in ns, and the number of latencies behind it.
func tail(p *phase, led *ledger, q float64) (float64, int) {
	k, length := p.windows()
	var qs []float64
	var group []int64
	total := 0
	for i := 0; i < k; i++ {
		from := p.start + int64(i)*length
		lat := led.latencies(from, from+length)
		total += len(lat)
		if group = append(group, lat...); len(group) >= minTailSamples || (i == k-1 && len(qs) == 0) {
			sortNs(group)
			qs = append(qs, quantile(group, q))
			group = group[:0]
		}
	}
	return median(qs), total
}

// positive fails a run with an end-to-end metric of zero: each one counts
// or times work every workload does, so zero means it measured nothing.
func (r *report) positive() error {
	for name, m := range r.metrics {
		if m.Value <= 0 {
			return fmt.Errorf("end-to-end metric %s is %v", name, m.Value)
		}
	}
	return nil
}

func sortNs(ns []int64) { sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] }) }

// quantile is the nearest-rank quantile of sorted values; 0 when empty.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	i = max(0, min(i, len(sorted)-1))
	return float64(sorted[i])
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
