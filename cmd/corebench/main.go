// Command corebench measures the engine evaluation hot path and emits
// BENCH_core.json for CI trend tracking — the perf trajectory baseline of the
// symbol-interned evaluation core. The workloads come from internal/benchwork,
// the same builders the root package's `go test -bench` benchmarks use, so the
// JSON rows and the benchmark output measure exactly the same thing.
//
// Three engine workloads are swept over the -rules counts:
//
//	engine_evaluate  one steady-state single-key sensor event (Example Rule
//	                 1 shape: rule 0 reads the unqualified "temperature",
//	                 every other rule its own room's qualified key)
//	presence_eval    one presence-churn pass (Example Rules 2/3 shape:
//	                 nobody/everyone/someone-at/arrival quantifiers
//	                 re-evaluated as a user moves between rooms)
//	arbitrate        one arbitration-heavy pass (Fig. 1 hand-off shape:
//	                 contending owners on one device under a contextual
//	                 priority order dirtied by presence churn; the winner
//	                 never changes, so nothing fires)
//	rule_churn       one rule-lifecycle step (add a unique-named rule,
//	                 remove the oldest, evaluate) over a fixed live window,
//	                 with the default symbol-compaction watermark ("compact")
//	                 and with compaction disabled ("nocompact") — the symtab
//	                 id-space hygiene rows
//
// each on the evaluator configurations:
//
//	interned  pre-bound conditions + id-indexed context (the default)
//	fullscan  the naive re-evaluate-everything oracle: map-backed context,
//	          unbound conditions, no dependency index
//
// recording ns/op, allocs/op and B/op. The interned rows carry the
// acceptance targets: 0 allocs/op, flat across rule counts. The hub around
// the engine (transport, decode, mailbox, dispatch, store) is measured end to
// end by the bench module (bench/run.sh), not here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/benchwork"
	"repro/internal/engine"
)

type engineRow struct {
	Bench       string  `json:"bench"`
	Mode        string  `json:"mode"`
	Rules       int     `json:"rules"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
}

type doc struct {
	GeneratedUnix int64             `json:"generated_unix"`
	Meta          benchwork.RunMeta `json:"meta"`
	Engine        []engineRow       `json:"engine"`
}

func main() {
	rulesFlag := flag.String("rules", "1000,10000", "comma-separated rule counts for the engine sweeps")
	out := flag.String("out", "BENCH_core.json", "output JSON path")
	flag.Parse()

	d := doc{GeneratedUnix: time.Now().Unix(), Meta: benchwork.NewRunMeta()}

	for _, n := range parseInts(*rulesFlag) {
		for _, bench := range []string{"engine_evaluate", "presence_eval", "arbitrate"} {
			for _, mode := range []string{"interned", "fullscan"} {
				r := benchEngine(bench, n, mode)
				d.Engine = append(d.Engine, r)
				printRow(r)
			}
		}
		for _, mode := range []string{"compact", "nocompact"} {
			r := benchChurn(n, mode)
			d.Engine = append(d.Engine, r)
			printRow(r)
		}
	}

	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
}

func printRow(r engineRow) {
	fmt.Printf("%-15s rules=%-6d mode=%-10s %12.1f ns/op %6d allocs/op %8d B/op\n",
		r.Bench, r.Rules, r.Mode, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp)
}

func parseInts(csv string) []int {
	var out []int
	for _, part := range strings.Split(csv, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			fatal(fmt.Errorf("bad count %q", part))
		}
		out = append(out, n)
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "corebench:", err)
	os.Exit(1)
}

// benchEngine runs one named benchwork workload on one evaluator
// configuration — the exact timed loop of the root package's benchmarks.
func benchEngine(bench string, n int, mode string) engineRow {
	var opts []engine.Option
	if mode == "fullscan" {
		opts = append(opts, engine.WithFullScan())
	}
	res := testing.Benchmark(func(b *testing.B) {
		w, err := benchwork.NewEngineWorkload(bench, n, opts...)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Replay(i)
		}
	})
	return engineRow{
		Bench:       bench,
		Mode:        mode,
		Rules:       n,
		NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
		Iterations:  res.N,
	}
}

// benchChurn runs the rule-churn workload (add a unique-named rule, remove
// the oldest, evaluate) over a live window of n rules, with the default
// compaction watermark ("compact") or compaction disabled ("nocompact") —
// the symtab id-space hygiene rows.
func benchChurn(n int, mode string) engineRow {
	var opts []engine.Option
	if mode == "nocompact" {
		opts = append(opts, engine.WithCompactFloor(0))
	}
	res := testing.Benchmark(func(b *testing.B) {
		w, err := benchwork.NewChurnWorkload(n, opts...)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := w.Step(); err != nil {
				b.Fatal(err)
			}
		}
	})
	return engineRow{
		Bench:       "rule_churn",
		Mode:        mode,
		Rules:       n,
		NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
		Iterations:  res.N,
	}
}
