// Command fleetbench measures fleet-hub ingestion throughput across shard
// counts and writes the result as JSON, so CI can track the perf trajectory
// (BENCH_fleet.json).
//
//	$ fleetbench -homes 10000 -events 200000 -shards 1,4,16 -out BENCH_fleet.json
//
// Every home holds one user and one temperature rule; events sweep the homes
// round-robin with values that flip each rule's readiness, so a pass
// re-arbitrates and fires — the full hot path. The run ends when every shard
// has drained (hub.Quiesce), so the rate includes evaluation and dispatch,
// not just enqueueing. coalesce_factor is events per evaluation pass: > 1
// means bursts collapsed into shared passes.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/benchwork"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/ring"
)

type shardResult struct {
	Shards         int     `json:"shards"`
	Seconds        float64 `json:"seconds"`
	EventsPerSec   float64 `json:"events_per_sec"`
	CoalesceFactor float64 `json:"coalesce_factor"`
}

type migrationResult struct {
	Homes       int     `json:"homes"`
	Shards      int     `json:"shards"`
	Seconds     float64 `json:"seconds"`
	HomesPerSec float64 `json:"homes_per_sec"`
	// Gap is the per-home availability gap: the seal-to-release window in
	// which external posts answer 503 + Retry-After.
	GapAvgMs float64 `json:"gap_avg_ms"`
	GapP99Ms float64 `json:"gap_p99_ms"`
}

type report struct {
	Name      string           `json:"name"`
	Homes     int              `json:"homes"`
	Events    int              `json:"events"`
	Producers int              `json:"producers"`
	MaxProcs  int              `json:"maxprocs"`
	Results   []shardResult    `json:"results"`
	Migration *migrationResult `json:"migration,omitempty"`
}

func main() {
	homes := flag.Int("homes", 10000, "number of homes")
	events := flag.Int("events", 200000, "number of events to ingest per shard count")
	shardList := flag.String("shards", "1,4,16", "comma-separated shard counts")
	producers := flag.Int("producers", 4, "event producer goroutines")
	migrate := flag.Int("migrate", 64, "homes to migrate in the ring-migration sweep (0 = skip)")
	out := flag.String("out", "BENCH_fleet.json", "output file")
	flag.Parse()

	rep := report{
		Name:      "fleet-ingest",
		Homes:     *homes,
		Events:    *events,
		Producers: *producers,
		MaxProcs:  runtime.GOMAXPROCS(0),
	}
	for _, s := range strings.Split(*shardList, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			log.Fatalf("bad shard count %q: %v", s, err)
		}
		res, err := run(*homes, *events, n, *producers)
		if err != nil {
			log.Fatal(err)
		}
		rep.Results = append(rep.Results, res)
		fmt.Printf("shards=%-3d %9.0f events/sec  (%.2fs, coalesce %.1f)\n",
			n, res.EventsPerSec, res.Seconds, res.CoalesceFactor)
	}
	if *migrate > 0 {
		mres, err := runMigration(*migrate, 4)
		if err != nil {
			log.Fatal(err)
		}
		rep.Migration = &mres
		fmt.Printf("migrate    %9.0f homes/sec  (gap avg %.2fms, p99 %.2fms)\n",
			mres.HomesPerSec, mres.GapAvgMs, mres.GapP99Ms)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
}

// runMigration measures ring migration: two in-process nodes on loopback
// listeners, the source seeded with the standard fleet workload, every home
// migrated to the target over the real transfer protocol. The availability
// gap per home is the seal-to-release window (posts answer 503 inside it).
func runMigration(homes, shards int) (migrationResult, error) {
	srcHub, ids, err := benchwork.BuildHub(homes, shards)
	if err != nil {
		return migrationResult{}, err
	}
	defer func() { _ = srcHub.Close() }()
	dstHub, err := fleet.NewHub(
		fleet.WithShards(shards),
		fleet.WithClock(func() time.Time { return benchwork.Epoch }),
		fleet.WithLogLimit(64),
	)
	if err != nil {
		return migrationResult{}, err
	}
	defer func() { _ = dstHub.Close() }()

	srcLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return migrationResult{}, err
	}
	defer srcLn.Close()
	dstLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return migrationResult{}, err
	}
	defer dstLn.Close()
	peers := []string{srcLn.Addr().String(), dstLn.Addr().String()}

	srcNode, err := ring.NewNode(ring.NodeConfig{
		Self: peers[0], Hub: srcHub, Handler: fleet.NewHTTPHandler(srcHub), Peers: peers})
	if err != nil {
		return migrationResult{}, err
	}
	dstNode, err := ring.NewNode(ring.NodeConfig{
		Self: peers[1], Hub: dstHub, Handler: fleet.NewHTTPHandler(dstHub), Peers: peers})
	if err != nil {
		return migrationResult{}, err
	}
	go func() { _ = http.Serve(srcLn, srcNode) }()
	go func() { _ = http.Serve(dstLn, dstNode) }()

	gaps := make([]time.Duration, 0, homes)
	start := time.Now()
	for _, home := range ids {
		t0 := time.Now()
		if err := srcNode.Migrate(context.Background(), home, peers[1]); err != nil {
			return migrationResult{}, fmt.Errorf("fleetbench: migrate %s: %w", home, err)
		}
		gaps = append(gaps, time.Since(t0))
	}
	elapsed := time.Since(start)

	sort.Slice(gaps, func(i, j int) bool { return gaps[i] < gaps[j] })
	var sum time.Duration
	for _, g := range gaps {
		sum += g
	}
	p99i := (len(gaps) * 99) / 100
	if p99i >= len(gaps) {
		p99i = len(gaps) - 1
	}
	p99 := gaps[p99i]
	return migrationResult{
		Homes:       homes,
		Shards:      shards,
		Seconds:     elapsed.Seconds(),
		HomesPerSec: float64(homes) / elapsed.Seconds(),
		GapAvgMs:    float64(sum.Milliseconds()) / float64(len(gaps)),
		GapP99Ms:    float64(p99.Nanoseconds()) / 1e6,
	}, nil
}

func run(homes, events, shards, producers int) (shardResult, error) {
	// The hub and its seeded homes come from internal/benchwork — the same
	// workload the root package's BenchmarkFleetIngest drives — so the JSON
	// trend and `go test -bench` measure the same thing.
	hub, ids, err := benchwork.BuildHub(homes, shards)
	if err != nil {
		return shardResult{}, err
	}
	defer func() { _ = hub.Close() }()

	before, err := hub.Stats()
	if err != nil {
		return shardResult{}, err
	}

	var idx atomic.Uint64
	var wg sync.WaitGroup
	errs := make(chan error, producers)
	start := time.Now()
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := idx.Add(1)
				if i > uint64(events) {
					return
				}
				home := ids[i%uint64(homes)]
				if err := hub.PostEvent(home, device.TypeThermometer, "thermometer",
					"living room", map[string]string{"temperature": benchwork.FleetEventValue(i, homes)}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		// A failed producer means fewer events than configured were ingested;
		// publishing events/elapsed anyway would inflate the tracked number.
		return shardResult{}, fmt.Errorf("fleetbench: ingestion failed: %w", err)
	default:
	}
	if err := hub.Quiesce(); err != nil {
		return shardResult{}, err
	}
	elapsed := time.Since(start)

	st, err := hub.Stats()
	if err != nil {
		return shardResult{}, err
	}
	// Count only the event phase's passes; setup (submits, user ticks) ran
	// its own passes before the clock started.
	coalesce := 0.0
	if delta := st.Passes - before.Passes; delta > 0 {
		coalesce = float64(st.Events) / float64(delta)
	}
	return shardResult{
		Shards:         shards,
		Seconds:        elapsed.Seconds(),
		EventsPerSec:   float64(events) / elapsed.Seconds(),
		CoalesceFactor: coalesce,
	}, nil
}
