// Command ingestbench measures wire-level event ingestion throughput over a
// real TCP socket — a reference encoding/json handler posting maps, the
// ingest sink behind net/http, and the raw-socket front end — and exercises
// admission control under deliberate overload, writing the result as JSON so
// CI can track the perf trajectory (BENCH_ingest.json).
//
//	$ ingestbench -homes 256 -events 100000 -shards 4 -out BENCH_ingest.json
//
// All modes serve the event route on a loopback listener and replay the
// identical body stream (temperatures alternating across the rule threshold,
// so every event flips readiness and the full evaluate/arbitrate/dispatch
// path runs) through the same hand-rolled keep-alive client — prebuilt
// request bytes out, pipelined when depth > 1, responses counted in place —
// so the client costs the same everywhere and the measured difference is the
// server. The run ends when every shard has drained (hub.Quiesce), so the
// rate includes evaluation, not just acks. The saturation phase floods one
// home past a configured admission rate and verifies over-budget posts shed
// with 429 + Retry-After while an in-budget home on the same shard is served.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/benchwork"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/ingest"
)

type modeResult struct {
	Mode         string  `json:"mode"`     // "baseline", "fast", or "raw"
	Pipeline     int     `json:"pipeline"` // requests in flight per connection
	Seconds      float64 `json:"seconds"`
	EventsPerSec float64 `json:"events_per_sec"`
}

type saturationResult struct {
	RateLimit      float64 `json:"rate_limit"`
	Burst          float64 `json:"burst"`
	FloodPosted    int     `json:"flood_posted"`
	FloodAdmitted  int     `json:"flood_admitted"`
	FloodShed      int     `json:"flood_shed"`
	CalmPosted     int     `json:"calm_posted"`
	CalmAdmitted   int     `json:"calm_admitted"`
	RetryAfterSeen bool    `json:"retry_after_seen"`
	ShedRate       uint64  `json:"shed_rate"`
	ShedBacklog    uint64  `json:"shed_backlog"`
}

type report struct {
	Name          string            `json:"name"`
	GeneratedUnix int64             `json:"generated_unix"`
	Meta          benchwork.RunMeta `json:"meta"`
	Homes         int               `json:"homes"`
	Events        int               `json:"events"`
	Shards        int               `json:"shards"`
	Producers     int               `json:"producers"`
	MaxProcs      int               `json:"maxprocs"`
	Results       []modeResult      `json:"results"`
	Speedup       float64           `json:"speedup"`     // fast over baseline, depth 1
	RawSpeedup    float64           `json:"raw_speedup"` // raw over baseline, depth 1
	Saturation    saturationResult  `json:"saturation"`
}

func main() {
	homes := flag.Int("homes", 256, "number of homes")
	events := flag.Int("events", 100000, "number of events to post per mode")
	shards := flag.Int("shards", 4, "hub shard count")
	producers := flag.Int("producers", 4, "client connections")
	depths := flag.String("depths", "1,16", "comma-separated pipeline depths to sweep")
	rate := flag.Float64("sat-rate", 50, "saturation phase: admission rate (events/sec)")
	burst := flag.Float64("sat-burst", 10, "saturation phase: admission burst")
	flood := flag.Int("sat-flood", 500, "saturation phase: posts from the over-budget home")
	out := flag.String("out", "BENCH_ingest.json", "output file")
	flag.Parse()

	var sweep []int
	for _, f := range bytes.Split([]byte(*depths), []byte(",")) {
		var d int
		if _, err := fmt.Sscanf(string(f), "%d", &d); err != nil || d < 1 {
			log.Fatalf("bad -depths entry %q", f)
		}
		sweep = append(sweep, d)
	}

	rep := report{
		Name:          "wire-ingest",
		GeneratedUnix: time.Now().Unix(),
		Meta:          benchwork.NewRunMeta(),
		Homes:         *homes,
		Events:        *events,
		Shards:        *shards,
		Producers:     *producers,
		MaxProcs:      runtime.GOMAXPROCS(0),
	}
	perSec := map[string]float64{} // "mode/depth" → events/sec
	for _, mode := range []string{"baseline", "fast", "raw"} {
		for _, depth := range sweep {
			res, err := runWire(mode, depth, *homes, *events, *shards, *producers)
			if err != nil {
				log.Fatal(err)
			}
			rep.Results = append(rep.Results, res)
			perSec[fmt.Sprintf("%s/%d", mode, depth)] = res.EventsPerSec
			fmt.Printf("%-8s depth %-3d %9.0f events/sec  (%.2fs)\n",
				mode, depth, res.EventsPerSec, res.Seconds)
		}
	}
	d0 := fmt.Sprintf("/%d", sweep[0])
	rep.Speedup = perSec["fast"+d0] / perSec["baseline"+d0]
	rep.RawSpeedup = perSec["raw"+d0] / perSec["baseline"+d0]
	fmt.Printf("speedup  fast %.2fx  raw %.2fx (over baseline, depth %d)\n",
		rep.Speedup, rep.RawSpeedup, sweep[0])

	sat, err := runSaturation(*rate, *burst, *flood)
	if err != nil {
		log.Fatal(err)
	}
	rep.Saturation = sat
	fmt.Printf("saturation: flood %d/%d admitted (%d shed, retry-after %v), calm %d/%d admitted\n",
		sat.FloodAdmitted, sat.FloodPosted, sat.FloodShed, sat.RetryAfterSeen,
		sat.CalmAdmitted, sat.CalmPosted)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
}

// startServer serves the mode's transport for the hub on a loopback
// listener and returns its address and a shutdown func.
func startServer(mode string, hub *fleet.Hub) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	switch mode {
	case "baseline":
		srv := &http.Server{Handler: baselineHandler(hub), ReadHeaderTimeout: 5 * time.Second}
		go func() { _ = srv.Serve(ln) }()
		return ln.Addr().String(), func() { _ = srv.Close() }, nil
	case "fast":
		h := fleet.NewHTTPHandler(hub, fleet.WithEventSink(fleet.NewEventSink(hub, ingest.Limits{})))
		srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
		go func() { _ = srv.Serve(ln) }()
		return ln.Addr().String(), func() { _ = srv.Close() }, nil
	case "raw":
		raw := fleet.NewRawIngest(hub, fleet.NewEventSink(hub, ingest.Limits{}))
		go func() { _ = raw.Serve(ln) }()
		return ln.Addr().String(), func() { _ = raw.Close() }, nil
	}
	return "", nil, fmt.Errorf("unknown mode %q", mode)
}

// baselineHandler is the reference the other modes are measured against:
// the event route decoded by encoding/json into a map-shaped request and
// posted through Hub.PostEvent. The measured bodies are all async.
func baselineHandler(hub *fleet.Hub) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /fleet/homes/{home}/events", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			DeviceType string            `json:"deviceType"`
			Name       string            `json:"name"`
			Location   string            `json:"location"`
			Vars       map[string]string `json:"vars"`
		}
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, ingest.DefaultMaxBody)).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := hub.PostEvent(r.PathValue("home"), req.DeviceType, req.Name, req.Location, req.Vars); err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusAccepted)
	})
	return mux
}

// eventBody builds the thermometer JSON body posted for the given value —
// the same shape the fleet workload's PostEvent calls produce.
func eventBody(value string) []byte {
	return fmt.Appendf(nil,
		`{"deviceType":%q,"name":"thermometer","location":"living room","vars":{"temperature":%q}}`,
		device.TypeThermometer, value)
}

// benchConn is the shared measurement client: one keep-alive TCP
// connection, prebuilt request bytes gathered into a single write per
// batch, responses verified by scanning for head terminators in place. The
// responses under test are header-only (202), so a terminator is a full
// response.
type benchConn struct {
	conn net.Conn
	wbuf []byte
	rbuf []byte
}

func dialBench(addr string) (*benchConn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &benchConn{conn: conn, rbuf: make([]byte, 64<<10)}, nil
}

// batch writes every request in one syscall and reads until each has a
// response, verifying the status bytes of each head.
func (c *benchConn) batch(reqs [][]byte) error {
	c.wbuf = c.wbuf[:0]
	for _, r := range reqs {
		c.wbuf = append(c.wbuf, r...)
	}
	c.conn.SetDeadline(time.Now().Add(time.Minute))
	if _, err := c.conn.Write(c.wbuf); err != nil {
		return err
	}
	fill, scan, respStart, got := 0, 0, 0, 0
	for got < len(reqs) {
		if fill == len(c.rbuf) {
			return fmt.Errorf("response batch overflows %d-byte client buffer", len(c.rbuf))
		}
		n, err := c.conn.Read(c.rbuf[fill:])
		if err != nil {
			return fmt.Errorf("reading response %d/%d: %w", got+1, len(reqs), err)
		}
		fill += n
		for i := scan; i+3 < fill; i++ {
			if c.rbuf[i] != '\r' || c.rbuf[i+1] != '\n' || c.rbuf[i+2] != '\r' || c.rbuf[i+3] != '\n' {
				continue
			}
			head := c.rbuf[respStart : i+4]
			if len(head) < 12 || string(head[9:12]) != "202" {
				return fmt.Errorf("response %d: %q", got+1, head)
			}
			got++
			respStart = i + 4
			i += 3
		}
		if scan = fill - 3; scan < respStart {
			scan = respStart
		}
	}
	return nil
}

func (c *benchConn) Close() error { return c.conn.Close() }

func runWire(mode string, depth, homes, events, shards, producers int) (modeResult, error) {
	hub, ids, err := benchwork.BuildHub(homes, shards)
	if err != nil {
		return modeResult{}, err
	}
	defer func() { _ = hub.Close() }()

	addr, stop, err := startServer(mode, hub)
	if err != nil {
		return modeResult{}, err
	}
	defer stop()

	// Prebuilt request bytes per home per body variant: the producers only
	// gather and write.
	bodies := [2][]byte{eventBody("31"), eventBody("20")}
	reqs := make([][2][]byte, homes)
	for i, id := range ids {
		for v, body := range bodies {
			reqs[i][v] = fmt.Appendf(nil,
				"POST /fleet/homes/%s/events HTTP/1.1\r\nHost: bench\r\nContent-Length: %d\r\n\r\n%s",
				id, len(body), body)
		}
	}

	var idx atomic.Uint64
	var wg sync.WaitGroup
	errs := make(chan error, producers)
	start := time.Now()
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := dialBench(addr)
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			batch := make([][]byte, 0, depth)
			for {
				lo := idx.Add(uint64(depth)) - uint64(depth)
				if lo >= uint64(events) {
					return
				}
				hi := lo + uint64(depth)
				if hi > uint64(events) {
					hi = uint64(events)
				}
				batch = batch[:0]
				for i := lo + 1; i <= hi; i++ { // 1-based, matching the fleet workload
					v := 0
					if benchwork.FleetEventValue(i, homes) != "31" {
						v = 1
					}
					batch = append(batch, reqs[i%uint64(homes)][v])
				}
				if err := conn.batch(batch); err != nil {
					errs <- fmt.Errorf("%s/depth %d: %w", mode, depth, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		// A failed producer means fewer events than configured went through;
		// publishing events/elapsed anyway would inflate the tracked number.
		return modeResult{}, fmt.Errorf("ingestbench: %w", err)
	default:
	}
	if err := hub.Quiesce(); err != nil {
		return modeResult{}, err
	}
	elapsed := time.Since(start)
	return modeResult{
		Mode:         mode,
		Pipeline:     depth,
		Seconds:      elapsed.Seconds(),
		EventsPerSec: float64(events) / elapsed.Seconds(),
	}, nil
}

// ---- saturation (admission under overload, via the stock client) ----

func post(client *http.Client, url string, body []byte) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	return resp, nil
}

// runSaturation floods one home past the admission budget while a second
// home on the same (single) shard posts within budget: the flood must shed
// with 429 + Retry-After, the calm home must stay fully served.
func runSaturation(rate, burst float64, flood int) (saturationResult, error) {
	hub, ids, err := benchwork.BuildHub(2, 1)
	if err != nil {
		return saturationResult{}, err
	}
	defer func() { _ = hub.Close() }()

	adm := ingest.NewAdmission(ingest.Limits{Rate: rate, Burst: burst}, hub.Backlog)
	sink := fleet.NewEventSink(hub, ingest.Limits{}, ingest.WithAdmission(adm))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return saturationResult{}, err
	}
	srv := &http.Server{
		Handler:           fleet.NewHTTPHandler(hub, fleet.WithEventSink(sink)),
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func() { _ = srv.Serve(ln) }()
	tr := &http.Transport{MaxIdleConns: 2, MaxIdleConnsPerHost: 2}
	client := &http.Client{Transport: tr}
	defer func() {
		tr.CloseIdleConnections()
		_ = srv.Close()
	}()
	base := "http://" + ln.Addr().String()

	res := saturationResult{RateLimit: rate, Burst: burst}
	body := eventBody("31")
	for i := 0; i < flood; i++ {
		resp, err := post(client, base+"/fleet/homes/"+ids[0]+"/events", body)
		if err != nil {
			return res, err
		}
		switch resp.StatusCode {
		case http.StatusAccepted:
			res.FloodAdmitted++
		case http.StatusTooManyRequests:
			res.FloodShed++
			if resp.Header.Get("Retry-After") != "" {
				res.RetryAfterSeen = true
			}
		default:
			return res, fmt.Errorf("flood: status %d", resp.StatusCode)
		}
		res.FloodPosted++
	}

	// The calm home spends well under the burst; every post must land even
	// though the flood home on the same shard is being shed.
	calm := int(burst / 2)
	if calm < 1 {
		calm = 1
	}
	for i := 0; i < calm; i++ {
		resp, err := post(client, base+"/fleet/homes/"+ids[1]+"/events", body)
		if err != nil {
			return res, err
		}
		if resp.StatusCode == http.StatusAccepted {
			res.CalmAdmitted++
		}
		res.CalmPosted++
	}
	if err := hub.Quiesce(); err != nil {
		return res, err
	}
	st := adm.Stats()
	res.ShedRate, res.ShedBacklog = st.ShedRate, st.ShedBacklog
	if res.CalmAdmitted != res.CalmPosted {
		return res, fmt.Errorf("saturation: calm home shed %d of %d posts",
			res.CalmPosted-res.CalmAdmitted, res.CalmPosted)
	}
	if res.FloodShed == 0 {
		return res, fmt.Errorf("saturation: flood of %d posts was never shed", flood)
	}
	if !res.RetryAfterSeen {
		return res, fmt.Errorf("saturation: 429 responses missing Retry-After")
	}
	return res, nil
}
