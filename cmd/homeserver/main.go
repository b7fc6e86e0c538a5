// Command homeserver runs the CADEL home server against the simulated home
// as an interactive shell: type CADEL commands to register rules and words,
// and colon-commands to drive the simulation.
//
//	$ homeserver
//	cadel> If hot and stuffy, turn on the air conditioner at the living room.
//	cadel> :arrive tom living room return-home
//	cadel> :climate living room 27 66
//	cadel> :tick 30m
//	cadel> :log
//
// Colon commands:
//
//	:users                          list registered users
//	:user NAME [favorite...]        register a user
//	:owner NAME                     set the submitting user
//	:devices                        list discovered devices
//	:find KEY=VALUE ...             lookup query (name=, location=, sensor=, verb=, word=, keyword=)
//	:verbs DEVICE                   allowed actions of a device
//	:arrive USER ROOM [EVENT]       user arrives
//	:leave USER                     user leaves home
//	:climate ROOM TEMP HUMID        override a room's climate
//	:dark ROOM on|off               override a room's darkness
//	:priority DEVICE u1>u2>... [CTX]  set a priority order
//	:tick DURATION                  advance the simulation clock (e.g. 30m)
//	:rules | :log | :export | :quit
//
// With -http ADDR the shell also serves the JSON API for interface devices:
// GET /api/devices and /api/lookup, plus the fleet API for its one home
// under /fleet/homes/home/ (users, rules, priority, log, export):
//
//	$ homeserver -http :8080
//	$ curl -X POST localhost:8080/fleet/homes/home/rules \
//	      -d '{"source":"If tom is in the living room, turn on the floor lamp.","owner":"tom"}'
//
// Multi-home mode: -fleet ADDR runs a sharded fleet hub instead of the
// single-home shell, serving the /fleet JSON API (submit rules, post sensor
// events, read per-home fired-action logs) for any number of homes:
//
//	$ homeserver -fleet :8090 -shards 8 -store ./fleet-db
//	$ curl -X POST localhost:8090/fleet/homes/alpha/users -d '{"name":"tom"}'
//	$ curl -X POST localhost:8090/fleet/homes/alpha/rules \
//	      -d '{"source":"Turn on the light at the hall.","owner":"tom"}'
//
// With -store the hub journals every home's rules to an append-only
// JSON-lines log and rehydrates them on restart; -store remote://host:port
// journals to a cmd/logserver record-log service instead (idempotent
// appends, retry/backoff, fail-closed degraded mode).
//
// In either mode -admin ADDR serves net/http/pprof on a separate listener
// (kept off the API address so diagnostics are never publicly routed):
//
//	$ homeserver -fleet :8090 -admin localhost:6060
//	$ go tool pprof localhost:6060/debug/pprof/profile
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // -admin: profiling endpoints on a separate listener
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	cadel "repro"
	"repro/internal/fleet"
	"repro/internal/home"
	"repro/internal/httpapi"
	"repro/internal/ingest"
	"repro/internal/rawhttp"
	"repro/internal/ring"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	httpAddr := flag.String("http", "", "also serve the interface-device JSON API (/api/devices, /api/lookup, /fleet/homes/home/...) on this address (e.g. :8080)")
	fleetAddr := flag.String("fleet", "", "run in multi-home mode, serving the fleet JSON API on this address (e.g. :8090)")
	shards := flag.Int("shards", 0, "fleet mode: shard count (0 = one per CPU)")
	storeDir := flag.String("store", "", "fleet mode: persist rules to this directory (append-only JSONL), or to a remote log server with remote://host:port (see cmd/logserver)")
	workers := flag.Int("dispatch-workers", 4, "fleet mode: dispatch worker pool size")
	ingestRate := flag.Float64("ingest-rate", 0, "fleet mode: per-home event admission rate (events/sec, 0 = unlimited)")
	ingestBurst := flag.Float64("ingest-burst", 0, "fleet mode: per-home admission burst (0 = max(rate, 1))")
	ingestBacklog := flag.Int("ingest-backlog", 0, "fleet mode: shed events once a home's shard queue exceeds this depth (0 = never)")
	adminAddr := flag.String("admin", "", "serve net/http/pprof diagnostics on this address (e.g. localhost:6060); off by default")
	nodeAddr := flag.String("node", "", "fleet mode: this node's advertised ring address (host:port); defaults to the -fleet address")
	peersFlag := flag.String("peers", "", "fleet mode: comma-separated ring membership (host:port,...), or @FILE to read one address per line; empty = single-node ring")
	rawIngest := flag.String("raw-ingest", "", "fleet mode: also serve POST /fleet/homes/{home}/events on this address via the raw-socket HTTP/1.1 front end (e.g. :8091); admin/API routes stay on -fleet")
	flag.Parse()
	if *adminAddr != "" {
		// pprof registers its handlers on http.DefaultServeMux at import.
		// The admin listener is separate from the API listeners so profiling
		// endpoints are never exposed on the fleet or home API address.
		admin := &http.Server{
			Addr:              *adminAddr,
			Handler:           http.DefaultServeMux,
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			if err := admin.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("admin listener: %v", err)
			}
		}()
		fmt.Printf("admin: pprof at http://%s/debug/pprof/\n", *adminAddr)
	}
	if *fleetAddr != "" {
		limits := ingest.Limits{Rate: *ingestRate, Burst: *ingestBurst, MaxBacklog: *ingestBacklog}
		peers, err := parsePeers(*peersFlag)
		if err != nil {
			return err
		}
		return runFleet(*fleetAddr, *shards, *storeDir, *workers, limits, *nodeAddr, peers, *rawIngest)
	}

	network := cadel.NewNetwork()
	hm, err := home.New(network, home.DefaultConfig())
	if err != nil {
		return err
	}
	defer func() { _ = hm.Close() }()

	srv, err := cadel.NewServer(network,
		cadel.WithClock(hm.Clock.Now),
		cadel.WithEventTTL(6*time.Hour),
		cadel.WithOnFire(func(f cadel.Fired) { fmt.Println("! " + f.String()) }),
	)
	if err != nil {
		return err
	}
	defer func() { _ = srv.Close() }()

	for _, u := range []string{"tom", "alan"} {
		if err := srv.RegisterUser(u); err != nil {
			return err
		}
	}
	if err := srv.RegisterUser("emily", "roman holiday"); err != nil {
		return err
	}
	n, err := srv.DiscoverDevices(700 * time.Millisecond)
	if err != nil {
		return err
	}
	if *httpAddr != "" {
		api := &http.Server{Addr: *httpAddr, Handler: httpapi.New(srv)}
		go func() {
			if err := api.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("http api: %v", err)
			}
		}()
		defer func() { _ = api.Close() }()
		fmt.Printf("interface-device API on http://%s/api/ and http://%s/fleet/homes/%s/\n",
			*httpAddr, *httpAddr, cadel.HomeID)
	}
	fmt.Printf("cadel home server — %d devices discovered, users: %s\n",
		n, strings.Join(srv.Users(), ", "))
	fmt.Printf("clock: %s — type CADEL or :help\n", hm.Clock.Now().Format("15:04"))

	owner := "tom"
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("cadel> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case line == ":quit" || line == ":exit":
			return nil
		case strings.HasPrefix(line, ":"):
			if err := colon(hm, srv, &owner, line); err != nil {
				fmt.Println("error:", err)
			}
		default:
			res, err := srv.Submit(line, owner)
			switch {
			case err != nil:
				fmt.Println("error:", err)
			case res.DefinedWord != "":
				fmt.Printf("defined word %q\n", res.DefinedWord)
			default:
				fmt.Printf("registered rule %s\n", res.Rule.ID)
				for _, c := range res.Conflicts {
					fmt.Printf("  conflicts with %s (owner %s) — set a :priority\n",
						c.Existing.ID, c.Existing.Owner)
				}
			}
		}
		fmt.Print("cadel> ")
	}
	return sc.Err()
}

// runFleet serves the sharded multi-home hub over HTTP until the process
// receives SIGINT or SIGTERM. Homes are created on first touch through the
// API; fired actions are logged per home (no real appliances are attached in
// this mode).
//
// The hot POST-events route is served by the ingest sink (zero-alloc
// decoder plus token-bucket/backlog admission control); every other route
// goes through the fleet API's encoding/json handlers. On shutdown the HTTP
// listener drains in-flight requests first, then the hub quiesces its shards
// and flushes the store, so an orderly stop never loses accepted events or
// journal appends.
// parsePeers decodes -peers: a comma-separated list, or @FILE with one
// address per line (blank lines and #-comments ignored) — static membership
// for fleets managed by config file.
func parsePeers(spec string) ([]string, error) {
	if spec == "" {
		return nil, nil
	}
	if file, ok := strings.CutPrefix(spec, "@"); ok {
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, fmt.Errorf("read -peers file: %w", err)
		}
		var peers []string
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			peers = append(peers, line)
		}
		return peers, nil
	}
	var peers []string
	for _, p := range strings.Split(spec, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	return peers, nil
}

func runFleet(addr string, shards int, storeDir string, workers int, limits ingest.Limits, nodeAddr string, peers []string, rawAddr string) error {
	opts := []fleet.HubOption{
		fleet.WithDispatchWorkers(workers),
		fleet.WithLogLimit(1024),
	}
	if shards > 0 {
		opts = append(opts, fleet.WithShards(shards))
	}
	if storeDir != "" {
		if host, ok := strings.CutPrefix(storeDir, "remote://"); ok {
			opts = append(opts, fleet.WithStore(fleet.OpenRemoteStore("http://"+host)))
		} else {
			st, err := fleet.OpenFileStore(storeDir)
			if err != nil {
				return err
			}
			opts = append(opts, fleet.WithStore(st))
		}
	}
	hub, err := fleet.NewHub(opts...)
	if err != nil {
		return err
	}
	defer func() { _ = hub.Close() }()
	st, err := hub.Stats()
	if err != nil {
		return err
	}

	sink := fleet.NewEventSink(hub, limits)
	inner := fleet.NewHTTPHandler(hub, fleet.WithEventSink(sink))

	// Every fleet process is a ring node, even alone: the node layer adds
	// /healthz, /readyz and /ring, and a single-node ring grows into a fleet
	// by POSTing a bigger membership to /ring/members.
	self := nodeAddr
	if self == "" {
		self = addr
	}
	if strings.HasPrefix(self, ":") {
		self = "localhost" + self
	}
	found := false
	for _, p := range peers {
		if p == self {
			found = true
			break
		}
	}
	if !found {
		peers = append(peers, self)
	}
	node, err := ring.NewNode(ring.NodeConfig{Self: self, Hub: hub, Handler: inner, Peers: peers})
	if err != nil {
		return err
	}

	srv := &http.Server{
		Addr:              addr,
		Handler:           node,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	// The raw-socket event front end shares the net/http handler's sink, so
	// both transports draw on one admission budget and answer identically.
	var raw *rawhttp.Server
	rawErrc := make(chan error, 1)
	if rawAddr != "" {
		raw = fleet.NewRawIngest(hub, sink)
		go func() { rawErrc <- raw.ListenAndServe(rawAddr) }()
		rawDisplay := rawAddr
		if strings.HasPrefix(rawDisplay, ":") {
			rawDisplay = "localhost" + rawDisplay
		}
		fmt.Printf("raw ingest: POST http://%s/fleet/homes/{home}/events\n", rawDisplay)
	}

	display := addr
	if strings.HasPrefix(display, ":") {
		display = "localhost" + display
	}
	fmt.Printf("cadel fleet hub — %d shards, %d homes rehydrated, API at http://%s/fleet/\n",
		st.Shards, st.Homes, display)
	fmt.Printf("ring: node %s, members %s (probes at /healthz /readyz, status at /ring)\n",
		node.Self(), strings.Join(node.Ring().Members(), ","))
	if limits.Rate > 0 || limits.MaxBacklog > 0 {
		fmt.Printf("admission: rate %g ev/s, burst %g, max backlog %d\n",
			limits.Rate, limits.Burst, limits.MaxBacklog)
	}

	select {
	case err := <-errc:
		return err // listener failed before any signal
	case err := <-rawErrc:
		return err // raw listener failed before any signal
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second ^C kills immediately
	fmt.Println("\nshutting down...")
	// Flip readiness first so supervisors and load balancers stop routing
	// here while the listeners drain in-flight requests. The raw listener
	// drains through the same window: its keep-alive loops observe the
	// shutdown flag, answer the in-flight request with Connection: close,
	// and idle connections are poked awake — all before the hub quiesces,
	// so every accepted event still reaches its shard.
	node.SetDraining(true)
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		_ = srv.Close()
		log.Printf("http shutdown: %v", err)
	}
	if raw != nil {
		if err := raw.Shutdown(shutCtx); err != nil {
			_ = raw.Close()
			log.Printf("raw ingest shutdown: %v", err)
		}
		if err := <-rawErrc; err != nil && !errors.Is(err, rawhttp.ErrServerClosed) {
			return err
		}
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	// Drain the shards (accepted events finish evaluating) and flush the
	// store before the deferred Close tears the hub down.
	if err := hub.Quiesce(); err != nil {
		return err
	}
	return hub.Close()
}

func colon(hm *home.Home, srv *cadel.Server, owner *string, line string) error {
	fields := strings.Fields(line)
	switch fields[0] {
	case ":help":
		fmt.Println("commands: :users :user :owner :devices :find :verbs :arrive :leave :climate :dark :priority :tick :rules :log :export :quit")
		return nil
	case ":users":
		fmt.Println(strings.Join(srv.Users(), ", "))
		return nil
	case ":user":
		if len(fields) < 2 {
			return fmt.Errorf("usage: :user NAME [favorite...]")
		}
		return srv.RegisterUser(fields[1], fields[2:]...)
	case ":owner":
		if len(fields) != 2 {
			return fmt.Errorf("usage: :owner NAME")
		}
		*owner = fields[1]
		return nil
	case ":devices":
		devs := srv.Devices()
		sort.Slice(devs, func(i, j int) bool { return devs[i].FriendlyName < devs[j].FriendlyName })
		for _, d := range devs {
			fmt.Printf("  %-20s %-12s %s\n", d.FriendlyName, d.Location, d.DeviceType)
		}
		return nil
	case ":find":
		var q cadel.Query
		for _, kv := range fields[1:] {
			key, value, ok := strings.Cut(kv, "=")
			if !ok {
				return fmt.Errorf("want key=value, got %q", kv)
			}
			value = strings.ReplaceAll(value, "_", " ")
			switch key {
			case "name":
				q.Name = value
			case "location":
				q.Location = value
			case "sensor":
				q.SensorType = value
			case "verb":
				q.Verb = value
			case "word":
				q.Word = value
			case "keyword":
				q.Keyword = value
			default:
				return fmt.Errorf("unknown query key %q", key)
			}
		}
		for _, d := range srv.Find(q) {
			fmt.Printf("  %-20s %-12s words: %s\n",
				d.FriendlyName, d.Location, strings.Join(srv.WordsFor(d), ", "))
		}
		return nil
	case ":verbs":
		if len(fields) < 2 {
			return fmt.Errorf("usage: :verbs DEVICE")
		}
		name := strings.Join(fields[1:], " ")
		rd, err := srv.FindDevice(name, time.Second)
		if err != nil {
			return err
		}
		fmt.Println(strings.Join(srv.AllowedVerbs(rd), ", "))
		return nil
	case ":arrive":
		if len(fields) < 3 {
			return fmt.Errorf("usage: :arrive USER ROOM... [EVENT]")
		}
		event := "return-home"
		roomWords := fields[2:]
		if last := roomWords[len(roomWords)-1]; strings.Contains(last, "-") {
			event = last
			roomWords = roomWords[:len(roomWords)-1]
		}
		return hm.Arrive(fields[1], strings.Join(roomWords, " "), event)
	case ":leave":
		if len(fields) != 2 {
			return fmt.Errorf("usage: :leave USER")
		}
		return hm.Leave(fields[1])
	case ":climate":
		if len(fields) < 4 {
			return fmt.Errorf("usage: :climate ROOM... TEMP HUMID")
		}
		temp, err1 := strconv.ParseFloat(fields[len(fields)-2], 64)
		humid, err2 := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("bad numbers in %q", line)
		}
		room := strings.Join(fields[1:len(fields)-2], " ")
		if err := hm.SetClimate(room, temp, humid); err != nil {
			return err
		}
		srv.Tick()
		return nil
	case ":dark":
		if len(fields) < 3 {
			return fmt.Errorf("usage: :dark ROOM... on|off")
		}
		on := fields[len(fields)-1] == "on"
		room := strings.Join(fields[1:len(fields)-1], " ")
		if err := hm.SetDark(room, on); err != nil {
			return err
		}
		srv.Tick()
		return nil
	case ":priority":
		if len(fields) < 3 {
			return fmt.Errorf("usage: :priority DEVICE u1>u2>... [CONTEXT...]")
		}
		// The users argument is the first field containing '>'.
		idx := -1
		for i := 2; i < len(fields); i++ {
			if strings.Contains(fields[i], ">") {
				idx = i
				break
			}
		}
		if idx < 0 {
			return fmt.Errorf("no user order (u1>u2>...) given")
		}
		deviceName := strings.Join(fields[1:idx], " ")
		users := strings.Split(fields[idx], ">")
		context := strings.Join(fields[idx+1:], " ")
		return srv.SetPriority(cadel.DeviceRef{Name: deviceName}, users, context)
	case ":tick":
		if len(fields) != 2 {
			return fmt.Errorf("usage: :tick DURATION (e.g. 30m)")
		}
		d, err := time.ParseDuration(fields[1])
		if err != nil {
			return err
		}
		if err := hm.Step(d); err != nil {
			return err
		}
		srv.Tick()
		fmt.Printf("clock: %s\n", hm.Clock.Now().Format("15:04"))
		return nil
	case ":rules":
		for _, r := range srv.Rules() {
			fmt.Printf("  %s\n", r)
		}
		return nil
	case ":log":
		for _, f := range srv.Log() {
			fmt.Printf("  %s\n", f)
		}
		return nil
	case ":export":
		data, err := srv.ExportRules()
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return nil
	default:
		return fmt.Errorf("unknown command %q (:help)", fields[0])
	}
}
