package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/ingest"
)

// home_rich: the paper's Fig. 1 household at full size behind the default
// net/http API, journaled to a FileStore. Evaluation, arbitration, rule
// compile and conflict check and the journal dominate; the transport is a
// small share. Rule writes run on the same shard goroutine as events, so a
// change that speeds one at the other's cost shows here.
var homeRich = workload{
	name: "home_rich",
	rates: func(short bool) map[string]float64 {
		s := richScale(short)
		return map[string]float64{"events_per_s": s.rate, "rule_ops_per_s": s.ops}
	},
	setup: setupRich,
}

type richSize struct {
	homes   int
	fillers int     // filler threshold rules per home
	stereo  int     // of which target the stereo, never firing: conflict-check load
	samples int     // homes checked against the full-scan twin
	rate    float64 // events per second
	ops     float64 // rule POSTs plus DELETEs per second
}

func richScale(short bool) richSize {
	if short {
		return richSize{homes: 8, fillers: 50, stereo: 10, samples: 4, rate: 400, ops: 20}
	}
	return richSize{homes: 64, fillers: 500, stereo: 100, samples: 8, rate: 2000, ops: 50}
}

// figure1 is cmd/scenario's Fig. 1 rule set: four words and ten rules.
var figure1 = []struct{ src, owner string }{
	{"Let's call the condition that temperature is higher than 26 degrees and humidity is higher than 65 percent hot and stuffy", "tom"},
	{"Let's call the condition that temperature is higher than 25 degrees and humidity is higher than 60 percent muggy", "alan"},
	{"Let's call the condition that temperature is higher than 29 degrees and humidity is higher than 75 percent sticky", "emily"},
	{"Let's call the configuration that 50 percent of brightness setting half-lighting", "tom"},
	{"In the evening, if i am in the living room, play the stereo with jazz of mode setting and 40 percent of volume setting.", "tom"},
	{"When i am in the living room, turn on the floor lamp with half-lighting.", "tom"},
	{"If i am in the living room and hot and stuffy, turn on the air conditioner at the living room with 25 degrees of temperature setting and 60 percent of humidity setting.", "tom"},
	{"If i am in the living room and a baseball game is on air, turn on the tv with 1 of channel setting.", "alan"},
	{"If emily is in the living room and a baseball game is on air, record the video recorder.", "alan"},
	{"If i am in the living room and muggy, turn on the air conditioner at the living room with 24 degrees of temperature setting and 55 percent of humidity setting.", "alan"},
	{"If i am in the living room and my favorite movie is on air, turn on the tv with 3 of channel setting.", "emily"},
	{"When i am in the living room and my favorite movie is on air, play the stereo with movie of mode setting.", "emily"},
	{"When i am in the living room and my favorite movie is on air, turn on the fluorescent light.", "emily"},
	{"If i am in the living room and sticky, turn on the air conditioner at the living room with 27 degrees of temperature setting and 65 percent of humidity setting.", "emily"},
}

// figure1Orders are the contextual priority orders of Fig. 7.
var figure1Orders = []struct {
	device, context string
	users           []string
}{
	{"tv", "alan got home from work", []string{"alan", "tom", "emily"}},
	{"tv", "emily got home from shopping", []string{"emily", "alan", "tom"}},
	{"stereo", "emily got home from shopping", []string{"emily", "tom", "alan"}},
	{"air conditioner", "alan got home from work", []string{"alan", "tom", "emily"}},
	{"air conditioner", "emily got home from shopping", []string{"emily", "alan", "tom"}},
}

// The probe rules toggle the garage light with its light sensor, so every
// probe event fires exactly one known action.
var probeRules = []string{
	"If illuminance at the garage is higher than 500 lux, turn on the light at the garage.",
	"If illuminance at the garage is lower than 500 lux, turn off the light at the garage.",
}

// fillerDevices carry the climate fillers; none is a Fig. 1 or probe device.
var fillerDevices = []struct{ on, off string }{
	{"turn on the fan at the kitchen", "turn off the fan at the kitchen"},
	{"turn on the heater at the study", "turn off the heater at the study"},
	{"turn on the air conditioner at the bedroom", "turn off the air conditioner at the bedroom"},
	{"turn on the humidifier at the bathroom", "turn off the humidifier at the bathroom"},
	{"turn on the dehumidifier at the hall", "turn off the dehumidifier at the hall"},
	{"open the curtain at the living room", "close the curtain at the living room"},
	{"open the window at the study", "close the window at the study"},
	{"turn on the lamp at the bedroom", "turn off the lamp at the bedroom"},
	{"turn on the tv at the bedroom", "turn off the tv at the bedroom"},
	{"turn on the light at the hall", "turn off the light at the hall"},
}

// filler returns the i-th filler rule. The first stereo fillers read the
// bedroom temperature, which no event sets: they never fire but give every
// stereo rule write a conflict check against all of them (the paper's E2
// shape). Of the rest, two in five read the living-room temperature and
// two in five its humidity, thresholds spread over the range the climate
// steps walk, so a step flips a few dozen rules; the last fifth read the
// study's illuminance, which no event sets either.
func filler(i, stereo int) string {
	if i < stereo {
		return fmt.Sprintf("If temperature at the bedroom is higher than %d degrees, play the stereo with %d percent of volume setting.", 15+i%20, i%90)
	}
	d := fillerDevices[i%len(fillerDevices)]
	act := d.on
	if (i/len(fillerDevices))%2 == 1 {
		act = d.off
	}
	switch i % 5 {
	case 0, 1:
		return fmt.Sprintf("If temperature at the living room is higher than %d degrees, %s.", 20+i%13, act)
	case 2, 3:
		return fmt.Sprintf("If humidity at the living room is higher than %d percent, %s.", 40+i%41, act)
	default:
		return fmt.Sprintf("If illuminance at the study is higher than %d lux, %s.", 100+i%400, act)
	}
}

// writerRule is the stereo rule the rule-op stream adds; its condition
// never holds, so it changes no owner while costing a full conflict check.
func writerRule(n int) string {
	return fmt.Sprintf("If temperature at the garage is higher than %d degrees, play the stereo with 99 percent of volume setting.", 50+n)
}

const (
	presenceSensor = "urn:cadel-home:device:PresenceSensor:1"
	hygrometer     = "urn:cadel-home:device:Hygrometer:1"
	lightSensor    = "urn:cadel-home:device:LightSensor:1"
	epgTuner       = "urn:cadel-home:device:EPGTuner:1"
	onAir          = "Tigers vs Giants|baseball game|tigers,giants;Roman Holiday|movie|roman holiday,audrey hepburn"
)

// richEvent is one device event of the mix.
type richEvent struct {
	probe                bool
	deviceType, name, at string
	vars                 map[string]string
}

// seedFigure1 gives one home the Fig. 1 household: three users, four
// words, ten rules and five priority orders.
func seedFigure1(hub *fleet.Hub, home string) error {
	for _, u := range []string{"tom", "alan"} {
		if err := hub.RegisterUser(home, u); err != nil {
			return err
		}
	}
	if err := hub.RegisterUser(home, "emily", "roman holiday"); err != nil {
		return err
	}
	for _, s := range figure1 {
		if _, err := hub.Submit(home, s.src, s.owner); err != nil {
			return fmt.Errorf("%q: %w", s.src, err)
		}
	}
	for _, o := range figure1Orders {
		if err := hub.SetPriority(home, core.DeviceRef{Name: o.device}, o.users, o.context); err != nil {
			return err
		}
	}
	return nil
}

// seedRich gives one home the Fig. 1 household, the probe rules, the
// fillers, three writer rules and today's programmes. It returns the
// writer rules' ids, oldest first; the rule-op stream deletes them, so a
// home always has one to delete while its latest POST is in flight.
func seedRich(hub *fleet.Hub, home string, sc richSize) ([]string, error) {
	if err := seedFigure1(hub, home); err != nil {
		return nil, err
	}
	owners := []string{"tom", "alan", "emily"}
	for _, src := range probeRules {
		if _, err := hub.Submit(home, src, "tom"); err != nil {
			return nil, err
		}
	}
	for i := 0; i < sc.fillers; i++ {
		if _, err := hub.Submit(home, filler(i, sc.stereo), owners[i%3]); err != nil {
			return nil, fmt.Errorf("filler %d: %w", i, err)
		}
	}
	var writers []string
	for n := 0; n < 3; n++ {
		res, err := hub.Submit(home, writerRule(-1-n), "alan")
		if err != nil {
			return nil, err
		}
		writers = append(writers, res.Rule.ID)
	}
	err := hub.PostEventSync(home, epgTuner, "epg tuner", "", map[string]string{"programs": onAir})
	return writers, err
}

// richHome is the generator state of one home; only the event writer
// touches it while the load runs.
type richHome struct {
	rng         *rand.Rand
	k, probes   int
	temp, humid int
	trail       []richEvent // sample homes: every event sent, in order
}

// next returns the home's next event: every 8th a probe, the rest a seeded
// mix of presence moves, arrivals and living-room climate steps.
func (h *richHome) next(sample bool) richEvent {
	var ev richEvent
	k := h.k
	h.k++
	switch r := h.rng.IntN(10); {
	case k%8 == 0:
		lux := "800"
		if h.probes%2 == 1 {
			lux = "100"
		}
		h.probes++
		ev = richEvent{true, lightSensor, "light sensor", "garage", map[string]string{"illuminance": lux}}
	case r < 5:
		who := []string{"tom", "alan", "emily"}[h.rng.IntN(3)]
		room := []string{"living room", "living room", "kitchen", "bedroom", "hall", "study", ""}[h.rng.IntN(7)]
		ev = richEvent{false, presenceSensor, "presence sensor", "home", map[string]string{"presence-" + who: room}}
	case r < 6:
		who := []string{"tom", "alan", "emily"}[h.rng.IntN(3)]
		what := []string{"return-home", "home-from-work", "home-from-shopping"}[h.rng.IntN(3)]
		ev = richEvent{false, presenceSensor, "presence sensor", "home", map[string]string{"event": who + "|" + what + "|" + strconv.Itoa(k)}}
	case r < 8:
		h.temp = walk(h.rng, h.temp, 3, 20, 32)
		ev = richEvent{false, thermometer, "thermometer", "living room", map[string]string{"temperature": strconv.Itoa(h.temp)}}
	default:
		h.humid = walk(h.rng, h.humid, 8, 40, 80)
		ev = richEvent{false, hygrometer, "hygrometer", "living room", map[string]string{"humidity": strconv.Itoa(h.humid)}}
	}
	if sample {
		h.trail = append(h.trail, ev)
	}
	return ev
}

// walk steps v by 1..step in a random direction, staying in [lo, hi].
func walk(rng *rand.Rand, v, step, lo, hi int) int {
	d := 1 + rng.IntN(step)
	if rng.IntN(2) == 0 {
		d = -d
	}
	if v+d < lo || v+d > hi {
		d = -d
	}
	return v + d
}

type richBench struct {
	sc      richSize
	led     *ledger
	tl      *timeline
	hub     *fleet.Hub
	dir     string
	store   *tracedStore // nil when untraced
	srv     *server
	ld      *loader
	seed    int64
	ids     []string
	order   []int32
	gen     []richHome
	sample  map[int32]bool
	pass0   []uint64 // per home: evaluation passes run by the end of seeding

	wmu     sync.Mutex
	writers [][]string     // per home: writer rule ids, oldest first
	posts   []atomic.Int64 // per home: rule POSTs acknowledged

	submit    series // scheduled send to response, per rule op
	toJournal series // POST written to its record's Store.Append
	conflicts series // conflicts listed per POST response (count, not ns)
}

func setupRich(cfg *config, tl *timeline) (bench, error) {
	sc := richScale(cfg.short)
	rng := rand.New(rand.NewPCG(uint64(cfg.seed), 0x51c4))
	b := &richBench{sc: sc, tl: tl, seed: cfg.seed, ids: homeIDs("home", sc.homes),
		sample: map[int32]bool{}, posts: make([]atomic.Int64, sc.homes)}
	b.led = newLedger(b.ids, func(_ int32, ref core.DeviceRef, _ core.Action) bool {
		return ref.Name == "light" && ref.Location == "garage"
	})
	if cfg.trace {
		b.led.spans = newSpanTable(sc.homes)
	}
	var err error
	if b.dir, err = os.MkdirTemp(filepath.Join(cfg.dir, "tmp"), "home_rich-"); err != nil {
		return nil, err
	}
	st, err := fleet.OpenFileStore(b.dir)
	if err != nil {
		b.close()
		return nil, err
	}
	var store fleet.Store = st
	if cfg.trace {
		b.store = newTracedStore(st, &b.led.spans.on)
		store = b.store
	}
	if b.hub, err = newHub(b.led, fleet.WithStore(store)); err != nil {
		st.Close()
		b.close()
		return nil, err
	}
	b.writers = make([][]string, sc.homes)
	if err := forEach(sc.homes, func(i int) error {
		w, err := seedRich(b.hub, b.ids[i], sc)
		b.writers[i] = w
		return err
	}); err != nil {
		b.close()
		return nil, fmt.Errorf("seeding homes: %w", err)
	}
	if b.pass0, err = passCounts(b.hub, b.ids); err != nil {
		b.close()
		return nil, err
	}
	b.order = shuffled(rng, sc.homes)
	for _, h := range b.order[:sc.samples] {
		b.sample[h] = true
	}
	b.gen = make([]richHome, sc.homes)
	for i := range b.gen {
		b.gen[i] = richHome{rng: rand.New(rand.NewPCG(uint64(cfg.seed), uint64(i))), temp: 24, humid: 55}
	}

	sink := http.Handler(fleet.NewEventSink(b.hub, ingest.Limits{}))
	if cfg.trace {
		sink = tracedHandler{inner: ingest.NewSink(tracedPoster{hub: b.hub, l: b.led},
			ingest.WithAdmission(ingest.NewAdmission(ingest.Limits{}, b.hub.Backlog)),
			ingest.WithSinkMetrics(b.hub.MetricsRegistry())), l: b.led}
	}
	if b.srv, err = serveHTTP(fleet.NewHTTPHandler(b.hub, fleet.WithEventSink(sink))); err != nil {
		b.close()
		return nil, err
	}
	b.ld = newLoader(b.led.spans, b.handle, b.srv.addr, b.srv.addr)
	b.ld.lanes[1].keepBody = true
	return b, nil
}

// Lane 0 carries the events, lane 1 the rule writes.
func (b *richBench) handle(from int, s sent, r *response) (bool, error) {
	if from == 0 {
		if r.status != 202 {
			return true, fmt.Errorf("event for %s: status %d", b.ids[s.home], r.status)
		}
		b.led.homes[s.home].acked.Add(1)
		b.tl.add(s.sched, 1)
		return true, nil
	}
	t := now()
	if s.op == opDelete {
		if r.status != 204 {
			return true, fmt.Errorf("rule delete in %s: status %d", b.ids[s.home], r.status)
		}
		b.submit.add(s.sched, t-s.sched)
		return true, nil
	}
	var body struct {
		Rule      struct{ ID string }
		Conflicts []json.RawMessage
	}
	if r.status != 201 {
		return true, fmt.Errorf("rule post in %s: status %d: %s", b.ids[s.home], r.status, r.body)
	}
	if err := json.Unmarshal(r.body, &body); err != nil || body.Rule.ID == "" {
		return true, fmt.Errorf("rule post in %s: bad response %q", b.ids[s.home], r.body)
	}
	b.submit.add(s.sched, t-s.sched)
	b.conflicts.add(s.sched, int64(len(body.Conflicts)))
	if b.store != nil {
		if j, ok := b.store.journaled(b.ids[s.home], body.Rule.ID); ok {
			b.toJournal.add(s.sched, j-s.write)
		}
	}
	b.posts[s.home].Add(1)
	b.wmu.Lock()
	b.writers[s.home] = append(b.writers[s.home], body.Rule.ID)
	b.wmu.Unlock()
	return true, nil
}

func (b *richBench) drive(start, end int64) error {
	from := start - int64(warmup)
	err := b.ld.run(end,
		func() error { return b.events(from, end) },
		func() error { return b.ruleOps(from, end) })
	if err != nil {
		return err
	}
	return b.hub.Quiesce()
}

// events releases the event mix at sc.rate: event i goes to home
// order[i % homes].
func (b *richBench) events(from, end int64) error {
	var i int
	batch := make([]sent, 1)
	return openLoop(from, end, spacing(b.sc.rate), func(due int64) error {
		h := b.order[i%len(b.order)]
		i++
		ev := b.gen[h].next(b.sample[h])
		seq := b.led.release(h, ev.probe, due)
		req := request("POST", eventPath(b.ids[h]), eventBody(ev.deviceType, ev.name, ev.at, ev.vars, false))
		batch[0] = sent{home: h, seq: seq, sched: due, req: req}
		b.ld.send(0, batch)
		return b.ld.err()
	})
}

// ruleOps releases rule writes at sc.ops: a stereo rule POST to a seeded
// home, then a DELETE of that home's oldest writer rule.
func (b *richBench) ruleOps(from, end int64) error {
	rng := rand.New(rand.NewPCG(uint64(b.seed), 0x0b5))
	var j int
	var home int32
	return openLoop(from, end, spacing(b.sc.ops), func(due int64) error {
		s := sent{op: opPost, sched: due}
		if j%2 == 0 {
			home = int32(rng.IntN(b.sc.homes))
			body, _ := json.Marshal(map[string]string{"source": writerRule(j), "owner": "alan"})
			s.req = request("POST", "/fleet/homes/"+b.ids[home]+"/rules", body)
		} else {
			b.wmu.Lock()
			left := b.writers[home]
			if len(left) > 0 {
				b.writers[home] = left[1:]
			}
			b.wmu.Unlock()
			if len(left) == 0 {
				return fmt.Errorf("rule ops: %s has no writer rule left to delete", b.ids[home])
			}
			s.op, s.req = opDelete, request("DELETE", "/fleet/homes/"+b.ids[home]+"/rules/"+left[0], nil)
		}
		j++
		s.home = home
		b.ld.send(1, []sent{s})
		return b.ld.err()
	})
}

// check verifies the probes and compares the sample homes with a full-scan
// twin hub fed the same per-home event sequences synchronously. A home runs
// a pass per event and per rule POST, except where its events queued up
// and shared one.
func (b *richBench) check() error {
	passes, err := passCounts(b.hub, b.ids)
	if err != nil {
		return err
	}
	coalesced := func(h int32) int64 {
		return b.led.homes[h].acked.Load() + b.posts[h].Load() - int64(passes[h]-b.pass0[h])
	}
	if err := b.led.settle(coalesced); err != nil {
		return err
	}
	var mu sync.Mutex
	twinActions := map[string]int{}
	twin, err := fleet.NewHub(fleet.WithFullScan(), fleet.WithDispatchWorkers(4),
		fleet.WithClock(func() time.Time { return simTime }),
		fleet.WithDispatcher(func(home string, _ core.DeviceRef, _ core.Action) error {
			mu.Lock()
			twinActions[home]++
			mu.Unlock()
			return nil
		}))
	if err != nil {
		return err
	}
	defer twin.Close()
	counted := 0
	for h := range b.sample {
		id := b.ids[h]
		if _, err := seedRich(twin, id, b.sc); err != nil {
			return fmt.Errorf("twin: %w", err)
		}
		for _, ev := range b.gen[h].trail {
			if err := twin.PostEventSync(id, ev.deviceType, ev.name, ev.at, ev.vars); err != nil {
				return fmt.Errorf("twin: %w", err)
			}
		}
		live, err := b.hub.Owners(id)
		if err != nil {
			return err
		}
		want, err := twin.Owners(id)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(live, want) {
			return fmt.Errorf("%s: owners %v, full-scan twin %v", id, live, want)
		}
		// The fired log and the action count match only where every event
		// had a pass of its own: a pass that coalesces a home's queued events
		// skips edges the twin's synchronous posts see.
		if coalesced(h) != 0 {
			continue
		}
		liveLog, err := b.hub.Log(id)
		if err != nil {
			return err
		}
		twinLog, err := twin.Log(id)
		if err != nil {
			return err
		}
		if len(liveLog) != len(twinLog) {
			return fmt.Errorf("%s: fired log holds %d, full-scan twin %d", id, len(liveLog), len(twinLog))
		}
		hl := &b.led.homes[h]
		hl.mu.Lock()
		got := len(hl.acts) + int(hl.others.Load())
		hl.mu.Unlock()
		mu.Lock()
		twinGot := twinActions[id]
		mu.Unlock()
		if got != twinGot {
			return fmt.Errorf("%s: %d actions dispatched, full-scan twin %d", id, got, twinGot)
		}
		counted++
	}
	if counted == 0 {
		// A stall of the host long enough to queue up every sample home's
		// events leaves only the owners to compare.
		fmt.Fprintln(os.Stderr, "bench: home_rich: every sample home coalesced events; only owners were compared with the twin")
	}
	return nil
}

func (b *richBench) report(p phase, r *report) {
	r.percentiles("submit.p50_ms", "submit.p99_ms", b.submit.within(p.start, p.end), "ms")
	r.percentiles("submit.to_journal_p50_ms", "", b.toJournal.within(p.start, p.end), "ms")
	if c := b.conflicts.within(p.start, p.end); len(c) > 0 {
		var sum int64
		for _, n := range c {
			sum += n
		}
		r.add("submit.conflicts_mean", float64(sum)/float64(len(c)), "rules")
	}
	if b.store != nil {
		r.percentiles("store.append_p50_us", "store.append_p99_us", b.store.appends.within(p.start, p.end), "us")
	}
}

func (b *richBench) hubs() []*fleet.Hub { return []*fleet.Hub{b.hub} }
func (b *richBench) ledger() *ledger    { return b.led }
func (b *richBench) attempted() int64   { return b.ld.attempted.Load() }
func (b *richBench) failed() int64      { return b.ld.failed.Load() }

func (b *richBench) close() {
	if b.ld != nil {
		b.ld.stop()
	}
	if b.srv != nil {
		b.srv.stop()
	}
	if b.hub != nil {
		b.hub.Close()
	}
	if b.dir != "" {
		os.RemoveAll(b.dir)
	}
}
