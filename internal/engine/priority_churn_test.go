package engine

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/conflict"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/simplex"
)

// The priority-churn suites drive the shared priority table through edits
// mid-stream — new defaults, replaced slots, contextual orders superseding
// each other — while sensor events keep flipping rule readiness. The
// interned arbitration index (owner-rank vectors, bound order contexts,
// generation-gated device cache) must leave the fired and suppressed logs
// byte-identical to the map-keyed full-scan oracle.

func churnPairs(t *testing.T, run func(t *testing.T, p *enginePair)) {
	t.Run("interned-vs-fullscan", func(t *testing.T) {
		run(t, newEnginePair(t))
	})
}

// TestPriorityChurnScripted replays the paper's hand-off scenario with the
// priority table edited mid-stream: the applicable order must flip winners
// on the very next pass, identically on every evaluator.
func TestPriorityChurnScripted(t *testing.T) {
	churnPairs(t, runPriorityChurnScripted)
}

func runPriorityChurnScripted(t *testing.T, p *enginePair) {
	owners := []string{"tom", "alan", "emily"}
	for i, owner := range owners {
		if err := p.db.Add(&core.Rule{
			ID: fmt.Sprintf("tv-%s", owner), Owner: owner,
			Device: core.DeviceRef{Name: "tv"},
			Action: core.Action{Verb: "turn-on", Settings: map[string]core.Value{"channel": {IsNumber: true, Number: float64(i)}}},
			Cond:   &core.Compare{Var: "temperature", Op: simplex.GT, Value: 20},
		}); err != nil {
			t.Fatal(err)
		}
		if err := p.db.Add(&core.Rule{
			ID: fmt.Sprintf("stereo-%s", owner), Owner: owner,
			Device: core.DeviceRef{Name: "stereo"},
			Action: core.Action{Verb: "play"},
			Cond:   &core.Presence{Person: owner, Place: "living room"},
		}); err != nil {
			t.Fatal(err)
		}
	}
	p.each(func(e *Engine) { e.SetUsers(owners) })

	// All three TV rules ready; no order yet → registration order wins.
	p.event(device.TypeThermometer, "thermometer", "living room", map[string]string{"temperature": "25"})

	// A default order flips the TV to Emily.
	p.tbl.Set(conflict.Order{Device: core.DeviceRef{Name: "tv"}, Users: []string{"emily", "alan", "tom"}})
	p.each(func(e *Engine) { e.Tick() })

	// Replacing the same slot (device + empty context source) flips it again.
	p.tbl.Set(conflict.Order{Device: core.DeviceRef{Name: "tv"}, Users: []string{"alan", "tom", "emily"}})
	p.each(func(e *Engine) { e.Tick() })

	// A contextual order applies only while Emily is home from shopping.
	p.tbl.Set(conflict.Order{
		Device:        core.DeviceRef{Name: "tv"},
		Context:       &core.Arrival{Person: "emily", Event: "home-from-shopping"},
		ContextSource: "emily got home from shopping",
		Users:         []string{"emily", "tom", "alan"},
	})
	p.each(func(e *Engine) { e.Tick() })
	p.event(device.TypePresenceSensor, "presence sensor", "home",
		map[string]string{"event": "emily|home-from-shopping|1"})
	p.advance(45 * time.Minute) // TTL (30 min) lapses → back to the default order

	// Stereo: presence-driven ready-set with a nobody-gated contextual order.
	p.event(device.TypePresenceSensor, "presence sensor", "home",
		map[string]string{"presence-tom": "living room", "presence-alan": "living room"})
	p.tbl.Set(conflict.Order{Device: core.DeviceRef{Name: "stereo"}, Users: []string{"tom", "alan", "emily"}})
	p.each(func(e *Engine) { e.Tick() })
	p.tbl.Set(conflict.Order{
		Device:        core.DeviceRef{Name: "stereo"},
		Context:       &core.Nobody{Place: "bedroom"},
		ContextSource: "nobody at bedroom",
		Users:         []string{"alan", "tom", "emily"},
	})
	p.each(func(e *Engine) { e.Tick() })
	// Occupying the bedroom flips back to the default order.
	p.event(device.TypePresenceSensor, "presence sensor", "home", map[string]string{"presence-emily": "bedroom"})
	// Leaving it flips to the contextual order again.
	p.event(device.TypePresenceSensor, "presence sensor", "home", map[string]string{"presence-emily": ""})

	// A later-registered contextual order (distinct context source)
	// supersedes the earlier one while both contexts hold.
	p.tbl.Set(conflict.Order{
		Device:        core.DeviceRef{Name: "stereo"},
		Context:       &core.Everyone{Place: "living room"},
		ContextSource: "everyone at living room",
		Users:         []string{"emily", "alan", "tom"},
	})
	p.each(func(e *Engine) { e.Tick() })
	p.event(device.TypePresenceSensor, "presence sensor", "home", map[string]string{"presence-emily": "living room"})

	if len(p.inc.Log()) < 5 {
		t.Fatalf("only %d firings; churn scenario too quiet to be convincing", len(p.inc.Log()))
	}
}

// TestPriorityChurnRandom drives randomized event streams with priority
// orders registered, replaced and superseded at random points, across every
// evaluator pairing.
func TestPriorityChurnRandom(t *testing.T) {
	churnPairs(t, func(t *testing.T, p *enginePair) {
		t.Helper()
		runPriorityChurnRandom(t, p, 1)
	})
	t.Run("more-seeds", func(t *testing.T) {
		for seed := int64(2); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
				runPriorityChurnRandom(t, newEnginePair(t), seed)
			})
		}
	})
}

func runPriorityChurnRandom(t *testing.T, p *enginePair, seed int64) {
	people := []string{"tom", "alan", "emily", "guest"}
	rooms := []string{"living room", "kitchen", "bedroom"}
	devices := []string{"tv", "stereo", "air conditioner"}
	contexts := []struct {
		cond   core.Condition
		source string
	}{
		{nil, ""},
		{&core.Arrival{Person: "emily", Event: "home-from-shopping"}, "emily got home from shopping"},
		{&core.Nobody{Place: "bedroom"}, "nobody at bedroom"},
		{&core.Everyone{Place: "living room"}, "everyone at living room"},
		{&core.Presence{Person: core.Someone, Place: "kitchen"}, "someone at kitchen"},
		{&core.Compare{Var: "temperature", Op: simplex.GT, Value: 25}, "hot"},
	}

	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 24; i++ {
		var cond core.Condition
		cond = &core.Compare{Var: "temperature", Op: simplex.GT, Value: float64(15 + rng.Intn(15))}
		if i%3 == 0 {
			cond = &core.Presence{Person: people[rng.Intn(len(people))], Place: rooms[rng.Intn(len(rooms))]}
		}
		if err := p.db.Add(&core.Rule{
			ID:     fmt.Sprintf("r%d", i),
			Owner:  people[rng.Intn(len(people))],
			Device: core.DeviceRef{Name: devices[rng.Intn(len(devices))]},
			Action: core.Action{Verb: "turn-on", Settings: map[string]core.Value{"level": {IsNumber: true, Number: float64(i)}}},
			Cond:   cond,
		}); err != nil {
			t.Fatal(err)
		}
	}
	p.each(func(e *Engine) { e.SetUsers(people[:3]) })

	for step := 0; step < 300; step++ {
		switch rng.Intn(10) {
		case 0, 1, 2:
			p.event(device.TypeThermometer, "thermometer", rooms[rng.Intn(len(rooms))],
				map[string]string{"temperature": fmt.Sprintf("%d", 10+rng.Intn(25))})
		case 3, 4:
			place := ""
			if rng.Intn(3) > 0 {
				place = rooms[rng.Intn(len(rooms))]
			}
			p.event(device.TypePresenceSensor, "presence sensor", "home",
				map[string]string{"presence-" + people[rng.Intn(len(people))]: place})
		case 5:
			p.event(device.TypePresenceSensor, "presence sensor", "home",
				map[string]string{"event": fmt.Sprintf("%s|home-from-shopping|%d", people[rng.Intn(len(people))], step)})
		case 6:
			p.advance(time.Duration(1+rng.Intn(30)) * time.Minute)
		default:
			// Priority churn: a random order (fresh or replacing its slot) on
			// a random device, with a random user permutation.
			users := append([]string(nil), people...)
			rng.Shuffle(len(users), func(i, j int) { users[i], users[j] = users[j], users[i] })
			cc := contexts[rng.Intn(len(contexts))]
			p.tbl.Set(conflict.Order{
				Device:        core.DeviceRef{Name: devices[rng.Intn(len(devices))]},
				Context:       cc.cond,
				ContextSource: cc.source,
				Users:         users[:1+rng.Intn(len(users))],
			})
			p.each(func(e *Engine) { e.Tick() })
		}
	}
	if len(p.inc.Log()) < 10 {
		t.Fatalf("only %d firings over 300 steps; stream too quiet to be convincing", len(p.inc.Log()))
	}
}
