package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/conflict"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/registry"
	"repro/internal/simplex"
)

// TestStereoHandoffTomToEmily is the paper's Fig. 1 stereo lane as an
// explicit regression test: Tom's rule owns the stereo, Emily's arrival
// makes her contextual priority order apply and takes it over, and when the
// arrival expires the stereo returns to Tom — a hand-off driven purely by
// the priority context, with both rules continuously ready, which an
// incremental evaluator misses unless it re-arbitrates on order-context
// changes.
func TestStereoHandoffTomToEmily(t *testing.T) {
	for _, mode := range []struct {
		name string
		opts []Option
	}{
		{"incremental", nil},
		{"full-scan", []Option{WithFullScan()}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			db := registry.New()
			tbl := conflict.NewTable()
			rec := &recorder{}
			clock := &fakeClock{now: time.Date(2005, 3, 7, 18, 0, 0, 0, time.UTC)}
			opts := append([]Option{WithEventTTL(30 * time.Minute), dispatchEach(rec.dispatch)}, mode.opts...)
			e := New(db, tbl, clock.Now, opts...)

			stereo := core.DeviceRef{Name: "stereo"}
			if err := db.Add(core.NewRule("tom-stereo", "tom",
				stereo,
				core.Action{Verb: "play", Settings: map[string]core.Value{"volume": {IsNumber: true, Number: 5}}},
				&core.Presence{Person: "tom", Place: "living room"})); err != nil {
				t.Fatal(err)
			}
			if err := db.Add(core.NewRule("emily-stereo", "emily",
				stereo,
				core.Action{Verb: "play", Settings: map[string]core.Value{"volume": {IsNumber: true, Number: 2}}},
				&core.Presence{Person: "emily", Place: "living room"})); err != nil {
				t.Fatal(err)
			}
			tbl.Set(conflict.Order{
				Device:        stereo,
				Context:       &core.Arrival{Person: "emily", Event: "home-from-shopping"},
				ContextSource: "emily got home from shopping",
				Users:         []string{"emily", "tom"},
			})
			e.SetUsers([]string{"tom", "emily"})

			// Tom alone: his rule owns the stereo.
			e.HandleDeviceEvent(device.TypePresenceSensor, "presence sensor", "home",
				map[string]string{"presence-tom": "living room"})
			if rec.last() != "stereo <- play with volume=5" {
				t.Fatalf("applied = %v, want tom's stereo rule", rec.applied)
			}

			// Emily gets home from shopping and joins Tom: her contextual
			// order applies and the stereo hands off to her.
			e.HandleDeviceEvent(device.TypePresenceSensor, "presence sensor", "home",
				map[string]string{"presence-emily": "living room", "event": "emily|home-from-shopping|1"})
			if rec.last() != "stereo <- play with volume=2" {
				t.Fatalf("applied = %v, want hand-off to emily", rec.applied)
			}
			if owners := e.Owners(); owners["stereo"] != "emily-stereo" {
				t.Fatalf("owners = %v, want emily-stereo", owners)
			}

			// Both stay in the room. After the arrival TTL lapses the
			// contextual order stops applying and the stereo returns to Tom
			// (registration order breaks the tie) — no sensor changed at all.
			clock.advance(45 * time.Minute)
			e.Tick()
			if rec.last() != "stereo <- play with volume=5" {
				t.Fatalf("applied = %v, want hand-back to tom after TTL", rec.applied)
			}
			if rec.count() != 3 {
				t.Fatalf("applied = %v, want exactly 3 hand-offs", rec.applied)
			}
		})
	}
}

// TestEngineConcurrentStimuli interleaves HandleDeviceEvent, Tick,
// SetFavorites/SetUsers, rule churn and snapshot reads from many goroutines.
// Run under -race; the assertions only require the engine to stay coherent.
func TestEngineConcurrentStimuli(t *testing.T) {
	db := registry.New()
	tbl := conflict.NewTable()
	clock := &fakeClock{now: time.Date(2005, 3, 7, 18, 0, 0, 0, time.UTC)}
	e := New(db, tbl, clock.Now, dispatchEach(func(core.DeviceRef, core.Action) error { return nil }),
		WithEventTTL(time.Hour), WithOnFire(func(Fired) {}))

	for i := 0; i < 50; i++ {
		rule := core.NewRule(fmt.Sprintf("r%d", i), fmt.Sprintf("user%d", i%3),
			core.DeviceRef{Name: fmt.Sprintf("dev%d", i%10)},
			core.Action{Verb: "turn-on"},
			&core.Or{Terms: []core.Condition{
				&core.Compare{Var: "temperature", Op: simplex.GT, Value: float64(20 + i%15)},
				&core.Presence{Person: "tom", Place: "living room"},
			}})
		if err := db.Add(rule); err != nil {
			t.Fatal(err)
		}
	}
	tbl.Set(conflict.Order{Device: core.DeviceRef{Name: "dev0"}, Users: []string{"user0", "user1", "user2"}})

	const iters = 200
	var wg sync.WaitGroup
	run := func(fn func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				fn(i)
			}
		}()
	}

	run(func(i int) {
		e.HandleDeviceEvent(device.TypeThermometer, "thermometer", "living room",
			map[string]string{"temperature": fmt.Sprintf("%d", 10+i%30)})
	})
	run(func(i int) {
		place := "living room"
		if i%2 == 0 {
			place = ""
		}
		e.HandleDeviceEvent(device.TypePresenceSensor, "presence sensor", "home",
			map[string]string{"presence-tom": place})
	})
	run(func(i int) {
		clock.advance(time.Second)
		e.Tick()
	})
	run(func(i int) {
		e.SetFavorites("emily", []string{"roman holiday"})
		if i%10 == 0 {
			e.SetUsers([]string{"tom", "alan", "emily"})
		}
	})
	run(func(i int) {
		_ = e.Log()
		_ = e.Owners()
		_ = e.Context()
	})
	run(func(i int) {
		id := fmt.Sprintf("churn%d", i)
		if err := db.Add(core.NewRule(id, "tom",
			core.DeviceRef{Name: "lamp"},
			core.Action{Verb: "turn-on"},
			&core.Compare{Var: "temperature", Op: simplex.GT, Value: 15})); err != nil {
			t.Error(err)
			return
		}
		e.Tick()
		if err := db.Remove(id); err != nil {
			t.Error(err)
		}
	})
	wg.Wait()

	// The engine must still evaluate coherently after the storm.
	e.HandleDeviceEvent(device.TypePresenceSensor, "presence sensor", "home",
		map[string]string{"presence-tom": "living room"})
	if owners := e.Owners(); len(owners) == 0 {
		t.Error("no owners after tom present; engine wedged")
	}
}

// TestConcurrentRuleChurnConverges races rule registration, removal and
// re-registration under a small set of reused ids against event passes,
// then checks the interned engine's settled ownership against a full scan
// of the same database. The final sync pass dirties nothing, so a removed
// rule left in a ready list, or a re-registered rule whose readiness was
// never recorded, shows up as an owner the full scan does not have.
func TestConcurrentRuleChurnConverges(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			db := registry.New()
			clock := &fakeClock{now: time.Date(2005, 3, 7, 18, 0, 0, 0, time.UTC)}
			e := New(db, conflict.NewTable(), clock.Now)
			const finalTemp = 25
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < 400; i++ {
					id := fmt.Sprintf("x%d", rng.Intn(6))
					if _, ok := db.Get(id); ok {
						if err := db.Remove(id); err != nil {
							t.Error(err)
							return
						}
						if rng.Intn(2) == 0 {
							continue
						}
					}
					if err := db.Add(core.NewRule(id, "tom",
						core.DeviceRef{Name: fmt.Sprintf("lamp%d", rng.Intn(3))},
						core.Action{Verb: []string{"turn-on", "turn-off"}[rng.Intn(2)]},
						&core.Compare{Var: "temperature", Op: simplex.GT, Value: float64(rng.Intn(40))})); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			go func() {
				defer wg.Done()
				for i := 0; i < 400; i++ {
					temp := 10 + i%30
					if i == 399 {
						temp = finalTemp
					}
					e.HandleDeviceEvent(device.TypeThermometer, "thermometer", "living room",
						map[string]string{"temperature": fmt.Sprint(temp)})
				}
			}()
			wg.Wait()
			e.Tick()

			oracle := New(db, conflict.NewTable(), clock.Now, WithFullScan())
			oracle.HandleDeviceEvent(device.TypeThermometer, "thermometer", "living room",
				map[string]string{"temperature": fmt.Sprint(finalTemp)})
			if got, want := e.Owners(), oracle.Owners(); !reflect.DeepEqual(got, want) {
				t.Fatalf("owners after churn = %v, full scan %v", got, want)
			}
		})
	}
}
