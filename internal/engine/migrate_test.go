package engine

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/device"
)

// TestExportImportRoundTrip: importing an export onto a fresh engine with
// the same rules and exporting again gives an equal export — numbers,
// booleans, locations (away users are not exported), arrival times, holds
// and the fired log all survive the interned store's rendering.
func TestExportImportRoundTrip(t *testing.T) {
	rules := []struct{ src, id, owner string }{
		{"If tom is in the living room, turn on the floor lamp.", "r1", "tom"},
		{"If alan got home from work, turn on the tv.", "r2", "alan"},
		{"If temperature is higher than 28 degrees, turn on the air conditioner with 25 degrees of temperature setting.", "r3", "tom"},
	}
	newEngine := func() (*Engine, *fakeClock) {
		e, db, _, _, clock := testEngine(t)
		for _, r := range rules {
			if err := db.Add(compileRule(t, r.src, r.id, r.owner)); err != nil {
				t.Fatal(err)
			}
		}
		e.SetUsers([]string{"tom", "alan", "emily"})
		return e, clock
	}

	src, clock := newEngine()
	presence := func(who, where string) {
		src.HandleDeviceEvent(device.TypePresenceSensor, "presence sensor", "home",
			map[string]string{"presence-" + who: where})
	}
	presence("tom", "living room")
	presence("emily", "kitchen")
	presence("emily", "")
	src.HandleDeviceEvent(device.TypePresenceSensor, "presence sensor", "home",
		map[string]string{"event": "alan|home-from-work|1"})
	clock.advance(time.Minute)
	src.HandleDeviceEvent(device.TypeThermometer, "thermometer", "living room",
		map[string]string{"temperature": "30"})
	src.HandleDeviceEvent(device.TypeTV, "tv", "living room",
		map[string]string{"power": "true"})

	exp := src.ExportState()
	if len(exp.Numbers) == 0 || len(exp.Bools) == 0 || len(exp.Events) == 0 || len(exp.Log) == 0 {
		t.Fatalf("export is missing state the stimulus wrote: %+v", exp)
	}
	if want := map[string]string{"tom": "living room"}; !reflect.DeepEqual(exp.Locations, want) {
		t.Fatalf("exported locations = %v, want %v (away users are not exported)", exp.Locations, want)
	}

	dst, dstClock := newEngine()
	dstClock.advance(time.Minute)
	dst.SetQuiet(true)
	dst.ImportState(exp)
	dst.SetQuiet(false)
	if again := dst.ExportState(); !reflect.DeepEqual(again, exp) {
		t.Fatalf("round trip changed the export:\n got %+v\nwant %+v", again, exp)
	}
}
