package ingest

import (
	"reflect"
	"testing"

	"repro/internal/alloctest"
)

// TestFillReusesEvent fills one event with a large map-shaped event, then
// with smaller ones: each fill must read back exactly its own fields — an
// empty map, an empty location and keys that are not valid UTF-8 included —
// refilling a warm event must not allocate, and Release must clear it.
func TestFillReusesEvent(t *testing.T) {
	type shape struct {
		deviceType, name, location string
		vars                       map[string]string
	}
	large := shape{"urn:schemas-upnp-org:device:thermometer:1", "thermometer", "living room", map[string]string{
		"temperature":  "31.5",
		"humidity":     "70",
		"presence-tom": "living room",
		"event":        "tom|come home|1",
		"\xff\xfekey":  "value of a key that is not UTF-8",
		"empty":        "",
	}}
	small := shape{"sensor", "s", "", map[string]string{"\x80": "1"}}
	empty := shape{"d", "n", "", map[string]string{}}

	ev := new(Event)
	fill := func(s shape) {
		t.Helper()
		ev.Fill(s.deviceType, s.name, s.location, s.vars)
		if string(ev.DeviceType) != s.deviceType || string(ev.Name) != s.name || string(ev.Location) != s.location {
			t.Fatalf("fields = %q %q %q, want %q %q %q",
				ev.DeviceType, ev.Name, ev.Location, s.deviceType, s.name, s.location)
		}
		got := make(map[string]string, len(ev.Vars))
		for _, v := range ev.Vars {
			got[string(v.Key)] = string(v.Value)
		}
		if len(ev.Vars) != len(s.vars) || !reflect.DeepEqual(got, s.vars) {
			t.Fatalf("vars = %q, want %q", got, s.vars)
		}
		if ev.Sync {
			t.Fatal("Fill left Sync set")
		}
	}

	// A decoded sync event first: Fill must replace every decoded field.
	if err := ev.Decode([]byte(`{"deviceType":"x","name":"y","location":"z","vars":{"a":"b","c":"d"},"sync":true}`)); err != nil {
		t.Fatal(err)
	}
	for _, s := range []shape{large, small, empty, large, empty, small} {
		fill(s)
	}

	if !alloctest.Race { // race instrumentation allocates
		allocs, _ := alloctest.PerCall(100, func() {
			ev.Fill(large.deviceType, large.name, large.location, large.vars)
			ev.Fill(small.deviceType, small.name, small.location, small.vars)
			ev.Fill(empty.deviceType, empty.name, empty.location, empty.vars)
		})
		if allocs != 0 {
			t.Fatalf("refilling a warm event allocated %v allocs/op, want 0", allocs)
		}
	}

	fill(large)
	ev.Release()
	if ev.DeviceType != nil || ev.Name != nil || ev.Location != nil || len(ev.Vars) != 0 ||
		ev.Sync || len(ev.Body) != 0 || len(ev.scratch) != 0 {
		t.Fatalf("released event not cleared: %+v", ev)
	}
	for _, v := range ev.Vars[:cap(ev.Vars)] {
		if v.Key != nil || v.Value != nil {
			t.Fatalf("released event still references a var: %q=%q", v.Key, v.Value)
		}
	}
}
