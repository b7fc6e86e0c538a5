package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/registry"
)

// populate fills a hub with a few homes' worth of durable state: users,
// favourites, user-defined words, rules (including one that uses a word),
// removals and priority orders.
func populate(t *testing.T, h *Hub) {
	t.Helper()
	for _, home := range []string{"alpha", "beta", "gamma"} {
		if err := h.RegisterUser(home, "tom"); err != nil {
			t.Fatal(err)
		}
		if err := h.RegisterUser(home, "emily", "roman holiday"); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Submit(home, "Let's call the condition that humidity is higher than 65 % "+
			"and temperature is higher than 28 degrees hot and stuffy", "tom"); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Submit(home, "If hot and stuffy, turn on the air conditioner "+
			"with 25 degrees of temperature setting.", "tom"); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Submit(home, "Turn on the light at the hall.", "emily"); err != nil {
			t.Fatal(err)
		}
		if err := h.SetPriority(home, core.DeviceRef{Name: "air conditioner"},
			[]string{"emily", "tom"}, ""); err != nil {
			t.Fatal(err)
		}
	}
	// Divergence between homes: beta loses emily's rule.
	if err := h.RemoveRule("beta", "emily-2"); err != nil {
		t.Fatal(err)
	}
}

// verifyRehydrated asserts the state written by populate, and that the
// revived homes still compile against their word definitions and evaluate.
func verifyRehydrated(t *testing.T, h *Hub) {
	t.Helper()
	for _, home := range []string{"alpha", "beta", "gamma"} {
		users, err := h.Users(home)
		if err != nil {
			t.Fatal(err)
		}
		if len(users) != 2 {
			t.Fatalf("%s: users = %v", home, users)
		}
		rules, err := h.Rules(home)
		if err != nil {
			t.Fatal(err)
		}
		want := 2
		if home == "beta" {
			want = 1
		}
		if len(rules) != want {
			t.Fatalf("%s: rules = %d, want %d", home, len(rules), want)
		}
		if rules[0].ID != "tom-1" {
			t.Fatalf("%s: rule id = %q, want preserved id tom-1", home, rules[0].ID)
		}
		orders, err := h.PriorityOrders(home, core.DeviceRef{Name: "air conditioner"})
		if err != nil {
			t.Fatal(err)
		}
		if len(orders) != 1 || orders[0].Users[0] != "emily" {
			t.Fatalf("%s: orders = %v", home, orders)
		}
		// The rehydrated word still parses in new submissions.
		if _, err := h.Submit(home, "If hot and stuffy, turn on the fan.", "tom"); err != nil {
			t.Fatalf("%s: resubmit with rehydrated word: %v", home, err)
		}
		// And the rehydrated rule still fires.
		if err := h.PostEventSync(home, device.TypeThermometer, "thermometer", "living room",
			map[string]string{"temperature": "31", "humidity": "70"}); err != nil {
			t.Fatal(err)
		}
		log, err := h.Log(home)
		if err != nil {
			t.Fatal(err)
		}
		if len(log) == 0 {
			t.Fatalf("%s: rehydrated rule did not fire", home)
		}
	}
}

// TestHubRestartRehydratesFromFileStore is the ISSUE's acceptance test: a
// hub restarted over the same file-backed store rehydrates every home's
// rules (plus users, words and priorities), with rule ids preserved.
func TestHubRestartRehydratesFromFileStore(t *testing.T) {
	dir := t.TempDir()
	open := func() *Hub {
		st, err := OpenFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		h, err := NewHub(WithShards(2), WithClock(testClock()), WithStore(st))
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	h1 := open()
	populate(t, h1)
	if err := h1.Close(); err != nil {
		t.Fatal(err)
	}

	h2 := open()
	defer func() { _ = h2.Close() }()
	verifyRehydrated(t, h2)
}

// TestHubCompactSnapshotsAndTruncates checks snapshot/replay: after Compact
// the WAL is empty, the snapshot carries the whole state, and a third
// restart still rehydrates.
func TestHubCompactSnapshotsAndTruncates(t *testing.T) {
	dir := t.TempDir()
	open := func() *Hub {
		st, err := OpenFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		h, err := NewHub(WithShards(2), WithClock(testClock()), WithStore(st))
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	h1 := open()
	populate(t, h1)
	if err := h1.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := h1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, walName(0))); !os.IsNotExist(err) {
		t.Fatalf("epoch-0 wal still present after compact (err=%v)", err)
	}
	wal, err := os.Stat(filepath.Join(dir, walName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if wal.Size() != 0 {
		t.Fatalf("epoch-1 wal size after compact = %d, want 0", wal.Size())
	}
	snap, err := os.Stat(filepath.Join(dir, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Size() == 0 {
		t.Fatal("snapshot is empty")
	}
	// Crash-consistency: even if the retired WAL had survived the crash (the
	// rename landed but the delete did not), replay must ignore it — the
	// snapshot names the new epoch.
	if err := os.WriteFile(filepath.Join(dir, walName(0)),
		[]byte(`{"home":"alpha","kind":"user","user":"tom"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	h2 := open()
	defer func() { _ = h2.Close() }()
	verifyRehydrated(t, h2)
}

// TestReplayToleratesTornWALTail checks crash recovery: appends are not
// fsynced, so a crash can leave a half-written final WAL line. Replay must
// apply every complete record and skip the torn tail instead of refusing to
// start the hub.
func TestReplayToleratesTornWALTail(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	h1, err := NewHub(WithShards(1), WithClock(testClock()), WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	if err := h1.RegisterUser("home", "tom"); err != nil {
		t.Fatal(err)
	}
	if _, err := h1.Submit("home", hotRule, "tom"); err != nil {
		t.Fatal(err)
	}
	if err := h1.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: a truncated record at the end of the WAL.
	wal, err := os.OpenFile(filepath.Join(dir, walName(0)), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wal.WriteString(`{"home":"home","kind":"rule","id":"tom-9","ow`); err != nil {
		t.Fatal(err)
	}
	_ = wal.Close()

	st2, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := NewHub(WithShards(1), WithClock(testClock()), WithStore(st2))
	if err != nil {
		t.Fatalf("restart over torn WAL failed: %v", err)
	}
	defer func() { _ = h2.Close() }()
	rules, err := h2.Rules("home")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 1 || rules[0].ID != "tom-1" {
		t.Fatalf("rehydrated rules = %v, want the one complete record", rules)
	}
	// Direct torn-tail replay still succeeds at the file level.
	if err := replayFile(filepath.Join(dir, walName(0)), func(Record) error { return nil }, true); err != nil {
		t.Fatalf("torn tail replay: %v", err)
	}
}

// TestConcurrentCompact hammers Compact from several goroutines; without
// serialization two compactors' pause tasks can interleave across shards and
// deadlock the whole hub.
func TestConcurrentCompact(t *testing.T) {
	st := NewMemStore()
	h, err := NewHub(WithShards(4), WithClock(testClock()), WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = h.Close() }()
	if err := h.RegisterUser("home", "tom"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() { done <- h.Compact() }()
	}
	timeout := time.After(30 * time.Second)
	for i := 0; i < 8; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-timeout:
			t.Fatal("concurrent Compact deadlocked")
		}
	}
	if _, err := h.Users("home"); err != nil {
		t.Fatalf("hub unusable after concurrent compacts: %v", err)
	}
}

// failingStore wraps MemStore and fails Append on demand: once fail is
// set, the next after appends still succeed and every later one fails.
type failingStore struct {
	*MemStore
	fail  bool
	after int
}

func (f *failingStore) Append(rec Record) error {
	if f.fail {
		if f.after == 0 {
			return os.ErrClosed
		}
		f.after--
	}
	return f.MemStore.Append(rec)
}

// floorLamp is the device the write-path tests contest.
var floorLamp = core.DeviceRef{Name: "floor lamp"}

// homeState is what a write whose append fails must leave as it was.
type homeState struct {
	records []Record // users with favourites, words, rules, priority orders
	rules   []string // rule ids in registration order
	owners  map[string]string
	log     []string
	users   []string
	orders  string // the floor lamp's priority orders
}

func readHomeState(t *testing.T, h *Hub, home string) homeState {
	t.Helper()
	var st homeState
	if err := h.do(home, func(hm *Home) error {
		st.records = hm.snapshotRecords()
		for _, r := range hm.Rules() {
			st.rules = append(st.rules, r.ID)
		}
		st.owners = hm.Owners()
		for _, f := range hm.Log() {
			st.log = append(st.log, f.String())
		}
		st.users = hm.Users()
		st.orders = fmt.Sprint(hm.PriorityOrders(floorLamp))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestAppendFailureRollsBack runs every hub write against a store whose
// append fails. Each must return the store error, dispatch nothing and
// leave the home as it was, and once the store recovers, a hub rehydrated
// from it must hold the live hub's rules, in order, and owners.
func TestAppendFailureRollsBack(t *testing.T) {
	cases := []struct {
		name  string
		write func(h *Hub) error
	}{
		{"RegisterUser with favourites", func(h *Hub) error {
			return h.RegisterUser("home", "alan", "roman holiday")
		}},
		{"SetFavorites", func(h *Hub) error {
			return h.SetFavorites("home", "tom", []string{"jazz"})
		}},
		{"Submit of a rule whose condition holds", func(h *Hub) error {
			_, err := h.Submit("home", "Turn on the light at the hall.", "emily")
			return err
		}},
		{"Submit of a condition word", func(h *Hub) error {
			_, err := h.Submit("home", "Let's call the condition that humidity is higher than 65 % "+
				"and temperature is higher than 28 degrees hot and stuffy", "tom")
			return err
		}},
		{"Submit of a configuration word", func(h *Hub) error {
			_, err := h.Submit("home", "Let's call the configuration that 50 percent of brightness setting half-lighting", "tom")
			return err
		}},
		{"RemoveRule of a contested device's owner", func(h *Hub) error {
			return h.RemoveRule("home", "tom-1")
		}},
		{"SetPriority", func(h *Hub) error {
			return h.SetPriority("home", floorLamp, []string{"emily", "tom"}, "")
		}},
		{"ImportRules", func(h *Hub) error {
			_, err := h.ImportRules("home", []byte(`{"rules":[{"id":"emily-9","owner":"emily",`+
				`"source":"Turn on the light at the hall."}]}`))
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := &failingStore{MemStore: NewMemStore()}
			var dispatched atomic.Int64
			h, err := NewHub(WithShards(1), WithClock(testClock()), WithStore(st),
				WithDispatcher(func(string, core.DeviceRef, core.Action) error {
					dispatched.Add(1)
					return nil
				}))
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = h.Close() }()
			// tom-1 and emily-2 contend for the floor lamp; tom-1, the
			// earlier rule, owns it.
			for _, u := range []string{"tom", "emily"} {
				if err := h.RegisterUser("home", u); err != nil {
					t.Fatal(err)
				}
			}
			for _, w := range []struct{ owner, source string }{
				{"tom", "Turn on the floor lamp."},
				{"emily", "Turn on the floor lamp with half-lighting."},
			} {
				if _, err := h.Submit("home", w.source, w.owner); err != nil {
					t.Fatal(err)
				}
			}
			before := readHomeState(t, h, "home")
			if owner := before.owners[floorLamp.Key()]; owner != "tom-1" {
				t.Fatalf("floor lamp owner = %q, want tom-1 (owners %v)", owner, before.owners)
			}
			calls := dispatched.Load()

			st.fail = true
			if err := tc.write(h); !errors.Is(err, os.ErrClosed) {
				t.Fatalf("write with failing store = %v, want the store error", err)
			}
			if n := dispatched.Load(); n != calls {
				t.Errorf("dispatcher called %d times during the failed write, want 0", n-calls)
			}
			if after := readHomeState(t, h, "home"); !reflect.DeepEqual(after, before) {
				t.Errorf("failed write changed the home:\nbefore %+v\nafter  %+v", before, after)
			}

			// Once the store recovers, the journal holds what memory holds,
			// before and after the same write succeeds.
			st.fail = false
			checkRehydrates(t, h, st.MemStore)
			if err := tc.write(h); err != nil {
				t.Fatalf("write after the store recovered: %v", err)
			}
			checkRehydrates(t, h, st.MemStore)
		})
	}
}

// checkRehydrates compares a live hub's home with one a new hub rehydrates
// from the same store: the same records, the same rules in the same order,
// and the same owners after a Tick.
func checkRehydrates(t *testing.T, live *Hub, st Store) {
	t.Helper()
	rehydrated, err := NewHub(WithShards(1), WithClock(testClock()), WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = rehydrated.Close() }()
	for _, h := range []*Hub{live, rehydrated} {
		if err := h.Tick("home"); err != nil {
			t.Fatal(err)
		}
	}
	a, b := readHomeState(t, live, "home"), readHomeState(t, rehydrated, "home")
	if !reflect.DeepEqual(a.rules, b.rules) || !reflect.DeepEqual(a.owners, b.owners) ||
		!reflect.DeepEqual(a.records, b.records) {
		t.Errorf("rehydrated hub differs from the live one:\nlive       rules %v owners %v\nrehydrated rules %v owners %v",
			a.rules, a.owners, b.rules, b.owners)
	}
}

// TestImportRulesRunsSubmitChecks checks that ImportRules holds an
// imported rule to the checks Submit holds a submitted one to, and journals
// each rule before it registers it.
func TestImportRulesRunsSubmitChecks(t *testing.T) {
	doc := func(owner string, sources ...string) []byte {
		t.Helper()
		var recs []registry.Record
		for i, src := range sources {
			recs = append(recs, registry.Record{ID: fmt.Sprintf("%s-%d", owner, i+1), Owner: owner, Source: src})
		}
		data, err := json.Marshal(map[string]any{"rules": recs})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	lamp := "Turn on the floor lamp."

	t.Run("forbidden", func(t *testing.T) {
		h := newTestHub(t, WithShards(1), WithAuthorizer(func(string, string, core.DeviceRef, string) bool { return false }))
		if err := h.RegisterUser("home", "tom"); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Submit("home", lamp, "tom"); !errors.Is(err, ErrForbidden) {
			t.Fatalf("Submit = %v, want ErrForbidden", err)
		}
		n, err := h.ImportRules("home", doc("tom", lamp))
		if n != 0 || !errors.Is(err, ErrForbidden) {
			t.Fatalf("ImportRules = %d, %v; want 0, ErrForbidden", n, err)
		}
		if rules, _ := h.Rules("home"); len(rules) != 0 {
			t.Fatalf("forbidden import registered %d rules", len(rules))
		}
	})

	t.Run("unknown owner", func(t *testing.T) {
		h := newTestHub(t, WithShards(1))
		if err := h.RegisterUser("home", "tom"); err != nil {
			t.Fatal(err)
		}
		n, err := h.ImportRules("home", doc("nobody", lamp))
		if n != 0 || !errors.Is(err, ErrUnknownUser) {
			t.Fatalf("ImportRules = %d, %v; want 0, ErrUnknownUser", n, err)
		}
	})

	// A rule that fails a check stops the import: the rules before it stay,
	// journaled, and the refused rule leaves no rule and no record.
	for _, tc := range []struct {
		name string
		bad  registry.Record
	}{
		{"source is not CADEL", registry.Record{ID: "tom-8", Owner: "tom", Source: "gibberish"}},
		{"source is not a rule", registry.Record{ID: "tom-8", Owner: "tom",
			Source: "Let's call the configuration that 50 percent of brightness setting half-lighting"}},
		{"no id", registry.Record{Owner: "tom", Source: "Turn on the light at the hall."}},
		{"id already live", registry.Record{ID: "tom-1", Owner: "tom", Source: "Turn on the light at the hall."}},
		{"id earlier in the document", registry.Record{ID: "tom-7", Owner: "tom", Source: "Turn on the light at the hall."}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := NewMemStore()
			h, err := NewHub(WithShards(1), WithClock(testClock()), WithStore(st))
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = h.Close() }()
			if err := h.RegisterUser("home", "tom"); err != nil {
				t.Fatal(err)
			}
			if _, err := h.Submit("home", lamp, "tom"); err != nil {
				t.Fatal(err)
			}
			before := journaled(t, st)
			data, err := json.Marshal(map[string]any{"rules": []registry.Record{
				{ID: "tom-7", Owner: "tom", Source: hotRule}, tc.bad,
			}})
			if err != nil {
				t.Fatal(err)
			}
			n, err := h.ImportRules("home", data)
			if n != 1 || err == nil {
				t.Fatalf("ImportRules = %d, %v; want 1 and an error", n, err)
			}
			want := []string{"tom-1", "tom-7"}
			if got := readHomeState(t, h, "home").rules; !reflect.DeepEqual(got, want) {
				t.Fatalf("rules = %v, want %v", got, want)
			}
			if got := journaled(t, st); got != before+1 {
				t.Fatalf("import journaled %d records, want 1", got-before)
			}
		})
	}

	t.Run("append fails on the third rule", func(t *testing.T) {
		st := &failingStore{MemStore: NewMemStore()}
		h, err := NewHub(WithShards(1), WithClock(testClock()), WithStore(st))
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = h.Close() }()
		if err := h.RegisterUser("home", "tom"); err != nil {
			t.Fatal(err)
		}
		st.fail, st.after = true, 2
		n, err := h.ImportRules("home", doc("tom", lamp, hotRule, "Turn on the light at the hall."))
		if n != 2 || !errors.Is(err, os.ErrClosed) {
			t.Fatalf("ImportRules = %d, %v; want 2, the store error", n, err)
		}
		st.fail = false
		want := []string{"tom-1", "tom-2"}
		if got := readHomeState(t, h, "home").rules; !reflect.DeepEqual(got, want) {
			t.Fatalf("live rules = %v, want %v", got, want)
		}
		restarted, err := NewHub(WithShards(1), WithClock(testClock()), WithStore(st.MemStore))
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = restarted.Close() }()
		if got := readHomeState(t, restarted, "home").rules; !reflect.DeepEqual(got, want) {
			t.Fatalf("restarted rules = %v, want %v", got, want)
		}
	})
}

// journaled counts the records a store replays.
func journaled(t *testing.T, st Store) int {
	t.Helper()
	n := 0
	if err := st.Replay(func(Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestImportRulesRunsOnePass checks that an import runs one engine pass
// after its rules, as if the document had arrived at once: of two imported
// rules contending for a device, only the one the priority order favours
// fires, although the other comes first in the document.
func TestImportRulesRunsOnePass(t *testing.T) {
	var dispatched atomic.Int64
	h := newTestHub(t, WithShards(1), WithDispatcher(func(string, core.DeviceRef, core.Action) error {
		dispatched.Add(1)
		return nil
	}))
	for _, u := range []string{"tom", "emily"} {
		if err := h.RegisterUser("home", u); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.SetPriority("home", floorLamp, []string{"emily", "tom"}, ""); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(map[string]any{"rules": []registry.Record{
		{ID: "tom-1", Owner: "tom", Source: "Turn on the floor lamp."},
		{ID: "emily-2", Owner: "emily", Source: "Turn on the floor lamp with half-lighting."},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := h.ImportRules("home", data); n != 2 || err != nil {
		t.Fatalf("ImportRules = %d, %v; want 2, nil", n, err)
	}
	st := readHomeState(t, h, "home")
	if owner := st.owners[floorLamp.Key()]; owner != "emily-2" || dispatched.Load() != 1 {
		t.Fatalf("floor lamp owner %q after %d dispatches (log %v), want emily-2 after 1",
			owner, dispatched.Load(), st.log)
	}
}

// TestReadsDoNotCreateHomes checks that probing unknown home ids through
// read-only operations returns empty results without growing the fleet.
func TestReadsDoNotCreateHomes(t *testing.T) {
	h, err := NewHub(WithShards(2), WithClock(testClock()))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = h.Close() }()
	for i := 0; i < 10; i++ {
		home := fmt.Sprintf("probe-%d", i)
		if users, err := h.Users(home); err != nil || len(users) != 0 {
			t.Fatalf("Users(%s) = %v, %v", home, users, err)
		}
		if rules, err := h.Rules(home); err != nil || len(rules) != 0 {
			t.Fatalf("Rules(%s) = %v, %v", home, rules, err)
		}
		if log, err := h.Log(home); err != nil || len(log) != 0 {
			t.Fatalf("Log(%s) = %v, %v", home, log, err)
		}
		if err := h.RemoveRule(home, "x"); err == nil {
			t.Fatalf("RemoveRule on unknown home must error")
		}
		if err := h.Tick(home); err != nil {
			t.Fatal(err)
		}
	}
	st, err := h.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Homes != 0 {
		t.Fatalf("read probes materialized %d homes", st.Homes)
	}
}

// TestFailedWritesDoNotCreateHomes sends refused writes to unused home ids:
// a Submit by a user the home does not have, an ImportRules whose owner is
// not registered and a SetPriority whose context does not parse. None may
// leave a home behind, while a write that succeeds still creates one.
func TestFailedWritesDoNotCreateHomes(t *testing.T) {
	src := newTestHub(t)
	seedHome(t, src, "source")
	export, err := src.ExportRules("source")
	if err != nil {
		t.Fatal(err)
	}
	h := newTestHub(t, WithShards(2))
	if _, err := h.Submit("ghost-submit", hotRule, "nobody"); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("Submit by an unknown user: %v, want ErrUnknownUser", err)
	}
	if n, err := h.ImportRules("ghost-import", export); n != 0 || !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("ImportRules with an unregistered owner: %d, %v, want 0, ErrUnknownUser", n, err)
	}
	if err := h.SetPriority("ghost-priority", core.DeviceRef{Name: "tv"}, []string{"tom"}, "blah blah blah"); err == nil {
		t.Fatal("SetPriority with an unparsable context succeeded")
	}
	homes := func() int {
		t.Helper()
		st, err := h.Stats()
		if err != nil {
			t.Fatal(err)
		}
		return st.Homes
	}
	if n := homes(); n != 0 {
		t.Fatalf("failed writes left %d homes, want 0", n)
	}
	if err := h.RegisterUser("ghost-submit", "tom"); err != nil {
		t.Fatal(err)
	}
	if n := homes(); n != 1 {
		t.Fatalf("a committed write left %d homes, want 1", n)
	}
}

// TestRuleIDsNotReusedAfterRestart removes a rule and restarts the hub over
// the same store: the next rule must get the id the live hub would have
// given it, not the removed rule's.
func TestRuleIDsNotReusedAfterRestart(t *testing.T) {
	st := NewMemStore()
	h1 := newTestHub(t, WithShards(1), WithStore(st))
	for _, u := range []string{"tom", "emily"} {
		if err := h1.RegisterUser("home", u); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range []struct{ owner, want string }{{"tom", "tom-1"}, {"emily", "emily-2"}} {
		res, err := h1.Submit("home", hotRule, w.owner)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rule.ID != w.want {
			t.Fatalf("rule id %q, want %q", res.Rule.ID, w.want)
		}
	}
	if err := h1.RemoveRule("home", "tom-1"); err != nil {
		t.Fatal(err)
	}
	if err := h1.Close(); err != nil {
		t.Fatal(err)
	}
	h2 := newTestHub(t, WithShards(1), WithStore(st))
	res, err := h2.Submit("home", hotRule, "tom")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rule.ID != "tom-3" {
		t.Fatalf("first rule after the restart got id %q, want tom-3", res.Rule.ID)
	}
}

// TestMemStoreRoundTrip exercises the in-memory store through the same
// hub lifecycle (minus process restarts).
func TestMemStoreRoundTrip(t *testing.T) {
	st := NewMemStore()
	h1, err := NewHub(WithShards(2), WithClock(testClock()), WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	populate(t, h1)
	if err := h1.Close(); err != nil {
		t.Fatal(err)
	}

	h2, err := NewHub(WithShards(3), WithClock(testClock()), WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = h2.Close() }()
	verifyRehydrated(t, h2)
}
