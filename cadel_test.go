package cadel

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/auth"
	"repro/internal/device"
	"repro/internal/home"
)

const settle = 3 * time.Second

// waitFor polls until cond holds or the deadline passes; UPnP events travel
// over real loopback HTTP, so state changes are asynchronous.
func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(settle)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", msg)
}

// newHomeServer builds a simulated home plus a server discovered onto it.
func newHomeServer(t *testing.T, opts ...Option) (*home.Home, *Server) {
	t.Helper()
	network := NewNetwork()
	hm, err := home.New(network, home.DefaultConfig())
	if err != nil {
		t.Fatalf("home.New: %v", err)
	}
	t.Cleanup(func() { _ = hm.Close() })
	opts = append([]Option{WithClock(hm.Clock.Now), WithEventTTL(6 * time.Hour)}, opts...)
	srv, err := NewServer(network, opts...)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	for _, u := range []string{"tom", "alan"} {
		if err := srv.RegisterUser(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.RegisterUser("emily", "roman holiday"); err != nil {
		t.Fatal(err)
	}
	if n, err := srv.DiscoverDevices(700 * time.Millisecond); err != nil {
		t.Fatalf("discover: %v", err)
	} else if n < 20 {
		t.Fatalf("discovered %d devices, want 20", n)
	}
	return hm, srv
}

// applianceState reads an appliance variable as a string.
func applianceState(t *testing.T, hm *home.Home, room, name, svc, varName string) func() string {
	t.Helper()
	unit, ok := hm.Appliance(room, name)
	if !ok {
		t.Fatalf("appliance %s/%s missing", room, name)
	}
	return func() string {
		v, err := unit.Get(svc, varName)
		if err != nil {
			t.Fatalf("get %s/%s: %v", name, varName, err)
		}
		return v
	}
}

func TestRegisterUserValidation(t *testing.T) {
	srv, err := NewServer(NewNetwork())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	if err := srv.RegisterUser(""); err == nil {
		t.Error("empty user should fail")
	}
	if err := srv.RegisterUser("tom"); err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterUser("Tom"); err == nil {
		t.Error("duplicate user should fail")
	}
	if got := srv.Users(); len(got) != 1 || got[0] != "tom" {
		t.Errorf("users = %v", got)
	}
}

func TestSubmitRequiresKnownUser(t *testing.T) {
	srv, err := NewServer(NewNetwork())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	_, err = srv.Submit("Turn on the tv.", "stranger")
	if !errors.Is(err, ErrUnknownUser) {
		t.Errorf("error = %v, want ErrUnknownUser", err)
	}
}

func TestSubmitWordDefinitions(t *testing.T) {
	srv, err := NewServer(NewNetwork())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	if err := srv.RegisterUser("tom"); err != nil {
		t.Fatal(err)
	}

	res, err := srv.Submit("Let's call the condition that humidity is higher than 65 % "+
		"and temperature is higher than 26 degrees hot and stuffy", "tom")
	if err != nil {
		t.Fatalf("CondDef: %v", err)
	}
	if res.DefinedWord != "hot and stuffy" || res.Rule != nil {
		t.Errorf("result = %+v", res)
	}

	res, err = srv.Submit("Let's call the configuration that 50 percent of brightness setting half-lighting", "tom")
	if err != nil {
		t.Fatalf("ConfDef: %v", err)
	}
	if res.DefinedWord != "half-lighting" {
		t.Errorf("result = %+v", res)
	}

	// The new words are immediately usable in a rule.
	ruleRes, err := srv.Submit(
		"If hot and stuffy, turn on the floor lamp with half-lighting.", "tom")
	if err != nil {
		t.Fatalf("rule using words: %v", err)
	}
	if ruleRes.Rule == nil {
		t.Fatal("no rule registered")
	}
	if v := ruleRes.Rule.Action.Settings["brightness"]; v.Number != 50 {
		t.Errorf("expanded brightness = %+v", v)
	}

	// Redefinition is rejected.
	if _, err := srv.Submit("Let's call the condition that temperature is higher than 1 degrees hot and stuffy", "tom"); err == nil {
		t.Error("duplicate word should fail")
	}
}

func TestSubmitInconsistentRuleRejected(t *testing.T) {
	srv, err := NewServer(NewNetwork())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	if err := srv.RegisterUser("tom"); err != nil {
		t.Fatal(err)
	}
	_, err = srv.Submit(
		"If temperature is higher than 30 degrees and temperature is lower than 20 degrees, turn on the fan.", "tom")
	if !errors.Is(err, ErrInconsistent) {
		t.Errorf("error = %v, want ErrInconsistent", err)
	}
	if len(srv.Rules()) != 0 {
		t.Error("inconsistent rule must not be registered")
	}
}

func TestSubmitDetectsConflictAndPriorityResolves(t *testing.T) {
	srv, err := NewServer(NewNetwork())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	for _, u := range []string{"tom", "alan"} {
		if err := srv.RegisterUser(u); err != nil {
			t.Fatal(err)
		}
	}
	res1, err := srv.Submit(
		"If temperature is higher than 26 degrees, turn on the air conditioner with 25 degrees of temperature setting.", "tom")
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Conflicts) != 0 {
		t.Errorf("first rule conflicts = %v", res1.Conflicts)
	}
	res2, err := srv.Submit(
		"If temperature is higher than 25 degrees, turn on the air conditioner with 24 degrees of temperature setting.", "alan")
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Conflicts) != 1 {
		t.Fatalf("conflicts = %v, want 1", res2.Conflicts)
	}
	if res2.Conflicts[0].Existing.Owner != "tom" {
		t.Errorf("conflicting owner = %s", res2.Conflicts[0].Existing.Owner)
	}
	// Both rules are registered (the paper registers and asks for a
	// priority order).
	if len(srv.Rules()) != 2 {
		t.Errorf("rules = %d, want 2", len(srv.Rules()))
	}
	if err := srv.SetPriority(DeviceRef{Name: "air conditioner"}, []string{"alan", "tom"}, ""); err != nil {
		t.Fatal(err)
	}
	orders := srv.PriorityOrders(DeviceRef{Name: "air conditioner"})
	if len(orders) != 1 || orders[0].Users[0] != "alan" {
		t.Errorf("orders = %v", orders)
	}
	// A contextual priority parses its CADEL context.
	if err := srv.SetPriority(DeviceRef{Name: "air conditioner"},
		[]string{"tom", "alan"}, "alan got home from work"); err != nil {
		t.Fatal(err)
	}
	if orders := srv.PriorityOrders(DeviceRef{Name: "air conditioner"}); len(orders) != 2 {
		t.Errorf("orders = %v", orders)
	}
	if err := srv.SetPriority(DeviceRef{Name: "tv"}, []string{"tom"}, "gibberish blargh"); err == nil {
		t.Error("unparseable context should fail")
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	srv, err := NewServer(NewNetwork())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	if err := srv.RegisterUser("tom"); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit("At night, if entrance door is unlocked for 1 hour, turn on the alarm.", "tom"); err != nil {
		t.Fatal(err)
	}
	data, err := srv.ExportRules()
	if err != nil {
		t.Fatal(err)
	}

	srv2, err := NewServer(NewNetwork())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv2.Close() }()
	if err := srv2.RegisterUser("tom"); err != nil {
		t.Fatal(err)
	}
	n, err := srv2.ImportRules(data)
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	if n != 1 || len(srv2.Rules()) != 1 {
		t.Errorf("imported %d rules", n)
	}
}

func TestLookupOverDiscoveredDevices(t *testing.T) {
	_, srv := newHomeServer(t)
	// Fig. 5: retrieval by sensor type "temperature" finds the thermometer
	// and the air conditioner.
	found := srv.Find(Query{SensorType: "temperature"})
	names := make([]string, len(found))
	for i, d := range found {
		names[i] = d.FriendlyName
	}
	joined := strings.Join(names, ",")
	if !strings.Contains(joined, "thermometer") || !strings.Contains(joined, "air conditioner") {
		t.Errorf("temperature devices = %s", joined)
	}
	// Define a word, then retrieve sensors by it (Fig. 5) and words by
	// device (reverse).
	if _, err := srv.Submit("Let's call the condition that humidity is higher than 65 % "+
		"and temperature is higher than 26 degrees hot and stuffy", "tom"); err != nil {
		t.Fatal(err)
	}
	byWord := srv.Find(Query{Word: "hot and stuffy", Location: "living room"})
	wordNames := make([]string, len(byWord))
	for i, d := range byWord {
		wordNames[i] = d.FriendlyName
	}
	got := strings.Join(wordNames, ",")
	if !strings.Contains(got, "thermometer") || !strings.Contains(got, "hygrometer") {
		t.Errorf("hot-and-stuffy devices = %s", got)
	}
	th := byWord[len(byWord)-1] // thermometer (sorted)
	if words := srv.WordsFor(th); len(words) != 1 || words[0] != "hot and stuffy" {
		t.Errorf("WordsFor = %v", words)
	}
	// Fig. 6: allowed actions of the TV.
	tv, err := srv.FindDevice("tv", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	verbs := strings.Join(srv.AllowedVerbs(tv), ",")
	if !strings.Contains(verbs, "turn-on") || !strings.Contains(verbs, "play") {
		t.Errorf("tv verbs = %s", verbs)
	}
}

// TestPaperRule2EndToEnd runs example rule (2): "After evening, if someone
// returns home and the hall is dark, turn on the light at the hall."
func TestPaperRule2EndToEnd(t *testing.T) {
	hm, srv := newHomeServer(t)
	if _, err := srv.Submit(
		"After evening, if someone returns home and the hall is dark, turn on the light at the hall.", "tom"); err != nil {
		t.Fatal(err)
	}
	hallLight := applianceState(t, hm, "hall", "light", device.SvcSwitchPower, "power")
	if hallLight() != "0" {
		t.Fatal("hall light should start off")
	}
	// 17:00 is after evening start; the hall is dark by default config.
	if err := hm.Arrive("tom", "hall", "return-home"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return hallLight() == "1" }, "hall light on after arrival")
}

// TestPaperRule3EndToEnd runs example rule (3): "At night, if entrance door
// is unlocked for 1 hour, turn on the alarm."
func TestPaperRule3EndToEnd(t *testing.T) {
	hm, srv := newHomeServer(t)
	if _, err := srv.Submit(
		"At night, if entrance door is unlocked for 1 hour, turn on the alarm.", "tom"); err != nil {
		t.Fatal(err)
	}
	alarm := applianceState(t, hm, "hall", "alarm", device.SvcSwitchPower, "power")
	door, _ := hm.Appliance("entrance", "entrance door")

	// 23:00, door unlocked.
	hm.Clock.Set(time.Date(2005, 3, 7, 23, 0, 0, 0, time.UTC))
	srv.Tick()
	if err := door.Set(device.SvcLock, "locked", "0"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		snap := srv.Snapshot()
		v, ok := snap.Bool("entrance door/locked")
		return ok && !v
	}, "door state to reach the server")

	// 40 minutes: nothing yet.
	hm.Clock.Advance(40 * time.Minute)
	srv.Tick()
	if alarm() != "0" {
		t.Fatal("alarm fired too early")
	}
	// 65 minutes total: alarm.
	hm.Clock.Advance(25 * time.Minute)
	srv.Tick()
	waitFor(t, func() bool { return alarm() == "1" }, "alarm after an hour unlocked at night")
}

// TestFigure1Scenario reproduces the paper's Fig. 1 control scenario end to
// end: Tom's evening jazz, Alan taking the TV when he returns from work,
// Emily taking both TV and stereo when she returns from shopping, the video
// recorder picking up the baseball game, and the air conditioner following
// the highest-priority occupant's comfort band. It runs once on the default
// interned engine and once on the full-scan oracle, which must agree.
func TestFigure1Scenario(t *testing.T) {
	t.Run("interned", func(t *testing.T) { runFigure1Scenario(t) })
	t.Run("fullscan", func(t *testing.T) { runFigure1Scenario(t, WithFullScanEngine()) })
}

func runFigure1Scenario(t *testing.T, opts ...Option) {
	hm, srv := newHomeServer(t, opts...)

	// --- word definitions (each user's comfort band from Sect. 3.1) ---
	words := []struct{ src, owner string }{
		{"Let's call the condition that temperature is higher than 26 degrees and humidity is higher than 65 percent hot and stuffy", "tom"},
		{"Let's call the condition that temperature is higher than 25 degrees and humidity is higher than 60 percent muggy", "alan"},
		{"Let's call the condition that temperature is higher than 29 degrees and humidity is higher than 75 percent sticky", "emily"},
		{"Let's call the configuration that 50 percent of brightness setting half-lighting", "tom"},
	}
	for _, w := range words {
		if _, err := srv.Submit(w.src, w.owner); err != nil {
			t.Fatalf("define %q: %v", w.src, err)
		}
	}

	// --- rules ---
	rules := []struct{ src, owner string }{
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
	var sawConflict bool
	for _, r := range rules {
		res, err := srv.Submit(r.src, r.owner)
		if err != nil {
			t.Fatalf("submit %q: %v", r.src, err)
		}
		if len(res.Conflicts) > 0 {
			sawConflict = true
		}
	}
	if !sawConflict {
		t.Fatal("the Sect. 3.1 rule set must produce conflicts (TV, stereo, air conditioner)")
	}

	// --- priority orders (Sect. 3.1's household policy) ---
	priorities := []struct {
		device  string
		users   []string
		context string
	}{
		{"tv", []string{"alan", "tom", "emily"}, "alan got home from work"},
		{"tv", []string{"emily", "alan", "tom"}, "emily got home from shopping"},
		{"stereo", []string{"emily", "tom", "alan"}, "emily got home from shopping"},
		{"air conditioner", []string{"alan", "tom", "emily"}, "alan got home from work"},
		{"air conditioner", []string{"emily", "alan", "tom"}, "emily got home from shopping"},
	}
	for _, p := range priorities {
		if err := srv.SetPriority(DeviceRef{Name: p.device}, p.users, p.context); err != nil {
			t.Fatalf("priority %s: %v", p.device, err)
		}
	}

	stereoPlaying := applianceState(t, hm, "living room", "stereo", device.SvcPlayback, "playing")
	stereoMode := applianceState(t, hm, "living room", "stereo", device.SvcPlayback, "mode")
	lampPower := applianceState(t, hm, "living room", "floor lamp", device.SvcSwitchPower, "power")
	lampBrightness := applianceState(t, hm, "living room", "floor lamp", device.SvcDimming, "brightness")
	tvPower := applianceState(t, hm, "living room", "tv", device.SvcSwitchPower, "power")
	tvChannel := applianceState(t, hm, "living room", "tv", device.SvcChannel, "channel")
	acPower := applianceState(t, hm, "living room", "air conditioner", device.SvcSwitchPower, "power")
	acTarget := applianceState(t, hm, "living room", "air conditioner", device.SvcThermostat, "target-temperature")
	recRecording := applianceState(t, hm, "living room", "video recorder", device.SvcRecording, "recording")
	fluorescent := applianceState(t, hm, "living room", "fluorescent light", device.SvcSwitchPower, "power")

	// --- 17:00: Tom comes to the living room (Fig. 1 *1) ---
	if err := hm.Arrive("tom", "living room", "return-home"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return stereoPlaying() == "1" && stereoMode() == "jazz" }, "Tom's jazz (s1)")
	waitFor(t, func() bool { return lampPower() == "1" && lampBrightness() == "50" }, "half-lit floor lamp (l1)")

	// The room turns hot and stuffy: Tom's air conditioner rule (a1).
	if err := hm.SetClimate("living room", 27, 66); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return acPower() == "1" && acTarget() == "25" }, "Tom's aircon (a1)")

	// --- 18:00: baseball game on air; Alan returns from work (*2) ---
	hm.Clock.Set(time.Date(2005, 3, 7, 18, 0, 0, 0, time.UTC))
	if err := hm.Step(0); err != nil { // refresh the EPG line-up
		t.Fatal(err)
	}
	if err := hm.Arrive("alan", "living room", "home-from-work"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return tvPower() == "1" && tvChannel() == "1" }, "Alan's game on TV (t2)")
	// Alan outranks Tom on the air conditioner now; the room is muggy for
	// him, so his stricter setting wins (a2).
	waitFor(t, func() bool { return acTarget() == "24" }, "Alan's aircon setting (a2)")

	// --- 19:00: the movie joins the line-up; Emily returns from shopping (*3) ---
	hm.Clock.Set(time.Date(2005, 3, 7, 19, 0, 0, 0, time.UTC))
	if err := hm.Step(0); err != nil {
		t.Fatal(err)
	}
	if err := hm.Arrive("emily", "living room", "home-from-shopping"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return tvChannel() == "3" }, "Emily's movie on TV (t3)")
	waitFor(t, func() bool { return stereoMode() == "movie" }, "movie audio on the stereo (s3)")
	waitFor(t, func() bool { return fluorescent() == "1" }, "bright fluorescent light (l3)")
	waitFor(t, func() bool { return recRecording() == "1" }, "recorder picks up the game (r2)")
	// Emily outranks everyone on the aircon, but the room (27C/66%) is not
	// "sticky" for her (needs >29C/>75%), so her rule is not ready and
	// Alan's setting stays — consistent with arbitration over ready rules.
	if acTarget() != "24" {
		t.Errorf("aircon target = %s, want Alan's 24 (Emily's band not reached)", acTarget())
	}

	// The log records the hand-offs with suppressed losers.
	var sawSuppression bool
	for _, f := range srv.Log() {
		if len(f.Suppressed) > 0 {
			sawSuppression = true
		}
	}
	if !sawSuppression {
		t.Error("no arbitration recorded in the log")
	}
}

func TestPermissionsEnforced(t *testing.T) {
	perms := auth.New(true)
	srv, err := NewServer(NewNetwork(), WithPermissions(perms))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	for _, u := range []string{"tom", "kid"} {
		if err := srv.RegisterUser(u); err != nil {
			t.Fatal(err)
		}
	}
	// The kid may only switch the hall light; everyone else is unrestricted
	// (default-allow, as in the paper's open prototype).
	perms.Allow("kid", DeviceRef{Name: "light", Location: "hall"}, "turn-on", "turn-off")

	if _, err := srv.Submit("Turn on the tv.", "kid"); !errors.Is(err, ErrForbidden) {
		t.Errorf("kid's tv rule error = %v, want ErrForbidden", err)
	}
	if _, err := srv.Submit("Turn on the light at the hall.", "kid"); err != nil {
		t.Errorf("kid's hall light rule rejected: %v", err)
	}
	if _, err := srv.Submit("Turn on the tv.", "tom"); err != nil {
		t.Errorf("tom's tv rule rejected: %v", err)
	}
	if len(srv.Rules()) != 2 {
		t.Errorf("rules = %d, want 2", len(srv.Rules()))
	}
}
