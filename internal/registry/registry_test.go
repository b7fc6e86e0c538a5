package registry

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/simplex"
	"repro/internal/vocab"
)

func simpleRule(id, owner, device string) *core.Rule {
	r := core.NewRule(id, owner, core.DeviceRef{Name: device}, core.Action{Verb: "turn-on"},
		&core.Compare{Var: "temperature", Op: simplex.GT, Value: 28})
	r.Source = "if temperature is higher than 28 degrees, turn on the " + device
	return r
}

func TestAddGetRemove(t *testing.T) {
	db := New()
	r := simpleRule("r1", "tom", "tv")
	if err := db.Add(r); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if r.Seq != 1 {
		t.Errorf("seq = %d, want 1", r.Seq)
	}
	got, ok := db.Get("r1")
	if !ok || got.ID != "r1" {
		t.Fatal("Get failed")
	}
	if db.Len() != 1 {
		t.Errorf("Len = %d", db.Len())
	}
	if err := db.Add(simpleRule("r1", "x", "y")); !errors.Is(err, ErrDuplicateID) {
		t.Errorf("duplicate Add = %v, want ErrDuplicateID", err)
	}
	if err := db.Remove("r1"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if err := db.Remove("r1"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double Remove = %v, want ErrNotFound", err)
	}
	if db.Len() != 0 {
		t.Errorf("Len after remove = %d", db.Len())
	}
}

func TestAddValidation(t *testing.T) {
	db := New()
	if err := db.Add(nil); err == nil {
		t.Error("nil rule should fail")
	}
	if err := db.Add(core.NewRule("", "", core.DeviceRef{}, core.Action{}, nil)); err == nil {
		t.Error("empty id should fail")
	}
}

func TestSameDevice(t *testing.T) {
	db := New()
	for i := 0; i < 10; i++ {
		device := "tv"
		if i%2 == 0 {
			device = "stereo"
		}
		if err := db.Add(simpleRule(fmt.Sprintf("r%d", i), "tom", device)); err != nil {
			t.Fatal(err)
		}
	}
	tvRules := db.SameDevice(core.DeviceRef{Name: "tv"})
	if len(tvRules) != 5 {
		t.Errorf("tv rules = %d, want 5", len(tvRules))
	}
	for _, r := range tvRules {
		if r.Device.Name != "tv" {
			t.Errorf("wrong device %q in result", r.Device.Name)
		}
	}
}

func TestSameDeviceLocationFilter(t *testing.T) {
	db := New()
	hall := simpleRule("r1", "tom", "light")
	hall.Device.Location = "hall"
	kitchen := simpleRule("r2", "tom", "light")
	kitchen.Device.Location = "kitchen"
	anywhere := simpleRule("r3", "tom", "light")
	for _, r := range []*core.Rule{hall, kitchen, anywhere} {
		if err := db.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	got := db.SameDevice(core.DeviceRef{Name: "light", Location: "hall"})
	if len(got) != 2 { // hall + unlocated
		t.Errorf("hall light rules = %d, want 2", len(got))
	}
	got = db.SameDevice(core.DeviceRef{Name: "light"})
	if len(got) != 3 {
		t.Errorf("any light rules = %d, want 3", len(got))
	}
}

func TestSameDeviceScanAgrees(t *testing.T) {
	db := New()
	for i := 0; i < 50; i++ {
		device := fmt.Sprintf("dev%d", i%7)
		if err := db.Add(simpleRule(fmt.Sprintf("r%d", i), "tom", device)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 7; i++ {
		ref := core.DeviceRef{Name: fmt.Sprintf("dev%d", i)}
		indexed := db.SameDevice(ref)
		scanned := db.SameDeviceScan(ref)
		if len(indexed) != len(scanned) {
			t.Errorf("dev%d: indexed %d vs scanned %d", i, len(indexed), len(scanned))
		}
	}
}

func TestByOwnerAndByDep(t *testing.T) {
	db := New()
	r1 := simpleRule("r1", "tom", "tv")
	r2 := simpleRule("r2", "alan", "tv")
	r3 := core.NewRule("r3", "tom",
		core.DeviceRef{Name: "light"},
		core.Action{Verb: "turn-on"},
		&core.BoolIs{Var: "hall/dark", Want: true})
	for _, r := range []*core.Rule{r1, r2, r3} {
		if err := db.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.ByOwner("tom"); len(got) != 2 {
		t.Errorf("tom rules = %d, want 2", len(got))
	}
	if got := byDep(db, core.NumberDepKey("temperature")); len(got) != 2 {
		t.Errorf("temperature rules = %d, want 2", len(got))
	}
	if got := byDep(db, core.BoolDepKey("hall/dark")); len(got) != 1 || got[0].ID != "r3" {
		t.Errorf("hall/dark rules = %v", got)
	}
	if err := db.Remove("r1"); err != nil {
		t.Fatal(err)
	}
	if got := byDep(db, core.NumberDepKey("temperature")); len(got) != 1 {
		t.Errorf("temperature rules after removal = %d, want 1", len(got))
	}
}

func TestAllInsertionOrder(t *testing.T) {
	db := New()
	for i := 0; i < 5; i++ {
		if err := db.Add(simpleRule(fmt.Sprintf("r%d", i), "tom", "tv")); err != nil {
			t.Fatal(err)
		}
	}
	all := db.All()
	for i, r := range all {
		if r.ID != fmt.Sprintf("r%d", i) {
			t.Errorf("All()[%d] = %s, want r%d", i, r.ID, i)
		}
	}
}

// TestChangesSinceSeq pins the sync reading: the live rules added after a
// Seq in Seq order, removals counted, and a returned slice left untouched
// by later Adds and Removes.
func TestChangesSinceSeq(t *testing.T) {
	db := New()
	for i := 0; i < 6; i++ {
		if err := db.Add(simpleRule(fmt.Sprintf("r%d", i), "tom", "tv")); err != nil {
			t.Fatal(err)
		}
	}
	ids := func(rules []*core.Rule) string {
		out := ""
		for _, r := range rules {
			out += r.ID + " "
		}
		return out
	}
	all, gen, removals := db.Changes(0)
	if ids(all) != "r0 r1 r2 r3 r4 r5 " || gen != 6 || removals != 0 {
		t.Fatalf("Changes(0) = %q, gen %d, removals %d", ids(all), gen, removals)
	}
	if err := db.Remove("r3"); err != nil {
		t.Fatal(err)
	}
	if err := db.Remove("r5"); err != nil {
		t.Fatal(err)
	}
	if err := db.Add(simpleRule("r3", "tom", "tv")); err != nil { // re-registered: Seq 7
		t.Fatal(err)
	}
	if ids(all) != "r0 r1 r2 r3 r4 r5 " {
		t.Fatalf("earlier reading changed under Add/Remove: %q", ids(all))
	}
	for _, tt := range []struct {
		seq  uint64
		want string
	}{
		{0, "r0 r1 r2 r4 r3 "},
		{2, "r2 r4 r3 "},
		{3, "r4 r3 "},
		{4, "r4 r3 "}, // Seq 4 (the first r3) was removed: the suffix starts after it
		{5, "r3 "},
		{6, "r3 "},
		{7, ""},
		{100, ""},
	} {
		got, gen, removals := db.Changes(tt.seq)
		if ids(got) != tt.want || gen != 9 || removals != 2 {
			t.Errorf("Changes(%d) = %q, gen %d, removals %d; want %q, 9, 2", tt.seq, ids(got), gen, removals, tt.want)
		}
	}
}

func TestExportImport(t *testing.T) {
	lex := vocab.Default()
	compiler := core.NewCompiler(lex)
	compile := func(source, id, owner string) (*core.Rule, error) {
		cmd, err := lang.Parse(source, lex)
		if err != nil {
			return nil, err
		}
		def, ok := cmd.(*lang.RuleDef)
		if !ok {
			return nil, fmt.Errorf("not a rule: %q", source)
		}
		return compiler.CompileRule(def, id, owner)
	}

	db := New()
	srcs := []string{
		"If temperature is higher than 28 degrees, turn on the air conditioner with 25 degrees of temperature setting.",
		"At night, if entrance door is unlocked for 1 hour, turn on the alarm.",
	}
	for i, src := range srcs {
		rule, err := compile(src, fmt.Sprintf("r%d", i), "tom")
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Add(rule); err != nil {
			t.Fatal(err)
		}
	}

	data, err := db.Export()
	if err != nil {
		t.Fatalf("Export: %v", err)
	}

	restored := New()
	n, err := restored.Import(data, compile)
	if err != nil {
		t.Fatalf("Import: %v", err)
	}
	if n != 2 || restored.Len() != 2 {
		t.Errorf("imported %d rules, len %d; want 2", n, restored.Len())
	}
	r, ok := restored.Get("r0")
	if !ok {
		t.Fatal("r0 missing after import")
	}
	if r.Device.Name != "air conditioner" || r.Owner != "tom" {
		t.Errorf("restored rule = %+v", r)
	}
	// Conditions survive recompilation.
	ctx := core.NewContext(baseTime())
	ctx.Numbers["temperature"] = 30
	if !r.Ready(ctx) {
		t.Error("restored rule should fire at 30C")
	}
}

func TestImportBadData(t *testing.T) {
	db := New()
	if _, err := db.Import([]byte("not json"), nil); err == nil {
		t.Error("garbage import should fail")
	}
	bad := []byte(`{"rules":[{"id":"x","owner":"t","source":"gibberish"}]}`)
	failCompile := func(source, id, owner string) (*core.Rule, error) {
		return nil, errors.New("nope")
	}
	if _, err := db.Import(bad, failCompile); err == nil {
		t.Error("compile failure should propagate")
	}
}

// TestQuickRandomOps runs random add/remove sequences and checks that the
// indexes stay consistent with the ground-truth map.
func TestQuickRandomOps(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	f := func() bool {
		db := New()
		alive := make(map[string]string) // id → device
		for op := 0; op < 60; op++ {
			if r.Intn(3) > 0 || len(alive) == 0 {
				id := fmt.Sprintf("r%d", op)
				device := fmt.Sprintf("dev%d", r.Intn(4))
				if err := db.Add(simpleRule(id, "u", device)); err != nil {
					return false
				}
				alive[id] = device
			} else {
				for id := range alive {
					if err := db.Remove(id); err != nil {
						return false
					}
					delete(alive, id)
					break
				}
			}
		}
		if db.Len() != len(alive) {
			return false
		}
		counts := make(map[string]int)
		for _, dev := range alive {
			counts[dev]++
		}
		for dev, want := range counts {
			if got := len(db.SameDevice(core.DeviceRef{Name: dev})); got != want {
				return false
			}
			if got := len(db.SameDeviceScan(core.DeviceRef{Name: dev})); got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestByDepIDIndex pins the interned dependency index: Add interns and binds
// (Bound/Holds/DepIDs populated), ByDepID posts the rule under each interned
// dependency key, Remove cleans the id-keyed postings, and re-adding a rule
// rebinds it against this database's symbol table.
func TestByDepIDIndex(t *testing.T) {
	db := New()
	tab := db.Symtab()
	if tab == nil {
		t.Fatal("Symtab is nil")
	}
	r := core.NewRule("r1", "tom",
		core.DeviceRef{Name: "fan"},
		core.Action{Verb: "turn-on"},
		&core.And{Terms: []core.Condition{
			&core.Compare{Var: "temperature", Op: simplex.GT, Value: 25},
			&core.BoolIs{Var: "tv/power", Want: true},
		}})
	if err := db.Add(r); err != nil {
		t.Fatal(err)
	}
	if r.Bound == nil {
		t.Fatal("Add did not bind the condition tree")
	}
	if len(r.DepIDs) != 2 {
		t.Fatalf("DepIDs = %v, want 2 entries", r.DepIDs)
	}
	for _, key := range []string{core.NumberDepKey("temperature"), core.BoolDepKey("tv/power")} {
		id, ok := tab.Lookup(key)
		if !ok {
			t.Fatalf("dep key %q not interned", key)
		}
		if byID := db.ByDepID(id); len(byID) != 1 || byID[0] != r {
			t.Fatalf("ByDepID(%q) = %v, want [r1]", key, byID)
		}
	}
	if err := db.Remove("r1"); err != nil {
		t.Fatal(err)
	}
	for _, id := range r.DepIDs {
		if got := db.ByDepID(id); len(got) != 0 {
			t.Fatalf("ByDepID(%d) = %v after Remove, want empty", id, got)
		}
	}
	// Re-adding rebinds: DepIDs stay resolvable in this table.
	if err := db.Add(r); err != nil {
		t.Fatal(err)
	}
	if r.Bound == nil || len(r.DepIDs) != 2 {
		t.Fatalf("re-add did not rebind: Bound=%v DepIDs=%v", r.Bound, r.DepIDs)
	}
	if holds := core.CollectHolds(r.Bound); len(holds) != len(r.Holds) {
		t.Fatalf("Holds = %d, want %d", len(r.Holds), len(holds))
	}
}
