package registry

import (
	"testing"

	"repro/internal/core"
	"repro/internal/simplex"
)

func ruleIDs(rules []*core.Rule) []string {
	out := make([]string, len(rules))
	for i, r := range rules {
		out[i] = r.ID
	}
	return out
}

// byDep reads the dependency index by the key's string form.
func byDep(db *DB, key string) []*core.Rule {
	id, ok := db.Symtab().Lookup(key)
	if !ok {
		return nil
	}
	return db.ByDepID(id)
}

func TestByDepIndexMaintenance(t *testing.T) {
	db := New()
	temp := &core.Rule{
		ID: "temp", Owner: "tom", Device: core.DeviceRef{Name: "fan"},
		Action: core.Action{Verb: "turn-on"},
		Cond:   &core.Compare{Var: "temperature", Op: simplex.GT, Value: 28},
	}
	pres := &core.Rule{
		ID: "pres", Owner: "tom", Device: core.DeviceRef{Name: "lamp"},
		Action: core.Action{Verb: "turn-on"},
		Cond: &core.And{Terms: []core.Condition{
			&core.Presence{Person: "tom", Place: "hall"},
			&core.TimeWindow{FromMin: 0, ToMin: 6 * 60, Weekday: -1},
		}},
	}
	for _, r := range []*core.Rule{temp, pres} {
		if err := db.Add(r); err != nil {
			t.Fatal(err)
		}
	}

	if got := ruleIDs(byDep(db, core.NumberDepKey("temperature"))); len(got) != 1 || got[0] != "temp" {
		t.Errorf("ByDep(num/temperature) = %v", got)
	}
	if got := ruleIDs(byDep(db, core.LocationDepKey("tom"))); len(got) != 1 || got[0] != "pres" {
		t.Errorf("ByDep(loc/tom) = %v", got)
	}
	if got := byDep(db, "num/nothing-reads-this"); len(got) != 0 {
		t.Errorf("ByDep(unused key) = %v", ruleIDs(got))
	}
	if got := ruleIDs(db.TimeDependent()); len(got) != 1 || got[0] != "pres" {
		t.Errorf("TimeDependent() = %v", got)
	}

	if err := db.Remove("pres"); err != nil {
		t.Fatal(err)
	}
	if got := byDep(db, core.LocationDepKey("tom")); len(got) != 0 {
		t.Errorf("ByDep(loc/tom) after remove = %v", ruleIDs(got))
	}
	if got := db.TimeDependent(); len(got) != 0 {
		t.Errorf("TimeDependent() after remove = %v", ruleIDs(got))
	}
	if got := ruleIDs(byDep(db, core.NumberDepKey("temperature"))); len(got) != 1 || got[0] != "temp" {
		t.Errorf("ByDep(num/temperature) after unrelated remove = %v", got)
	}
}

func TestGenerationBumpsOnChurn(t *testing.T) {
	db := New()
	g0 := db.Generation()
	if err := db.Add(simpleRule("a", "u", "tv")); err != nil {
		t.Fatal(err)
	}
	g1 := db.Generation()
	if g1 == g0 {
		t.Error("Add must bump the generation")
	}
	if err := db.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if db.Generation() == g1 {
		t.Error("Remove must bump the generation")
	}
	// Failed operations leave the generation alone.
	before := db.Generation()
	if err := db.Remove("a"); err == nil {
		t.Fatal("expected remove of missing rule to fail")
	}
	if db.Generation() != before {
		t.Error("failed Remove must not bump the generation")
	}
}
