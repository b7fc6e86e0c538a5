package core

import (
	"testing"
	"unsafe"
)

// TestRuleLayout guards the rule object's shape: a rule is its template
// plus the identity and bound state its home gives it, with no copy of the
// compiled parts, so it fits the 128 B size class. A hub holds one per rule
// of every home.
func TestRuleLayout(t *testing.T) {
	if size := unsafe.Sizeof(Rule{}); size > 128 {
		t.Errorf("unsafe.Sizeof(core.Rule{}) = %d B, want at most 128", size)
	}
	r := NewRule("r1", "tom", DeviceRef{Name: "tv"}, Action{Verb: "turn-on"}, nil)
	if r.Template == nil || r.Template.Key != (TemplateKey{}) {
		t.Fatalf("NewRule template = %+v, want a private one (zero key)", r.Template)
	}
	if _, ok := r.Cond.(Always); !ok {
		t.Errorf("NewRule with a nil condition has Cond %T, want Always", r.Cond)
	}
	if got := r.String(); got != "[r1 owner=tom] if always then turn-on tv" {
		t.Errorf("String() = %q", got)
	}
	if shared := r.Template.Rule("r2", "alan"); shared.Template != r.Template || shared.ID != "r2" || shared.Owner != "alan" {
		t.Errorf("Template.Rule built %+v, want r2 for alan on the same template", shared)
	}
}
