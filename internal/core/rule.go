package core

import (
	"fmt"
	"sort"
	"strings"
	"unique"
)

// DeviceRef identifies the target device of a rule by friendly name and
// optional location, as written in CADEL ("the light at the hall").
type DeviceRef struct {
	Name     string `json:"name"`
	Location string `json:"location,omitempty"`
}

// Key returns a canonical "location/name" identifier.
func (d DeviceRef) Key() string {
	if d.Location == "" {
		return d.Name
	}
	return d.Location + "/" + d.Name
}

// Matches reports whether two references denote the same device: names must
// match and locations must match unless one side leaves it unspecified.
func (d DeviceRef) Matches(other DeviceRef) bool {
	if d.Name != other.Name {
		return false
	}
	if d.Location == "" || other.Location == "" {
		return true
	}
	return d.Location == other.Location
}

func (d DeviceRef) String() string { return d.Key() }

// Value is a compiled setting or comparison value.
type Value struct {
	IsNumber bool    `json:"isNumber,omitempty"`
	Number   float64 `json:"number,omitempty"`
	Unit     string  `json:"unit,omitempty"`
	Word     string  `json:"word,omitempty"`
}

func (v Value) String() string {
	if v.IsNumber {
		if v.Unit != "" {
			return fmt.Sprintf("%g %s", v.Number, v.Unit)
		}
		return fmt.Sprintf("%g", v.Number)
	}
	return v.Word
}

// Equal reports exact value equality.
func (v Value) Equal(other Value) bool { return v == other }

// Action is the device command a rule executes: a canonical verb plus the
// settings from the rule's "with ..." configuration.
type Action struct {
	Verb     string           `json:"verb"`
	Settings map[string]Value `json:"settings,omitempty"`
}

// Equal reports whether two actions are identical (same verb, same
// settings). Rules demanding non-equal actions on one device conflict.
func (a Action) Equal(other Action) bool {
	if a.Verb != other.Verb || len(a.Settings) != len(other.Settings) {
		return false
	}
	for k, v := range a.Settings {
		if ov, ok := other.Settings[k]; !ok || !v.Equal(ov) {
			return false
		}
	}
	return true
}

func (a Action) String() string {
	if len(a.Settings) == 0 {
		return a.Verb
	}
	keys := make([]string, 0, len(a.Settings))
	for k := range a.Settings {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%s", k, a.Settings[k]))
	}
	return a.Verb + " with " + strings.Join(parts, ", ")
}

// Rule is a compiled CADEL rule object: when Cond holds, apply Action to
// Device. Source preserves the original CADEL text, which doubles as the
// database serialization format.
//
// A rule is its Template plus the identity its home gives it. The compiled
// parts (Device, Action with its Settings map, Cond and Source) are the
// template's, reached through the embedded pointer, and may be shared with
// other rules built from the same template, in other homes too. They are
// read-only: only the compiler writes them, and it is done (location
// scoping included) before the template is filed anywhere. A rule built on
// its own (NewRule, a compile no table files) has a private template with
// the zero TemplateKey. Everything else is the rule's own: ID, Owner, Seq
// and the bound, per-database state from Bound on, which registration
// builds afresh and compaction rewrites in place. The rule object itself
// belongs to at most one database.
type Rule struct {
	// Template is the compiled form this rule was built from, never nil. The
	// table that hands out templates counts references through it.
	*Template
	ID    string
	Owner string
	// Seq is the registration sequence number assigned by the rule
	// database; it provides a deterministic fallback ordering.
	Seq uint64
	// Bound is the pre-bound form of Cond (see Bind), set by the rule
	// database at registration against its symbol table. The engine's
	// interned evaluation path uses it; nil means the rule was never
	// registered. A rule belongs to at most one database: re-registering the
	// same object elsewhere rebinds it against that database's table.
	Bound Condition
	// Holds lists the Duration nodes of Bound (shared Key strings with
	// Cond), collected once so per-pass hold maintenance iterates a slice
	// instead of re-walking the tree.
	Holds []*Duration
	// DepIDs is Cond's dependency-key set interned and sorted, the
	// branch-cheap form the engine intersects against its dirty-id set.
	DepIDs []uint32
	// IDSym, OwnerSym and DeviceSym are the rule's interned identity — ID,
	// Owner and Device.Key() interned into the owning database's symbol
	// table, plus one (0 = never registered). The engine's id-indexed
	// reconciliation state and the priority table's owner-rank index address
	// rules and devices by them instead of by string.
	IDSym, OwnerSym, DeviceSym uint32
}

// TemplateKey names one compiled rule exactly: the rule text, the owner it
// was compiled for (the owner resolves "i" and "my") and the fingerprint of
// the lexicon it was compiled against (vocab.Lexicon.Fingerprint), which
// fixes how every phrase and user-defined word of the text reads. The zero
// key marks a private template, one no table files.
type TemplateKey struct {
	Lexicon unique.Handle[string]
	Owner   string
	Text    string
}

// Template is the compiled form of one rule text, shared by every rule
// built from it. Its parts are read-only (see Rule).
type Template struct {
	Key TemplateKey
	// Refs counts the live rules built from the template. The table that
	// owns the template maintains it.
	Refs   int
	Device DeviceRef
	Action Action
	Cond   Condition // never nil; Always{} when the rule is unconditional
	Source string
}

// NewRule builds an unregistered rule with a private template holding the
// given compiled parts; a nil cond becomes Always{}. The rule and its
// template are allocated as one block.
func NewRule(id, owner string, device DeviceRef, action Action, cond Condition) *Rule {
	if cond == nil {
		cond = Always{}
	}
	b := &struct {
		rule Rule
		tmpl Template
	}{tmpl: Template{Device: device, Action: action, Cond: cond}}
	b.rule = Rule{Template: &b.tmpl, ID: id, Owner: owner}
	return &b.rule
}

// Rule builds a new, unregistered rule around the template.
func (t *Template) Rule(id, owner string) *Rule {
	return &Rule{Template: t, ID: id, Owner: owner}
}

// ReadyBound reports whether the rule's condition holds, preferring the
// pre-bound tree when the rule has been registered.
func (r *Rule) ReadyBound(ctx *Context) bool {
	if r.Bound != nil {
		return r.Bound.Eval(ctx)
	}
	return r.Ready(ctx)
}

// Ready reports whether the rule's condition holds in the context.
func (r *Rule) Ready(ctx *Context) bool { return r.Cond.Eval(ctx) }

// Vars returns the sorted, de-duplicated variables the rule's condition
// reads.
func (r *Rule) Vars() []string {
	vars := r.Cond.Vars(nil)
	sort.Strings(vars)
	out := vars[:0]
	for i, v := range vars {
		if i == 0 || vars[i-1] != v {
			out = append(out, v)
		}
	}
	return out
}

func (r *Rule) String() string {
	return fmt.Sprintf("[%s owner=%s] if %s then %s %s", r.ID, r.Owner, r.Cond, r.Action, r.Device)
}
