package core

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/simplex"
)

func cmp(v string, op simplex.Relation, val float64) *Compare {
	return &Compare{Var: v, Op: op, Value: val}
}

func TestToDNFAtom(t *testing.T) {
	terms, err := ToDNF(cmp("t", simplex.GT, 28))
	if err != nil {
		t.Fatal(err)
	}
	if len(terms) != 1 || len(terms[0]) != 1 {
		t.Fatalf("terms = %v", terms)
	}
}

// TestIsAtomMatchesToDNF checks that IsAtom holds exactly for the
// conditions ToDNF returns as the one term {c}.
func TestIsAtomMatchesToDNF(t *testing.T) {
	a := cmp("t", simplex.GT, 28)
	for _, c := range []Condition{
		nil, Always{}, &Always{}, a, &BoolIs{Var: "dark", Want: true}, &Presence{Person: "tom", Place: "hall"},
		&Nobody{Place: "hall"}, &Everyone{Place: "hall"}, &Arrival{Person: "tom", Event: "return-home"},
		&OnAir{Keyword: "movie"}, &TimeWindow{FromMin: 60, ToMin: 120, Weekday: -1},
		&And{Terms: []Condition{a}}, &Or{Terms: []Condition{a}}, &Duration{Inner: a, Seconds: 60},
	} {
		terms, err := ToDNF(c)
		if err != nil {
			t.Fatal(err)
		}
		single := len(terms) == 1 && len(terms[0]) == 1 && terms[0][0] == c
		if got := IsAtom(c); got != single {
			t.Errorf("IsAtom(%T) = %v, but ToDNF returns %v", c, got, terms)
		}
	}
}

func TestToDNFNilAndAlways(t *testing.T) {
	for _, c := range []Condition{nil, Always{}} {
		terms, err := ToDNF(c)
		if err != nil {
			t.Fatal(err)
		}
		if len(terms) != 1 || len(terms[0]) != 0 {
			t.Fatalf("ToDNF(%v) = %v, want one empty term", c, terms)
		}
	}
}

func TestToDNFAndOfOrs(t *testing.T) {
	// (a or b) and (c or d) → 4 terms.
	cond := &And{Terms: []Condition{
		&Or{Terms: []Condition{cmp("a", simplex.GT, 1), cmp("b", simplex.GT, 2)}},
		&Or{Terms: []Condition{cmp("c", simplex.GT, 3), cmp("d", simplex.GT, 4)}},
	}}
	terms, err := ToDNF(cond)
	if err != nil {
		t.Fatal(err)
	}
	if len(terms) != 4 {
		t.Fatalf("terms = %d, want 4", len(terms))
	}
	for _, term := range terms {
		if len(term) != 2 {
			t.Errorf("term %v has %d atoms, want 2", term, len(term))
		}
	}
}

func TestToDNFOrOfAnds(t *testing.T) {
	cond := &Or{Terms: []Condition{
		&And{Terms: []Condition{cmp("a", simplex.GT, 1), cmp("b", simplex.GT, 2)}},
		cmp("c", simplex.GT, 3),
	}}
	terms, err := ToDNF(cond)
	if err != nil {
		t.Fatal(err)
	}
	if len(terms) != 2 || len(terms[0]) != 2 || len(terms[1]) != 1 {
		t.Fatalf("terms = %v", terms)
	}
}

func TestToDNFDurationUsesInner(t *testing.T) {
	cond := &Duration{
		Inner:   &And{Terms: []Condition{cmp("a", simplex.GT, 1), cmp("b", simplex.LT, 5)}},
		Seconds: 3600,
		Key:     "k",
	}
	terms, err := ToDNF(cond)
	if err != nil {
		t.Fatal(err)
	}
	if len(terms) != 1 || len(terms[0]) != 2 {
		t.Fatalf("terms = %v", terms)
	}
}

func TestToDNFExplosionGuard(t *testing.T) {
	// 13 conjoined binary ors → 2^13 = 8192 > MaxDNFTerms.
	var terms []Condition
	for i := 0; i < 13; i++ {
		terms = append(terms, &Or{Terms: []Condition{
			cmp("a", simplex.GT, float64(i)),
			cmp("b", simplex.LT, float64(i)),
		}})
	}
	_, err := ToDNF(&And{Terms: terms})
	if !errors.Is(err, ErrDNFTooLarge) {
		t.Errorf("error = %v, want ErrDNFTooLarge", err)
	}
}

// TestQuickDNFPreservesSemantics checks on random trees and random contexts
// that the DNF evaluates exactly like the original condition (no Duration
// nodes here, since ToDNF intentionally over-approximates those).
func TestQuickDNFPreservesSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	vars := []string{"a", "b", "c"}
	var build func(depth int) Condition
	build = func(depth int) Condition {
		if depth == 0 || r.Intn(3) == 0 {
			v := vars[r.Intn(len(vars))]
			ops := []simplex.Relation{simplex.GT, simplex.GE, simplex.LT, simplex.LE}
			return cmp(v, ops[r.Intn(len(ops))], float64(r.Intn(10)))
		}
		n := 2 + r.Intn(2)
		subs := make([]Condition, n)
		for i := range subs {
			subs[i] = build(depth - 1)
		}
		if r.Intn(2) == 0 {
			return &And{Terms: subs}
		}
		return &Or{Terms: subs}
	}

	f := func() bool {
		cond := build(3)
		terms, err := ToDNF(cond)
		if err != nil {
			return true // explosion guard is allowed to trip
		}
		for trial := 0; trial < 5; trial++ {
			ctx := NewContext(baseTime)
			for _, v := range vars {
				ctx.Numbers[v] = float64(r.Intn(10))
			}
			direct := cond.Eval(ctx)
			viaDNF := false
			for _, term := range terms {
				if term.Eval(ctx) {
					viaDNF = true
					break
				}
			}
			if direct != viaDNF {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTermString(t *testing.T) {
	if (Term{}).String() != "true" {
		t.Error("empty term should print true")
	}
	term := Term{cmp("a", simplex.GT, 1), cmp("b", simplex.LT, 2)}
	if term.String() == "" {
		t.Error("term string empty")
	}
}
