package core

import (
	"errors"
	"fmt"
)

// Term is a conjunction of atomic conditions (no And/Or/Duration nodes).
type Term []Condition

// MaxDNFTerms bounds the size of a disjunctive normal form to keep conflict
// checking predictable. CADEL conditions written by home users are tiny; the
// bound only guards against pathological machine-generated rules.
const MaxDNFTerms = 4096

// ErrDNFTooLarge reports a condition whose DNF exceeds MaxDNFTerms.
var ErrDNFTooLarge = errors.New("core: condition normal form too large")

// ToDNF normalises a condition tree into disjunctive normal form: a slice of
// terms, each a conjunction of atoms, whose disjunction is equivalent to the
// input for the purposes of satisfiability analysis.
//
// Duration nodes are replaced by their inner condition: "C held for 1 hour"
// implies C holds now, which is the sound over-approximation for conflict
// detection (two rules that could fire together still could if one requires
// an extra hold time).
func ToDNF(c Condition) ([]Term, error) {
	if c == nil {
		return []Term{{}}, nil
	}
	switch n := c.(type) {
	case Always:
		return []Term{{}}, nil
	case *Always:
		return []Term{{}}, nil
	case *And:
		result := []Term{{}}
		for _, sub := range n.Terms {
			subDNF, err := ToDNF(sub)
			if err != nil {
				return nil, err
			}
			if len(result)*len(subDNF) > MaxDNFTerms {
				return nil, fmt.Errorf("%w: %d terms", ErrDNFTooLarge, len(result)*len(subDNF))
			}
			crossed := make([]Term, 0, len(result)*len(subDNF))
			for _, left := range result {
				for _, right := range subDNF {
					merged := make(Term, 0, len(left)+len(right))
					merged = append(merged, left...)
					merged = append(merged, right...)
					crossed = append(crossed, merged)
				}
			}
			result = crossed
		}
		return result, nil
	case *Or:
		var result []Term
		for _, sub := range n.Terms {
			subDNF, err := ToDNF(sub)
			if err != nil {
				return nil, err
			}
			result = append(result, subDNF...)
			if len(result) > MaxDNFTerms {
				return nil, fmt.Errorf("%w: %d terms", ErrDNFTooLarge, len(result))
			}
		}
		return result, nil
	case *Duration:
		return ToDNF(n.Inner)
	default:
		return []Term{{c}}, nil
	}
}

// IsAtom reports whether c is a single atomic condition, whose DNF is the
// one term {c}: anything but nil, Always, And, Or and Duration.
func IsAtom(c Condition) bool {
	switch c.(type) {
	case nil, Always, *Always, *And, *Or, *Duration:
		return false
	}
	return true
}

// Eval evaluates the term as a conjunction.
func (t Term) Eval(ctx *Context) bool {
	for _, c := range t {
		if !c.Eval(ctx) {
			return false
		}
	}
	return true
}

// String renders the term.
func (t Term) String() string {
	if len(t) == 0 {
		return "true"
	}
	return joinCond(t, " and ")
}
