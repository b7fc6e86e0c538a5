// Package conflict implements the paper's consistency checking module
// (Sect. 4.4): deciding whether a new rule's condition can hold at all, and
// whether it can conflict with already-registered rules — i.e. whether two
// rules that demand different actions on the same device have conditions
// that can hold simultaneously.
//
// The paper's prototype decided numeric satisfiability with the simplex
// method. Every CADEL comparison is a single-variable bound with
// coefficient 1, so a conjunction of them is satisfiable exactly when each
// variable's bounds intersect. The production checker (Checker) decides
// that, and every other kind of contradiction, by scanning the DNF terms in
// place, with no allocation. The paper's method — build the linear system,
// ask the simplex solver — is kept as the oracle (SimplexTermFeasible,
// SimplexFindConflicts) that the tests and cmd/benchtab compare against.
package conflict

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/simplex"
)

// homePlace is the place that contains every in-home place: "tom is at
// home" holds when tom is in any room.
const homePlace = "home"

// Checker decides rule consistency and pairwise conflicts.
type Checker struct{}

// Consistent reports whether the rule's condition is satisfiable: at least
// one DNF term must be feasible. Registration warns the user otherwise.
func (c *Checker) Consistent(rule *core.Rule) (bool, error) {
	terms, err := core.ToDNF(rule.Cond)
	if err != nil {
		return false, err
	}
	for _, term := range terms {
		ok, err := c.TermFeasible(term)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

// Conflict describes a detected conflict between a new rule and an existing
// one: their conditions can hold at the same time while their actions on the
// shared device differ.
type Conflict struct {
	New      *core.Rule
	Existing *core.Rule
}

func (c Conflict) String() string {
	return fmt.Sprintf("conflict over %s: %q (%s) vs %q (%s)",
		c.New.Device, c.New.ID, c.New.Owner, c.Existing.ID, c.Existing.Owner)
}

// FindConflicts checks the new rule against each candidate (typically the
// same-device extraction from the rule database) and returns every conflict.
func (c *Checker) FindConflicts(newRule *core.Rule, candidates []*core.Rule) ([]Conflict, error) {
	return findConflicts(newRule, candidates, jointFeasible)
}

// Conflicts reports whether two rules conflict (symmetric).
func (c *Checker) Conflicts(a, b *core.Rule) (bool, error) {
	found, err := c.FindConflicts(a, []*core.Rule{b})
	if err != nil {
		return false, err
	}
	return len(found) > 0, nil
}

// findConflicts is the candidate loop shared by the production checker and
// the oracle; feasible decides whether the conjunction of two DNF terms can
// hold and must not keep either term.
//
// A candidate whose condition is a single atom is its own one-term DNF, so
// it is written into a scratch term reused across candidates; only And, Or
// and Duration conditions pay for core.ToDNF.
func findConflicts(newRule *core.Rule, candidates []*core.Rule, feasible func(a, b core.Term) (bool, error)) ([]Conflict, error) {
	newTerms, err := core.ToDNF(newRule.Cond)
	if err != nil {
		return nil, err
	}
	var atom [1]core.Condition
	atomDNF := []core.Term{atom[:]}
	var out []Conflict
	for _, cand := range candidates {
		if cand.ID == newRule.ID {
			continue
		}
		if !cand.Device.Matches(newRule.Device) {
			continue
		}
		if cand.Action.Equal(newRule.Action) {
			continue // same action: no conflict even if both fire
		}
		candTerms := atomDNF
		if core.IsAtom(cand.Cond) {
			atom[0] = cand.Cond
		} else if candTerms, err = core.ToDNF(cand.Cond); err != nil {
			return nil, err
		}
		overlap, err := termsOverlap(newTerms, candTerms, feasible)
		if err != nil {
			return nil, err
		}
		if overlap {
			out = append(out, Conflict{New: newRule, Existing: cand})
		}
	}
	return out, nil
}

func termsOverlap(newTerms, candTerms []core.Term, feasible func(a, b core.Term) (bool, error)) (bool, error) {
	for _, tn := range newTerms {
		for _, tc := range candTerms {
			ok, err := feasible(tn, tc)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
	}
	return false, nil
}

// TermFeasible decides whether a conjunction of atomic conditions can hold
// simultaneously. Numeric comparisons are feasible when each variable's
// bounds intersect; boolean, presence, nobody/everyone and time-window atoms
// are checked for direct contradictions; arrival and on-air atoms never
// contradict each other. It allocates nothing.
func (c *Checker) TermFeasible(term core.Term) (bool, error) {
	return jointFeasible(term, nil)
}

// jointFeasible decides the conjunction of two terms without joining them.
func jointFeasible(a, b core.Term) (bool, error) {
	return joint{a, b}.feasible()
}

// joint is the conjunction of two DNF terms, read in place: atom i is a[i]
// for i < len(a) and b[i-len(a)] after that.
type joint struct{ a, b core.Term }

func (j joint) len() int { return len(j.a) + len(j.b) }

func (j joint) at(i int) core.Condition {
	if i < len(j.a) {
		return j.a[i]
	}
	return j.b[i-len(j.a)]
}

// feasible scans the atoms pairwise. Terms hold a handful of atoms, so the
// quadratic scan is cheaper than building any index. Non-numeric
// contradictions are decided first; only then are comparisons validated
// and their per-variable bounds intersected, the order in which the oracle
// decides.
func (j joint) feasible() (bool, error) {
	n := j.len()
	windows, compares := 0, 0
	for i := 0; i < n; i++ {
		switch a := j.at(i).(type) {
		case *core.Compare:
			compares++
		case *core.BoolIs:
			for k := i + 1; k < n; k++ {
				if b, ok := j.at(k).(*core.BoolIs); ok && b.Var == a.Var && b.Want != a.Want {
					return false, nil
				}
			}
		case *core.Presence:
			// One person cannot be in two different rooms; "home" is
			// compatible with every room.
			if a.Person == core.Someone || a.Place == homePlace {
				continue
			}
			for k := i + 1; k < n; k++ {
				if b, ok := j.at(k).(*core.Presence); ok && b.Person == a.Person && b.Place != homePlace && b.Place != a.Place {
					return false, nil
				}
			}
		case *core.Nobody:
			if !j.nobodyFeasible(a.Place) {
				return false, nil
			}
		case *core.Everyone:
			if a.Place != homePlace && !j.everyoneFeasible(i, a.Place) {
				return false, nil
			}
		case *core.TimeWindow:
			windows++
			for k := i + 1; k < n; k++ {
				if b, ok := j.at(k).(*core.TimeWindow); ok && a.Weekday >= 0 && b.Weekday >= 0 && a.Weekday != b.Weekday {
					return false, nil
				}
			}
		}
		// Arrival and OnAir atoms (events and broadcasts can always
		// co-occur), Always, and unknown atoms are independently
		// satisfiable.
	}
	if windows > 1 && !j.windowsOverlap() {
		return false, nil
	}
	if compares == 0 {
		return true, nil
	}
	return j.boundsFeasible()
}

// nobodyFeasible reports whether "nobody at place" is compatible with the
// term's presence and everyone atoms: nobody (or everyone) can be at the
// same place, and no named person can be at home at all when nobody is.
func (j joint) nobodyFeasible(place string) bool {
	for k, n := 0, j.len(); k < n; k++ {
		switch b := j.at(k).(type) {
		case *core.Presence:
			if b.Place == place || (place == homePlace && b.Person != core.Someone) {
				return false
			}
		case *core.Everyone:
			if b.Place == place {
				return false
			}
		}
	}
	return true
}

// everyoneFeasible reports whether "everyone at place" (a concrete room,
// atom i) is compatible with the rest of the term: everyone cannot also be
// in a different room, and no named person can be in one (at least one user
// is assumed).
func (j joint) everyoneFeasible(i int, place string) bool {
	for k, n := 0, j.len(); k < n; k++ {
		switch b := j.at(k).(type) {
		case *core.Everyone:
			if k > i && b.Place != homePlace && b.Place != place {
				return false
			}
		case *core.Presence:
			if b.Person != core.Someone && b.Place != homePlace && b.Place != place {
				return false
			}
		}
	}
	return true
}

// windowsOverlap reports whether some minute of the day lies in every time
// window of the term. Each window is a union of left-closed minute ranges,
// so their intersection, when not empty, contains the left end of one of
// the ranges: it is enough to test those.
func (j joint) windowsOverlap() bool {
	n := j.len()
	for i := 0; i < n; i++ {
		w, ok := j.at(i).(*core.TimeWindow)
		if !ok {
			continue
		}
		pieces, np := windowPieces(w)
		for _, p := range pieces[:np] {
			if p.Empty() {
				continue
			}
			inAll := true
			for k := 0; k < n && inAll; k++ {
				if v, ok := j.at(k).(*core.TimeWindow); ok {
					inAll = windowContains(v, p.Lo)
				}
			}
			if inAll {
				return true
			}
		}
	}
	return false
}

// windowPieces returns a daily window as one or two half-open minute ranges
// over [0, 1440): a window whose end is not after its start wraps midnight,
// and a window from a minute to the same minute covers the whole day.
func windowPieces(w *core.TimeWindow) ([2]interval.Interval, int) {
	const day = 24 * 60
	if w.FromMin == w.ToMin {
		return [2]interval.Interval{{Lo: 0, Hi: day, HiOpen: true}}, 1
	}
	if w.FromMin < w.ToMin && w.ToMin <= day {
		return [2]interval.Interval{{Lo: float64(w.FromMin), Hi: float64(w.ToMin), HiOpen: true}}, 1
	}
	return [2]interval.Interval{
		{Lo: float64(w.FromMin), Hi: day, HiOpen: true},
		{Lo: 0, Hi: float64(w.ToMin % day), HiOpen: true},
	}, 2
}

func windowContains(w *core.TimeWindow, minute float64) bool {
	pieces, np := windowPieces(w)
	for _, p := range pieces[:np] {
		if p.Contains(minute) {
			return true
		}
	}
	return false
}

// boundsFeasible validates the term's comparisons and reports whether each
// variable's bounds intersect. Every variable is decided once, at its first
// comparison.
func (j joint) boundsFeasible() (bool, error) {
	n := j.len()
	for i := 0; i < n; i++ {
		if a, ok := j.at(i).(*core.Compare); ok {
			if err := validate(a); err != nil {
				return false, err
			}
		}
	}
	for i := 0; i < n; i++ {
		a, ok := j.at(i).(*core.Compare)
		if !ok || j.seenBefore(i, a.Var) {
			continue
		}
		iv := bound(a)
		for k := i + 1; k < n && !iv.Empty(); k++ {
			if b, ok := j.at(k).(*core.Compare); ok && b.Var == a.Var {
				iv = iv.Intersect(bound(b))
			}
		}
		if iv.Empty() {
			return false, nil
		}
	}
	return true, nil
}

// seenBefore reports whether a comparison before atom i reads name.
func (j joint) seenBefore(i int, name string) bool {
	for k := 0; k < i; k++ {
		if b, ok := j.at(k).(*core.Compare); ok && b.Var == name {
			return true
		}
	}
	return false
}

// validate rejects the comparisons the simplex oracle rejects: an unknown
// relation or a non-finite constant.
func validate(c *core.Compare) error {
	switch c.Op {
	case simplex.LE, simplex.GE, simplex.LT, simplex.GT, simplex.EQ:
	default:
		return fmt.Errorf("%w: relation %v", simplex.ErrBadConstraint, c.Op)
	}
	if math.IsNaN(c.Value) || math.IsInf(c.Value, 0) {
		return fmt.Errorf("%w: right-hand side %v", simplex.ErrBadConstraint, c.Value)
	}
	return nil
}

// bound returns the values of c.Var that satisfy the comparison.
func bound(c *core.Compare) interval.Interval {
	switch c.Op {
	case simplex.LE:
		return interval.AtMost(c.Value)
	case simplex.LT:
		return interval.LessThan(c.Value)
	case simplex.GE:
		return interval.AtLeast(c.Value)
	case simplex.GT:
		return interval.GreaterThan(c.Value)
	default: // simplex.EQ; validate rejected every other relation
		return interval.Point(c.Value)
	}
}
