package conflict

import (
	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/simplex"
)

// SimplexFindConflicts is FindConflicts decided the paper's way: each pair
// of DNF terms is joined and handed to SimplexTermFeasible. It is the
// oracle the production checker is tested against and the E2b baseline.
func SimplexFindConflicts(newRule *core.Rule, candidates []*core.Rule) ([]Conflict, error) {
	return findConflicts(newRule, candidates, func(a, b core.Term) (bool, error) {
		joint := make(core.Term, 0, len(a)+len(b))
		joint = append(joint, a...)
		joint = append(joint, b...)
		return SimplexTermFeasible(joint)
	})
}

// SimplexTermFeasible is the oracle for Checker.TermFeasible, the decision
// of the paper's prototype: numeric comparisons become a linear system for
// the simplex solver; boolean, presence and time-window atoms are collected
// into maps and checked for direct contradictions; arrival and on-air atoms
// never contradict each other.
//
// It agrees with the production checker except within the solver's strict
// gap: "x > 1 and x < 1+1e-8" holds for x = 1+5e-9, but the simplex
// requires a strict slack of at least 1e-7 and reports it infeasible.
func SimplexTermFeasible(term core.Term) (bool, error) {
	var (
		constraints []simplex.Constraint
		bools       = make(map[string]bool)
		presences   = make(map[string]string) // person → concrete place
		nobody      = make(map[string]bool)   // place → true
		everyone    = make(map[string]bool)
		someoneAt   = make(map[string]bool)
		windows     []*core.TimeWindow
	)

	for _, atom := range term {
		switch a := atom.(type) {
		case *core.Compare:
			constraints = append(constraints, simplex.Bound(a.Var, a.Op, a.Value))
		case *core.BoolIs:
			if want, seen := bools[a.Var]; seen && want != a.Want {
				return false, nil
			}
			bools[a.Var] = a.Want
		case *core.Presence:
			if a.Person == core.Someone {
				someoneAt[a.Place] = true
				continue
			}
			if prev, seen := presences[a.Person]; seen && !placesCompatible(prev, a.Place) {
				return false, nil // one person cannot be in two places
			}
			if prev, seen := presences[a.Person]; !seen || prev == homePlace {
				presences[a.Person] = a.Place
			}
		case *core.Nobody:
			nobody[a.Place] = true
		case *core.Everyone:
			everyone[a.Place] = true
		case *core.TimeWindow:
			windows = append(windows, a)
		case *core.Arrival, *core.OnAir:
			// Events and broadcasts can always co-occur.
		case core.Always, *core.Always:
			// Trivially true.
		default:
			// Unknown atoms are treated as independently satisfiable.
		}
	}

	// Presence vs nobody/everyone contradictions.
	for place := range nobody {
		if someoneAt[place] || everyone[place] {
			return false, nil
		}
		for _, p := range presences {
			if placesCompatible(p, place) && (p == place || place == homePlace) {
				return false, nil
			}
		}
	}
	// Everyone at two different concrete places is impossible (with >= 1
	// user assumed).
	var everyonePlace string
	for place := range everyone {
		if everyonePlace != "" && place != everyonePlace && place != homePlace && everyonePlace != homePlace {
			return false, nil
		}
		if everyonePlace == "" || everyonePlace == homePlace {
			everyonePlace = place
		}
	}
	// Everyone at X contradicts a named person at Y != X.
	if everyonePlace != "" && everyonePlace != homePlace {
		for _, p := range presences {
			if p != homePlace && p != everyonePlace {
				return false, nil
			}
		}
	}

	if !oracleWindowsOverlap(windows) {
		return false, nil
	}

	if len(constraints) == 0 {
		return true, nil
	}
	res, err := simplex.Feasible(constraints)
	if err != nil {
		return false, err
	}
	return res.Feasible, nil
}

// placesCompatible reports whether one person being at both places is
// possible ("home" is a wildcard for any in-home place).
func placesCompatible(a, b string) bool {
	return a == b || a == homePlace || b == homePlace
}

// oracleWindowsOverlap intersects daily time windows (with midnight wrap)
// and weekday restrictions, materialising every intersection.
func oracleWindowsOverlap(windows []*core.TimeWindow) bool {
	if len(windows) == 0 {
		return true
	}
	day := -1
	for _, w := range windows {
		if w.Weekday < 0 {
			continue
		}
		if day >= 0 && day != w.Weekday {
			return false
		}
		day = w.Weekday
	}
	// Represent each window as minute intervals over [0, 1440).
	intervalsOf := func(w *core.TimeWindow) []interval.Interval {
		from, to := w.FromMin, w.ToMin%(24*60)
		if w.FromMin == w.ToMin {
			return []interval.Interval{{Lo: 0, Hi: 1440, HiOpen: true}}
		}
		if w.FromMin < w.ToMin && w.ToMin <= 24*60 {
			return []interval.Interval{{Lo: float64(from), Hi: float64(w.ToMin), HiOpen: true}}
		}
		return []interval.Interval{
			{Lo: float64(from), Hi: 1440, HiOpen: true},
			{Lo: 0, Hi: float64(to), HiOpen: true},
		}
	}
	current := intervalsOf(windows[0])
	for _, w := range windows[1:] {
		next := intervalsOf(w)
		var merged []interval.Interval
		for _, a := range current {
			for _, b := range next {
				got := a.Intersect(b)
				if !got.Empty() {
					merged = append(merged, got)
				}
			}
		}
		if len(merged) == 0 {
			return false
		}
		current = merged
	}
	return true
}
