// Package interval implements interval arithmetic over named numeric
// variables. Interval is the production conflict checker's numeric domain:
// every CADEL comparison bounds one variable, so a conjunction of them
// (e.g. "temperature is higher than 28 degrees and humidity is over 60 %")
// is satisfiable exactly when each variable's intervals intersect. The
// simplex solver, the paper's method, is the checker's oracle; Box, the
// map form of a set of bounds, cross-checks that solver in its tests.
package interval

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Interval is a possibly-unbounded interval of float64 values. Lo and Hi may
// be ±Inf. LoOpen/HiOpen mark strict endpoints: {Lo:28, LoOpen:true} encodes
// "> 28" while {Lo:28} encodes ">= 28".
type Interval struct {
	Lo, Hi         float64
	LoOpen, HiOpen bool
}

// Full returns the interval covering all reals.
func Full() Interval {
	return Interval{Lo: math.Inf(-1), Hi: math.Inf(1)}
}

// Point returns the degenerate interval [v, v].
func Point(v float64) Interval {
	return Interval{Lo: v, Hi: v}
}

// AtLeast returns [v, +inf).
func AtLeast(v float64) Interval {
	return Interval{Lo: v, Hi: math.Inf(1)}
}

// GreaterThan returns (v, +inf).
func GreaterThan(v float64) Interval {
	return Interval{Lo: v, LoOpen: true, Hi: math.Inf(1)}
}

// AtMost returns (-inf, v].
func AtMost(v float64) Interval {
	return Interval{Lo: math.Inf(-1), Hi: v}
}

// LessThan returns (-inf, v).
func LessThan(v float64) Interval {
	return Interval{Lo: math.Inf(-1), Hi: v, HiOpen: true}
}

// Empty reports whether the interval contains no values.
func (iv Interval) Empty() bool {
	if iv.Lo > iv.Hi {
		return true
	}
	if iv.Lo == iv.Hi && (iv.LoOpen || iv.HiOpen) {
		return true
	}
	return false
}

// Contains reports whether v lies inside the interval.
func (iv Interval) Contains(v float64) bool {
	if v < iv.Lo || (v == iv.Lo && iv.LoOpen) {
		return false
	}
	if v > iv.Hi || (v == iv.Hi && iv.HiOpen) {
		return false
	}
	return true
}

// Intersect returns the intersection of two intervals.
func (iv Interval) Intersect(other Interval) Interval {
	out := iv
	if other.Lo > out.Lo {
		out.Lo, out.LoOpen = other.Lo, other.LoOpen
	} else if other.Lo == out.Lo {
		out.LoOpen = out.LoOpen || other.LoOpen
	}
	if other.Hi < out.Hi {
		out.Hi, out.HiOpen = other.Hi, other.HiOpen
	} else if other.Hi == out.Hi {
		out.HiOpen = out.HiOpen || other.HiOpen
	}
	return out
}

// Overlaps reports whether the two intervals share at least one point.
func (iv Interval) Overlaps(other Interval) bool {
	return !iv.Intersect(other).Empty()
}

// Sample returns an arbitrary value inside the interval. It reports false if
// the interval is empty.
func (iv Interval) Sample() (float64, bool) {
	if iv.Empty() {
		return 0, false
	}
	loInf, hiInf := math.IsInf(iv.Lo, -1), math.IsInf(iv.Hi, 1)
	switch {
	case loInf && hiInf:
		return 0, true
	case loInf:
		if iv.HiOpen {
			return iv.Hi - 1, true
		}
		return iv.Hi, true
	case hiInf:
		if iv.LoOpen {
			return iv.Lo + 1, true
		}
		return iv.Lo, true
	default:
		if iv.Lo == iv.Hi {
			return iv.Lo, true
		}
		return (iv.Lo + iv.Hi) / 2, true
	}
}

// String renders the interval in mathematical notation, e.g. "(28, 35]".
func (iv Interval) String() string {
	lb, rb := "[", "]"
	if iv.LoOpen || math.IsInf(iv.Lo, -1) {
		lb = "("
	}
	if iv.HiOpen || math.IsInf(iv.Hi, 1) {
		rb = ")"
	}
	return fmt.Sprintf("%s%s, %s%s", lb, fmtBound(iv.Lo), fmtBound(iv.Hi), rb)
}

func fmtBound(v float64) string {
	switch {
	case math.IsInf(v, -1):
		return "-inf"
	case math.IsInf(v, 1):
		return "+inf"
	default:
		return fmt.Sprintf("%g", v)
	}
}

// Box maps variable names to the interval each variable is constrained to.
// A variable that is absent is unconstrained.
type Box map[string]Interval

// NewBox returns an empty box (all variables unconstrained).
func NewBox() Box {
	return make(Box)
}

// Constrain intersects the current interval of name with iv.
func (b Box) Constrain(name string, iv Interval) {
	cur, ok := b[name]
	if !ok {
		cur = Full()
	}
	b[name] = cur.Intersect(iv)
}

// Get returns the interval for name, defaulting to the full line.
func (b Box) Get(name string) Interval {
	if iv, ok := b[name]; ok {
		return iv
	}
	return Full()
}

// Feasible reports whether every variable's interval is non-empty.
func (b Box) Feasible() bool {
	for _, iv := range b {
		if iv.Empty() {
			return false
		}
	}
	return true
}

// Intersect returns a new box constraining each variable by both inputs.
func (b Box) Intersect(other Box) Box {
	out := make(Box, len(b)+len(other))
	for k, v := range b {
		out[k] = v
	}
	for k, v := range other {
		out.Constrain(k, v)
	}
	return out
}

// Clone returns a deep copy of the box.
func (b Box) Clone() Box {
	out := make(Box, len(b))
	for k, v := range b {
		out[k] = v
	}
	return out
}

// Sample returns a point (one value per constrained variable) inside the box.
// It reports false if the box is empty.
func (b Box) Sample() (map[string]float64, bool) {
	point := make(map[string]float64, len(b))
	for name, iv := range b {
		v, ok := iv.Sample()
		if !ok {
			return nil, false
		}
		point[name] = v
	}
	return point, true
}

// String renders the box with variables in sorted order.
func (b Box) String() string {
	names := make([]string, 0, len(b))
	for name := range b {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, name := range names {
		parts = append(parts, fmt.Sprintf("%s in %s", name, b[name]))
	}
	return strings.Join(parts, ", ")
}
