// Package simplex decides feasibility of systems of linear inequalities and
// solves small linear programs with the two-phase simplex method.
//
// The paper's prototype detects rule conflicts by "solving the satisfiability
// of given linear expressions using the Simplex Method" (a C library in the
// original). This package is that substrate, and the conflict checker's
// oracle (conflict.SimplexTermFeasible) still works that way: it conjoins
// the linear inequalities extracted from two rule conditions and asks
// whether the system has a feasible point. The production checker does not
// call the solver: CADEL comparisons bound one variable each, so it
// intersects per-variable intervals instead (package interval).
//
// Strict inequalities (e.g. "temperature > 28") are handled exactly: the
// solver maximizes a shared slack t added to every strict constraint and the
// system is strictly feasible iff the optimum t is positive.
package simplex

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Relation is the comparison operator of a linear constraint.
type Relation int

// Supported constraint relations.
const (
	LE Relation = iota + 1 // <=
	GE                     // >=
	LT                     // <  (strict)
	GT                     // >  (strict)
	EQ                     // ==
)

// String returns the mathematical symbol of the relation.
func (r Relation) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case LT:
		return "<"
	case GT:
		return ">"
	case EQ:
		return "=="
	default:
		return fmt.Sprintf("Relation(%d)", int(r))
	}
}

// Constraint is a linear constraint sum(Coeffs[v]*v) REL RHS over named
// variables.
type Constraint struct {
	Coeffs map[string]float64
	Rel    Relation
	RHS    float64
}

// Bound is a convenience constructor for a single-variable constraint
// `coeff*name rel rhs` with coeff 1.
func Bound(name string, rel Relation, rhs float64) Constraint {
	return Constraint{Coeffs: map[string]float64{name: 1}, Rel: rel, RHS: rhs}
}

// String renders the constraint, variables sorted for determinism.
func (c Constraint) String() string {
	names := make([]string, 0, len(c.Coeffs))
	for name := range c.Coeffs {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	for i, name := range names {
		coef := c.Coeffs[name]
		if i > 0 {
			if coef >= 0 {
				sb.WriteString(" + ")
			} else {
				sb.WriteString(" - ")
				coef = -coef
			}
		} else if coef < 0 {
			sb.WriteString("-")
			coef = -coef
		}
		if coef == 1 {
			sb.WriteString(name)
		} else {
			fmt.Fprintf(&sb, "%g*%s", coef, name)
		}
	}
	if len(names) == 0 {
		sb.WriteString("0")
	}
	fmt.Fprintf(&sb, " %s %g", c.Rel, c.RHS)
	return sb.String()
}

// Result reports the outcome of a feasibility query.
type Result struct {
	// Feasible is true when the system admits at least one point.
	Feasible bool
	// Point is a witness assignment when Feasible is true.
	Point map[string]float64
}

// ErrBadConstraint reports a structurally invalid constraint.
var ErrBadConstraint = errors.New("simplex: invalid constraint")

const (
	eps       = 1e-9
	strictGap = 1e-7 // minimum slack for strict inequalities to count as satisfied
)

// Feasible decides whether the conjunction of the constraints has a solution,
// treating strict relations exactly. An empty system is trivially feasible.
func Feasible(cs []Constraint) (Result, error) {
	if len(cs) == 0 {
		return Result{Feasible: true, Point: map[string]float64{}}, nil
	}
	for _, c := range cs {
		if err := validate(c); err != nil {
			return Result{}, err
		}
	}

	vars := collectVars(cs)
	// Standard form: every original free variable x becomes xPos-xNeg with
	// xPos,xNeg >= 0. Strict constraints additionally receive +t (for <) or
	// -t (for >) where t >= 0 is shared; the LP maximizes t.
	hasStrict := false
	for _, c := range cs {
		if c.Rel == LT || c.Rel == GT {
			hasStrict = true
			break
		}
	}

	nv := 2*len(vars) + 1 // +1 for t even when unused; harmless
	var rows [][]float64
	var rhs []float64
	addRow := func(coeffs map[string]float64, strictSign float64, b float64) {
		row := make([]float64, nv)
		for name, coef := range coeffs {
			idx := indexOf(vars, name)
			row[2*idx] = coef
			row[2*idx+1] = -coef
		}
		row[nv-1] = strictSign
		rows = append(rows, row)
		rhs = append(rhs, b)
	}

	for _, c := range cs {
		switch c.Rel {
		case LE:
			addRow(c.Coeffs, 0, c.RHS)
		case LT:
			addRow(c.Coeffs, 1, c.RHS)
		case GE:
			addRow(negate(c.Coeffs), 0, -c.RHS)
		case GT:
			addRow(negate(c.Coeffs), 1, -c.RHS)
		case EQ:
			addRow(c.Coeffs, 0, c.RHS)
			addRow(negate(c.Coeffs), 0, -c.RHS)
		}
	}
	// Cap t so the phase-2 objective is bounded.
	tCap := make([]float64, nv)
	tCap[nv-1] = 1
	rows = append(rows, tCap)
	rhs = append(rhs, 1)

	obj := make([]float64, nv)
	obj[nv-1] = 1 // maximize t

	value, solution, status := solveStandard(rows, rhs, obj)
	switch status {
	case statusInfeasible:
		return Result{Feasible: false}, nil
	case statusUnbounded:
		// Cannot happen: t is capped at 1 and is the only objective term.
		return Result{}, errors.New("simplex: internal: bounded objective reported unbounded")
	}

	if hasStrict && value < strictGap {
		return Result{Feasible: false}, nil
	}
	point := make(map[string]float64, len(vars))
	for i, name := range vars {
		point[name] = solution[2*i] - solution[2*i+1]
	}
	return Result{Feasible: true, Point: point}, nil
}

// Maximize solves max obj·x subject to the constraints (variables free).
// It returns the optimum value and a maximizing point.
func Maximize(obj map[string]float64, cs []Constraint) (float64, map[string]float64, Status) {
	for _, c := range cs {
		if err := validate(c); err != nil {
			return 0, nil, StatusInfeasible
		}
	}
	all := cs
	vars := collectVars(all)
	for name := range obj {
		if indexOf(vars, name) < 0 {
			vars = append(vars, name)
		}
	}
	sort.Strings(vars)

	nv := 2 * len(vars)
	var rows [][]float64
	var rhs []float64
	addRow := func(coeffs map[string]float64, b float64) {
		row := make([]float64, nv)
		for name, coef := range coeffs {
			idx := indexOf(vars, name)
			row[2*idx] = coef
			row[2*idx+1] = -coef
		}
		rows = append(rows, row)
		rhs = append(rhs, b)
	}
	for _, c := range cs {
		switch c.Rel {
		case LE, LT:
			addRow(c.Coeffs, c.RHS)
		case GE, GT:
			addRow(negate(c.Coeffs), -c.RHS)
		case EQ:
			addRow(c.Coeffs, c.RHS)
			addRow(negate(c.Coeffs), -c.RHS)
		}
	}
	objRow := make([]float64, nv)
	for name, coef := range obj {
		idx := indexOf(vars, name)
		objRow[2*idx] = coef
		objRow[2*idx+1] = -coef
	}
	value, solution, st := solveStandard(rows, rhs, objRow)
	switch st {
	case statusInfeasible:
		return 0, nil, StatusInfeasible
	case statusUnbounded:
		return 0, nil, StatusUnbounded
	}
	point := make(map[string]float64, len(vars))
	for i, name := range vars {
		point[name] = solution[2*i] - solution[2*i+1]
	}
	return value, point, StatusOptimal
}

// Status classifies the outcome of an optimization.
type Status int

// Optimization outcomes.
const (
	StatusOptimal Status = iota + 1
	StatusInfeasible
	StatusUnbounded
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

func validate(c Constraint) error {
	switch c.Rel {
	case LE, GE, LT, GT, EQ:
	default:
		return fmt.Errorf("%w: relation %v", ErrBadConstraint, c.Rel)
	}
	for name, coef := range c.Coeffs {
		if math.IsNaN(coef) || math.IsInf(coef, 0) {
			return fmt.Errorf("%w: coefficient of %q is %v", ErrBadConstraint, name, coef)
		}
	}
	if math.IsNaN(c.RHS) || math.IsInf(c.RHS, 0) {
		return fmt.Errorf("%w: right-hand side %v", ErrBadConstraint, c.RHS)
	}
	return nil
}

func negate(coeffs map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(coeffs))
	for k, v := range coeffs {
		out[k] = -v
	}
	return out
}

func collectVars(cs []Constraint) []string {
	seen := make(map[string]bool)
	var vars []string
	for _, c := range cs {
		for name := range c.Coeffs {
			if !seen[name] {
				seen[name] = true
				vars = append(vars, name)
			}
		}
	}
	sort.Strings(vars)
	return vars
}

func indexOf(vars []string, name string) int {
	i := sort.SearchStrings(vars, name)
	if i < len(vars) && vars[i] == name {
		return i
	}
	return -1
}

type internalStatus int

const (
	statusOptimal internalStatus = iota
	statusInfeasible
	statusUnbounded
)

// solveStandard maximizes obj·x subject to rows·x <= rhs, x >= 0 using the
// two-phase simplex method with Bland's anti-cycling rule on a dense tableau.
// It returns the optimal value and the solution vector.
func solveStandard(rows [][]float64, rhs []float64, obj []float64) (float64, []float64, internalStatus) {
	m := len(rows)
	if m == 0 {
		return 0, make([]float64, len(obj)), statusOptimal
	}
	n := len(rows[0])

	// Tableau layout: columns [0..n) structural, [n..n+m) slack,
	// [n+m..n+2m) artificial (allocated lazily per row), last column RHS.
	// We allocate artificials for every row for simplicity; unneeded ones
	// start non-basic at zero and never enter with a favourable cost.
	total := n + 2*m
	t := make([][]float64, m+1)
	for i := range t {
		t[i] = make([]float64, total+1)
	}
	basis := make([]int, m)

	needPhase1 := false
	for i := 0; i < m; i++ {
		copy(t[i], rows[i])
		b := rhs[i]
		if b < 0 {
			for j := 0; j < n; j++ {
				t[i][j] = -t[i][j]
			}
			b = -b
			t[i][n+i] = -1 // slack becomes surplus
			t[i][n+m+i] = 1
			basis[i] = n + m + i
			needPhase1 = true
		} else {
			t[i][n+i] = 1
			basis[i] = n + i
		}
		t[i][total] = b
	}

	if needPhase1 {
		// Phase-1 objective: minimize sum of artificials == maximize -sum.
		// In row form (z - obj·x = 0) every artificial column carries +1;
		// basic artificials are then priced out by subtracting their rows.
		w := t[m]
		for j := range w {
			w[j] = 0
		}
		for j := n + m; j < total; j++ {
			w[j] = 1
		}
		for i := 0; i < m; i++ {
			if basis[i] >= n+m {
				for j := 0; j <= total; j++ {
					w[j] -= t[i][j]
				}
			}
		}
		if st := pivotLoop(t, basis, total); st == statusUnbounded {
			return 0, nil, statusInfeasible
		}
		if t[m][total] < -eps {
			return 0, nil, statusInfeasible
		}
		// Drive any artificial still in the basis out (degenerate rows).
		for i := 0; i < m; i++ {
			if basis[i] < n+m {
				continue
			}
			pivoted := false
			for j := 0; j < n+m; j++ {
				if math.Abs(t[i][j]) > eps {
					pivot(t, basis, i, j, total)
					pivoted = true
					break
				}
			}
			if !pivoted {
				// Row is all zeros: redundant constraint; leave it.
				continue
			}
		}
	}

	// Erase artificial columns so they can never re-enter the basis. Any
	// artificial still basic sits on an all-zero redundant row with value 0
	// and is inert from here on.
	for i := 0; i <= m; i++ {
		for j := n + m; j < total; j++ {
			t[i][j] = 0
		}
	}

	// Phase-2 objective row: z - obj·x = 0 expressed in current basis.
	z := t[m]
	for j := range z {
		z[j] = 0
	}
	for j := 0; j < n; j++ {
		z[j] = -obj[j]
	}
	// Express objective in terms of the basis (price out basic columns).
	for i := 0; i < m; i++ {
		col := basis[i]
		if col >= n+m {
			continue // inert artificial on a redundant row
		}
		coef := z[col]
		if coef == 0 {
			continue
		}
		for j := 0; j <= total; j++ {
			z[j] -= coef * t[i][j]
		}
		z[col] = 0
	}

	if st := pivotLoop(t, basis, total); st == statusUnbounded {
		return 0, nil, statusUnbounded
	}

	solution := make([]float64, n)
	for i := 0; i < m; i++ {
		if basis[i] < n {
			solution[basis[i]] = t[i][total]
		}
	}
	return t[m][total], solution, statusOptimal
}

// pivotLoop runs simplex iterations on tableau t (last row is the objective)
// until optimality or unboundedness, using Bland's rule.
func pivotLoop(t [][]float64, basis []int, total int) internalStatus {
	m := len(basis)
	for iter := 0; ; iter++ {
		if iter > 10000*(m+4) {
			// Bland's rule guarantees termination; this is a defensive cap.
			return statusOptimal
		}
		// Entering column: smallest index with negative reduced cost (Bland).
		enter := -1
		for j := 0; j < total; j++ {
			if t[m][j] < -eps {
				enter = j
				break
			}
		}
		if enter < 0 {
			return statusOptimal
		}
		// Leaving row: min ratio, ties by smallest basis index (Bland).
		leave := -1
		best := math.Inf(1)
		for i := 0; i < m; i++ {
			if t[i][enter] > eps {
				ratio := t[i][total] / t[i][enter]
				if ratio < best-eps || (math.Abs(ratio-best) <= eps && (leave < 0 || basis[i] < basis[leave])) {
					best = ratio
					leave = i
				}
			}
		}
		if leave < 0 {
			return statusUnbounded
		}
		pivot(t, basis, leave, enter, total)
	}
}

func pivot(t [][]float64, basis []int, row, col, total int) {
	p := t[row][col]
	for j := 0; j <= total; j++ {
		t[row][j] /= p
	}
	for i := range t {
		if i == row {
			continue
		}
		factor := t[i][col]
		if factor == 0 {
			continue
		}
		for j := 0; j <= total; j++ {
			t[i][j] -= factor * t[row][j]
		}
		t[i][col] = 0
	}
	basis[row] = col
}
