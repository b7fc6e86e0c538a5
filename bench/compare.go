package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// spec is the part of BENCHMARK.json compare needs.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compare prints, for every workload and end-to-end metric, the median and
// quartiles of the untraced runs in result files a (the parent) and b (the
// change), and a verdict against the metric's bound: within, worse, better
// (every b run beats every a run), or unresolved (a set's quartile spread
// is wider than the bound). It reports whether any verdict is worse.
func compare(w io.Writer, specPath, a, b string) (bool, error) {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	runsA, err := readResults(a)
	if err != nil {
		return false, err
	}
	runsB, err := readResults(b)
	if err != nil {
		return false, err
	}
	var names []string
	for name := range runsA {
		if _, ok := runsB[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return false, fmt.Errorf("no workload has untraced runs in both %s and %s", a, b)
	}
	worse := false
	fmt.Fprintf(w, "%-14s %-17s %5s %28s %28s %8s %6s  %s\n", "workload", "metric", "runs", "A median [q1, q3]", "B median [q1, q3]", "change", "bound", "verdict")
	for _, name := range names {
		for _, m := range sp.EndToEnd {
			va, vb := values(runsA[name], m.Name), values(runsB[name], m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			qa, qb := quartiles(va), quartiles(vb)
			change := qb[1]/qa[1] - 1
			if m.Better == "higher" {
				change = -change
			}
			verdict := "within"
			switch {
			case allBetter(va, vb, m.Better == "higher"):
				verdict = "better"
			case spread(qa) > m.Bound || spread(qb) > m.Bound:
				verdict = "unresolved"
			case change > m.Bound:
				verdict = "worse"
				worse = true
			}
			fmt.Fprintf(w, "%-14s %-17s %2d/%-2d %28s %28s %+7.1f%% %5.0f%%  %s\n", name, m.Name, len(va), len(vb),
				fmtQ(qa), fmtQ(qb), 100*change, 100*m.Bound, verdict)
		}
	}
	return worse, nil
}

// readResults loads a result file's untraced runs, by workload.
func readResults(path string) (map[string][]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Meta.Traced {
			out[r.Meta.Workload] = append(out[r.Meta.Workload], r)
		}
	}
	return out, sc.Err()
}

func values(runs []result, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// quartiles returns q1, median and q3 the way Python's
// statistics.quantiles(values, n=4) computes them (exclusive method).
func quartiles(v []float64) [3]float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	n, m := 4, len(s)+1
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), len(s)-1)
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return q
}

// spread is the quartile distance as a share of the median.
func spread(q [3]float64) float64 {
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / q[1]
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(a, b []float64, higher bool) bool {
	sa, sb := append([]float64(nil), a...), append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	if higher {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

func fmtQ(q [3]float64) string {
	return fmt.Sprintf("%s [%s, %s]", fmtV(q[1]), fmtV(q[0]), fmtV(q[2]))
}

// fmtV prints four significant digits, and large values whole.
func fmtV(v float64) string {
	if math.Abs(v) >= 1e4 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4g", v)
}
