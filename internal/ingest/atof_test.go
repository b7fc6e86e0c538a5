package ingest

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/alloctest"
)

func TestParseFloatMatchesStrconv(t *testing.T) {
	cases := []string{
		"0", "-0", "1", "-1", "21.5", "40", "100.25", "-273.15",
		"1e3", "1E3", "1e+3", "1e-3", "-2.5e-2", "9.999999999999999",
		"123456789012345", "1234567890123456", // 15 vs 16 digits
		"0.000000000000000000001", "1e22", "1e23", "1e-22", "1e-23",
		"1e308", "1e309", "1e-308", "1e-324", "1e-325", "5e-324",
		"0.1", "0.2", "0.3", "3.141592653589793", "2.718281828459045",
		"18446744073709551615", "18446744073709551616",
	}
	for _, s := range cases {
		want, wantErr := strconv.ParseFloat(s, 64)
		got, ok := ParseFloat([]byte(s))
		if ok != (wantErr == nil) {
			t.Fatalf("ParseFloat(%q) ok=%v, strconv err=%v", s, ok, wantErr)
		}
		if ok && math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("ParseFloat(%q) = %v (%x), strconv %v (%x)",
				s, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

func TestParseFloatRejects(t *testing.T) {
	for _, s := range []string{"", "-", ".", "abc", "1x", "--1", "1.2.3", "NaN?"} {
		if _, ok := ParseFloat([]byte(s)); ok {
			t.Errorf("ParseFloat(%q) accepted", s)
		}
	}
	// Things strconv accepts that JSON does not still parse here — the
	// decoder's number grammar is the JSON gate, ParseFloat is only asked
	// for values it passed.
	for _, s := range []string{"Inf", "+1", "1_000", "0x1p4"} {
		want, err := strconv.ParseFloat(s, 64)
		got, ok := ParseFloat([]byte(s))
		if ok != (err == nil) || (ok && got != want) {
			t.Errorf("ParseFloat(%q) = %v,%v; strconv %v,%v", s, got, ok, want, err)
		}
	}
}

func TestParseFloatRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		var s string
		switch rng.Intn(3) {
		case 0:
			s = strconv.FormatFloat(rng.NormFloat64()*math.Pow10(rng.Intn(40)-20), 'f', rng.Intn(18)-1, 64)
		case 1:
			s = strconv.FormatFloat(math.Float64frombits(rng.Uint64()), 'g', -1, 64)
		case 2:
			s = strconv.FormatInt(rng.Int63()-rng.Int63(), 10)
		}
		want, wantErr := strconv.ParseFloat(s, 64)
		if wantErr != nil || math.IsNaN(want) {
			continue
		}
		got, ok := ParseFloat([]byte(s))
		if !ok || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("ParseFloat(%q) = %v,%v; strconv %v", s, got, ok, want)
		}
	}
}

func TestParseFloatFastZeroAlloc(t *testing.T) {
	if alloctest.Race {
		t.Skip("allocation accounting is skewed under the race detector")
	}
	b := []byte("21.5")
	allocs, _ := alloctest.PerCall(300, func() {
		if _, ok := ParseFloat(b); !ok {
			t.Fatal("parse failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("fast-path ParseFloat allocated %v allocs/op, want 0", allocs)
	}
}
