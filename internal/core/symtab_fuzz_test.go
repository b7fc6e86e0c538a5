package core

import (
	"strings"
	"testing"
	"time"
)

// FuzzSymtabResolve drives an interned context and a string-keyed reference
// context through the same byte-derived operation stream and asserts the
// invariants the engine's hot path rests on:
//
//   - interning is collision-free and stable (same name ↔ same dense id),
//   - qualified/unqualified resolution through the per-generation cache is
//     byte-identical to the reference suffix-scan-and-sort, no matter how
//     writes (population growth), reads (cache fills) and re-reads (cache
//     hits) interleave,
//   - the interned store renders the same string map view (Clone).
//
// Ops are decoded from the fuzz input: each byte triple picks an action
// (write number / write bool / read number / read bool), a name from a
// derived alphabet (mixing unqualified, qualified and nested-qualified
// forms) and a value.
func FuzzSymtabResolve(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte("temperature/living room"))
	f.Add([]byte{0, 0, 0, 2, 0, 0, 1, 1, 1, 3, 1, 1, 0, 5, 9})
	f.Add([]byte{255, 254, 253, 252, 251, 250, 128, 64, 32, 16, 8, 4, 2, 1, 0})

	bases := []string{"temperature", "humidity", "power", "dark", "a"}
	quals := []string{"", "living room", "kitchen", "hall", "b", "b/c"}

	f.Fuzz(func(t *testing.T, data []byte) {
		tab := NewSymtab()
		now := time.Date(2005, 3, 7, 18, 0, 0, 0, time.UTC)
		in := NewInternedContext(now, tab)
		ref := NewContext(now)

		name := func(b byte) string {
			base := bases[int(b>>4)%len(bases)]
			q := quals[int(b&0x0f)%len(quals)]
			if q == "" {
				return base
			}
			return q + "/" + base
		}

		for i := 0; i+2 < len(data); i += 3 {
			op, nb, vb := data[i], data[i+1], data[i+2]
			n := name(nb)
			switch op % 4 {
			case 0:
				in.SetNumber(n, float64(vb))
				ref.SetNumber(n, float64(vb))
			case 1:
				in.SetBool(n, vb%2 == 0)
				ref.SetBool(n, vb%2 == 0)
			case 2:
				gv, gok := in.Number(n)
				wv, wok := ref.Number(n)
				if gv != wv || gok != wok {
					t.Fatalf("op %d: Number(%q) interned = %v,%v, reference = %v,%v",
						i, n, gv, gok, wv, wok)
				}
			case 3:
				gv, gok := in.Bool(n)
				wv, wok := ref.Bool(n)
				if gv != wv || gok != wok {
					t.Fatalf("op %d: Bool(%q) interned = %v,%v, reference = %v,%v",
						i, n, gv, gok, wv, wok)
				}
			}
		}

		// Interning invariants: dense ids, perfect round-trips, no
		// collisions.
		seen := make(map[uint32]string, tab.Len())
		for _, base := range bases {
			for _, q := range quals {
				n := base
				if q != "" {
					n = q + "/" + base
				}
				id := tab.Intern(n)
				if int(id) >= tab.Len() {
					t.Fatalf("id %d out of dense range %d", id, tab.Len())
				}
				if got := tab.Name(id); got != n {
					t.Fatalf("Name(Intern(%q)) = %q", n, got)
				}
				if prev, dup := seen[id]; dup && prev != n {
					t.Fatalf("id %d assigned to both %q and %q", id, prev, n)
				}
				seen[id] = n
				if again := tab.Intern(n); again != id {
					t.Fatalf("Intern(%q) unstable: %d then %d", n, id, again)
				}
			}
		}

		// After arbitrary interleaving, every name (and every suffix form)
		// must still resolve identically, and the map views must agree.
		for _, base := range bases {
			for _, q := range append([]string{""}, quals...) {
				n := base
				if q != "" {
					n = q + "/" + base
				}
				gv, gok := in.Number(n)
				wv, wok := ref.Number(n)
				if gv != wv || gok != wok {
					t.Fatalf("final Number(%q): interned = %v,%v, reference = %v,%v", n, gv, gok, wv, wok)
				}
				gb, gbok := in.Bool(n)
				wb, wbok := ref.Bool(n)
				if gb != wb || gbok != wbok {
					t.Fatalf("final Bool(%q): interned = %v,%v, reference = %v,%v", n, gb, gbok, wb, wbok)
				}
			}
		}
		view := in.Clone()
		if len(view.Numbers) != len(ref.Numbers) || len(view.Bools) != len(ref.Bools) {
			t.Fatalf("map views diverged: %d/%d numbers, %d/%d bools",
				len(view.Numbers), len(ref.Numbers), len(view.Bools), len(ref.Bools))
		}
		for k, v := range ref.Numbers {
			if got, ok := view.Numbers[k]; !ok || got != v {
				t.Fatalf("interned Numbers[%q] = %v,%v, want %v", k, got, ok, v)
			}
			if strings.Contains(k, "//") {
				t.Fatalf("malformed key %q escaped the alphabet", k)
			}
		}
	})
}
