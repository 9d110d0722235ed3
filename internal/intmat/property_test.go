package intmat

import (
	"math/rand"
	"slices"
	"testing"
)

// Property: HNF is idempotent — the canonical form of a canonical form is
// itself.
func TestHNFIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(3)
		m := randomMatrix(rng, n, 6)
		if d, _ := m.Det(); d == 0 {
			continue
		}
		h1, _ := HNF(m)
		h2, _ := HNF(h1)
		if !h1.Equal(h2) {
			t.Fatalf("HNF not idempotent: %s -> %s", h1, h2)
		}
	}
}

// Property: Reduce is idempotent and lands in the fundamental box.
func TestReduceIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 300; trial++ {
		m := randomMatrix(rng, 2, 6)
		if d, _ := m.Det(); d == 0 {
			continue
		}
		h, _ := HNF(m)
		v := []int64{rng.Int63n(201) - 100, rng.Int63n(201) - 100}
		r1, err := Reduce(h, v)
		if err != nil {
			t.Fatalf("Reduce: %v", err)
		}
		r2, err := Reduce(h, r1)
		if err != nil {
			t.Fatalf("Reduce: %v", err)
		}
		for i := range r1 {
			if r1[i] != r2[i] {
				t.Fatalf("Reduce not idempotent: %v -> %v", r1, r2)
			}
			if r1[i] < 0 || r1[i] >= h.At(i, i) {
				t.Fatalf("Reduce(%v) = %v outside box of %s", v, r1, h)
			}
		}
	}
}

// Property: the difference between a vector and its reduction lies in the
// lattice.
func TestReduceDifferenceInLattice(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 300; trial++ {
		m := randomMatrix(rng, 2, 5)
		if d, _ := m.Det(); d == 0 {
			continue
		}
		h, _ := HNF(m)
		v := []int64{rng.Int63n(101) - 50, rng.Int63n(101) - 50}
		r, err := Reduce(h, v)
		if err != nil {
			t.Fatalf("Reduce: %v", err)
		}
		diff := []int64{v[0] - r[0], v[1] - r[1]}
		in, err := InLattice(h, diff)
		if err != nil {
			t.Fatalf("InLattice: %v", err)
		}
		if !in {
			t.Fatalf("v - Reduce(v) = %v not in lattice %s", diff, h)
		}
	}
}

// Property: SNF invariant factors are invariant under unimodular
// multiplication on either side.
func TestSNFUnimodularInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 150; trial++ {
		m := randomMatrix(rng, 2, 5)
		u := randomUnimodular(rng, 2, 5)
		um, err := u.Mul(m)
		if err != nil {
			t.Fatalf("Mul: %v", err)
		}
		f1, err := InvariantFactors(m)
		if err != nil {
			t.Fatalf("InvariantFactors: %v", err)
		}
		f2, err := InvariantFactors(um)
		if err != nil {
			t.Fatalf("InvariantFactors: %v", err)
		}
		if len(f1) != len(f2) {
			t.Fatalf("factor counts differ: %v vs %v", f1, f2)
		}
		for i := range f1 {
			if f1[i] != f2[i] {
				t.Fatalf("factors differ under unimodular action: %v vs %v", f1, f2)
			}
		}
	}
}

// Property: every sublattice enumerated for index m is distinct as a
// lattice — no two HNFs define the same sublattice. Because an index-m
// sublattice contains mZ², membership on the box [0, m)² determines the
// lattice completely, so comparing membership there is an exact check
// independent of the HNF canonicalization.
func TestSublatticesPairwiseDistinct(t *testing.T) {
	const m = 6
	subs := slices.Collect(SublatticesOfIndex(2, m))
	signature := func(h *Matrix) string {
		sig := make([]byte, 0, m*m)
		for x := int64(0); x < m; x++ {
			for y := int64(0); y < m; y++ {
				in, err := InLattice(h, []int64{x, y})
				if err != nil {
					t.Fatalf("InLattice: %v", err)
				}
				if in {
					sig = append(sig, '1')
				} else {
					sig = append(sig, '0')
				}
			}
		}
		return string(sig)
	}
	seen := map[string]*Matrix{}
	for _, h := range subs {
		sig := signature(h)
		if other, dup := seen[sig]; dup {
			t.Fatalf("sublattices %s and %s are the same lattice", other, h)
		}
		seen[sig] = h
	}
}
