package intmat

import (
	"math/rand"
	"testing"
)

func TestSNFKnown(t *testing.T) {
	cases := []struct {
		rows [][]int64
		want []int64
	}{
		{[][]int64{{2, 0}, {0, 2}}, []int64{2, 2}},
		{[][]int64{{1, 0}, {0, 6}}, []int64{1, 6}},
		{[][]int64{{2, 4}, {4, 2}}, []int64{2, 6}},
		{[][]int64{{2, 0}, {1, 3}}, []int64{1, 6}},
		{[][]int64{{1, 2, 3}, {4, 5, 6}, {7, 8, 10}}, []int64{1, 1, 3}},
	}
	for _, c := range cases {
		m := MustFromRows(c.rows)
		got, err := InvariantFactors(m)
		if err != nil {
			t.Fatalf("InvariantFactors(%s): %v", m, err)
		}
		if len(got) != len(c.want) {
			t.Errorf("InvariantFactors(%s) = %v, want %v", m, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("InvariantFactors(%s) = %v, want %v", m, got, c.want)
				break
			}
		}
	}
}

func TestSNFDivisibilityChain(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(3)
		m := randomMatrix(rng, n, 6)
		d, err := SNF(m)
		if err != nil {
			t.Fatalf("SNF: %v", err)
		}
		// Diagonal, non-negative, each divides the next (0 handled:
		// nothing divides into nonzero after a zero).
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && d.At(i, j) != 0 {
					t.Fatalf("SNF(%s) = %s not diagonal", m, d)
				}
			}
			if d.At(i, i) < 0 {
				t.Fatalf("SNF(%s) has negative factor", m)
			}
		}
		for i := 0; i+1 < n; i++ {
			a, b := d.At(i, i), d.At(i+1, i+1)
			if a == 0 && b != 0 {
				t.Fatalf("SNF(%s) = %s: zero before nonzero", m, d)
			}
			if a != 0 && b%a != 0 {
				t.Fatalf("SNF(%s) = %s: %d does not divide %d", m, d, a, b)
			}
		}
	}
}

func TestSNFPreservesDeterminant(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(3)
		m := randomMatrix(rng, n, 5)
		dm, _ := m.Det()
		d, err := SNF(m)
		if err != nil {
			t.Fatalf("SNF: %v", err)
		}
		dd, _ := d.Det()
		if dd != abs64(dm) {
			t.Fatalf("det(SNF(%s)) = %d, want |%d|", m, dd, dm)
		}
	}
}

func TestSNFMatchesHNFIndex(t *testing.T) {
	// Product of invariant factors equals lattice index for full-rank m.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		m := randomMatrix(rng, 2, 5)
		dm, _ := m.Det()
		if dm == 0 {
			continue
		}
		inv, err := InvariantFactors(m)
		if err != nil {
			t.Fatalf("InvariantFactors: %v", err)
		}
		prod := int64(1)
		for _, f := range inv {
			prod *= f
		}
		if prod != abs64(dm) {
			t.Fatalf("product of invariant factors %v = %d, want %d", inv, prod, abs64(dm))
		}
	}
}

func TestSNFNonSquare(t *testing.T) {
	if _, err := SNF(New(2, 3)); err == nil {
		t.Error("SNF of non-square succeeded, want error")
	}
}

func TestSNFSingular(t *testing.T) {
	m := MustFromRows([][]int64{{1, 2}, {2, 4}})
	inv, err := InvariantFactors(m)
	if err != nil {
		t.Fatalf("InvariantFactors: %v", err)
	}
	if len(inv) != 1 || inv[0] != 1 {
		t.Errorf("InvariantFactors(singular) = %v, want [1]", inv)
	}
}

// TestSmithFormTransform checks the column transform SmithForm returns on
// random full-rank HNF bases and on general square matrices: V is
// unimodular, column k of H·V is ≡ 0 (mod D_k) for every k, and the
// invariant factors multiply to |det H|. Together these make
// p ↦ (p·V) mod D the quotient map onto Z^d / rowspan(H).
func TestSmithFormTransform(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(4)
		m := randomMatrix(rng, n, 7)
		det, _ := m.Det()
		if det == 0 {
			continue
		}
		if trial%2 == 0 {
			m, _ = HNF(m)
		}
		d, v, err := SmithForm(m)
		if err != nil {
			t.Fatalf("SmithForm(%s): %v", m, err)
		}
		if dv, _ := v.Det(); dv != 1 && dv != -1 {
			t.Fatalf("SmithForm(%s): det V = %d, want ±1 (V = %s)", m, dv, v)
		}
		sf, _ := SNF(m)
		if !sf.Equal(d) {
			t.Fatalf("SmithForm(%s) D = %s, SNF = %s", m, d, sf)
		}
		mv, _ := m.Mul(v)
		prod := int64(1)
		for k := 0; k < n; k++ {
			dk := d.At(k, k)
			prod *= dk
			for i := 0; i < n; i++ {
				if Mod(mv.At(i, k), dk) != 0 {
					t.Fatalf("SmithForm(%s): (H·V)[%d][%d] = %d not ≡ 0 mod %d", m, i, k, mv.At(i, k), dk)
				}
			}
		}
		if prod != abs64(det) {
			t.Fatalf("SmithForm(%s): ∏D = %d, want |det| = %d", m, prod, abs64(det))
		}
	}
}

// TestSmithFormQuotientMap checks the row-convention claim on small
// bases directly: p is in the row lattice exactly when every
// (p·V)_k ≡ 0 (mod D_k), against InLattice over a box of points.
func TestSmithFormQuotientMap(t *testing.T) {
	bases := [][][]int64{
		{{2, 1}, {0, 2}},                  // tetromino:T's period, cyclic of order 4
		{{2, 0}, {0, 2}},                  // 2Z×2Z, not cyclic
		{{1, 2}, {0, 5}},                  // cross:2:1
		{{1, 0, 3}, {0, 1, 2}, {0, 0, 7}}, // (1,…,1,m) in 3-D
		{{2, 1, 0}, {0, 3, 1}, {0, 0, 2}},
	}
	for _, rows := range bases {
		h := MustFromRows(rows)
		d, v, err := SmithForm(h)
		if err != nil {
			t.Fatal(err)
		}
		n := h.Rows()
		p := make([]int64, n)
		var walk func(a int)
		walk = func(a int) {
			if a == n {
				in, err := InLattice(h, p)
				if err != nil {
					t.Fatal(err)
				}
				zero := true
				for k := 0; k < n; k++ {
					var s int64
					for i := 0; i < n; i++ {
						s += p[i] * v.At(i, k)
					}
					if Mod(s, d.At(k, k)) != 0 {
						zero = false
					}
				}
				if in != zero {
					t.Fatalf("H = %s, p = %v: InLattice %v, (p·V) mod D zero %v", h, p, in, zero)
				}
				return
			}
			for x := int64(-6); x <= 6; x++ {
				p[a] = x
				walk(a + 1)
			}
		}
		walk(0)
	}
}
