package intmat

import (
	"math/rand"
	"slices"
	"testing"
)

func TestHNFKnown(t *testing.T) {
	// Rows (2, 0), (1, 3) span a lattice of index 6; its HNF is
	// [[1 3] [0 6]]: subtracting rows gives (1, -3); then (2,0)-2(1,-3)
	// = (0,6); reduce above: (1,-3)+(0,6) = (1,3).
	m := MustFromRows([][]int64{{2, 0}, {1, 3}})
	h, u := HNF(m)
	want := MustFromRows([][]int64{{1, 3}, {0, 6}})
	if !h.Equal(want) {
		t.Errorf("HNF = %s, want %s", h, want)
	}
	um, err := u.Mul(m)
	if err != nil {
		t.Fatalf("Mul: %v", err)
	}
	if !um.Equal(h) {
		t.Errorf("U·m = %s, want %s", um, h)
	}
	du, _ := u.Det()
	if du != 1 && du != -1 {
		t.Errorf("det(U) = %d, want ±1", du)
	}
}

func TestHNFAlreadyCanonical(t *testing.T) {
	m := MustFromRows([][]int64{{2, 1}, {0, 3}})
	h, _ := HNF(m)
	if !h.Equal(m) {
		t.Errorf("HNF of canonical form changed it: %s -> %s", m, h)
	}
}

func TestHNFRandomProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(3)
		m := randomMatrix(rng, n, 6)
		d, _ := m.Det()
		if d == 0 {
			continue
		}
		h, u := HNF(m)
		if !IsSquareFullRankHNF(h) {
			t.Fatalf("HNF(%s) = %s is not canonical", m, h)
		}
		um, err := u.Mul(m)
		if err != nil {
			t.Fatalf("Mul: %v", err)
		}
		if !um.Equal(h) {
			t.Fatalf("U·m = %s != H = %s", um, h)
		}
		du, _ := u.Det()
		if du != 1 && du != -1 {
			t.Fatalf("det(U) = %d, want ±1", du)
		}
		dh, _ := h.Det()
		if dh != abs64(d) {
			t.Fatalf("det(H) = %d, want |det(m)| = %d", dh, abs64(d))
		}
	}
}

func TestHNFCanonicalUnderBasisChange(t *testing.T) {
	// Multiplying by a unimodular matrix must not change the HNF,
	// because the row lattice is the same.
	rng := rand.New(rand.NewSource(11))
	base := MustFromRows([][]int64{{3, 1}, {0, 4}})
	h0, _ := HNF(base)
	for trial := 0; trial < 100; trial++ {
		u := randomUnimodular(rng, 2, 6)
		um, err := u.Mul(base)
		if err != nil {
			t.Fatalf("Mul: %v", err)
		}
		h, _ := HNF(um)
		if !h.Equal(h0) {
			t.Fatalf("HNF not invariant: %s vs %s (U=%s)", h, h0, u)
		}
	}
}

// randomUnimodular builds a unimodular matrix as a product of elementary
// row operations applied to the identity.
func randomUnimodular(rng *rand.Rand, n, ops int) *Matrix {
	u := Identity(n)
	for k := 0; k < ops; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		u.addMultipleOfRow(i, j, rng.Int63n(5)-2)
	}
	return u
}

func TestReduceCanonical(t *testing.T) {
	h := MustFromRows([][]int64{{2, 1}, {0, 3}})
	// Representatives fill the box [0,2) x [0,3): exactly 6 cosets.
	seen := map[[2]int64]bool{}
	for x := int64(-6); x <= 6; x++ {
		for y := int64(-6); y <= 6; y++ {
			r, err := Reduce(h, []int64{x, y})
			if err != nil {
				t.Fatalf("Reduce: %v", err)
			}
			if r[0] < 0 || r[0] >= 2 || r[1] < 0 || r[1] >= 3 {
				t.Fatalf("Reduce(%d,%d) = %v outside fundamental box", x, y, r)
			}
			seen[[2]int64{r[0], r[1]}] = true
		}
	}
	if len(seen) != 6 {
		t.Errorf("distinct representatives = %d, want 6", len(seen))
	}
}

func TestReduceCongruence(t *testing.T) {
	// v and v + lattice vector must reduce identically.
	rng := rand.New(rand.NewSource(3))
	h := MustFromRows([][]int64{{3, 2}, {0, 5}})
	for trial := 0; trial < 500; trial++ {
		v := []int64{rng.Int63n(41) - 20, rng.Int63n(41) - 20}
		a, b := rng.Int63n(9)-4, rng.Int63n(9)-4
		w := []int64{v[0] + a*h.At(0, 0) + b*h.At(1, 0), v[1] + a*h.At(0, 1) + b*h.At(1, 1)}
		rv, err := Reduce(h, v)
		if err != nil {
			t.Fatalf("Reduce: %v", err)
		}
		rw, err := Reduce(h, w)
		if err != nil {
			t.Fatalf("Reduce: %v", err)
		}
		if rv[0] != rw[0] || rv[1] != rw[1] {
			t.Fatalf("congruent vectors reduce differently: %v vs %v", rv, rw)
		}
	}
}

func TestReduceRejectsNonHNF(t *testing.T) {
	m := MustFromRows([][]int64{{1, 0}, {2, 3}}) // lower entry nonzero
	if _, err := Reduce(m, []int64{0, 0}); err == nil {
		t.Error("Reduce accepted a non-HNF matrix")
	}
}

func TestInLattice(t *testing.T) {
	h := MustFromRows([][]int64{{2, 0}, {0, 2}})
	cases := []struct {
		v    []int64
		want bool
	}{
		{[]int64{0, 0}, true},
		{[]int64{2, 0}, true},
		{[]int64{-4, 6}, true},
		{[]int64{1, 0}, false},
		{[]int64{2, 1}, false},
	}
	for _, c := range cases {
		got, err := InLattice(h, c.v)
		if err != nil {
			t.Fatalf("InLattice: %v", err)
		}
		if got != c.want {
			t.Errorf("InLattice(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestIndex(t *testing.T) {
	h := MustFromRows([][]int64{{2, 1}, {0, 3}})
	idx, err := Index(h)
	if err != nil {
		t.Fatalf("Index: %v", err)
	}
	if idx != 6 {
		t.Errorf("Index = %d, want 6", idx)
	}
}

func TestSublatticesOfIndexCount(t *testing.T) {
	// In Z^2 the number of sublattices of index m is σ(m).
	sigma := map[int64]int{1: 1, 2: 3, 3: 4, 4: 7, 5: 6, 6: 12, 8: 15, 12: 28}
	for m, want := range sigma {
		got := slices.Collect(SublatticesOfIndex(2, m))
		if len(got) != want {
			t.Errorf("len(SublatticesOfIndex(2, %d)) = %d, want σ(%d) = %d", m, len(got), m, want)
		}
	}
}

func TestSublatticesOfIndexValid(t *testing.T) {
	for _, m := range []int64{1, 4, 6, 9} {
		for h := range SublatticesOfIndex(3, m) {
			if !IsSquareFullRankHNF(h) {
				t.Errorf("sublattice %s is not canonical HNF", h)
			}
			idx, err := Index(h)
			if err != nil {
				t.Fatalf("Index: %v", err)
			}
			if idx != m {
				t.Errorf("sublattice %s has index %d, want %d", h, idx, m)
			}
		}
	}
}

func TestSublatticesOfIndexDistinct(t *testing.T) {
	seen := map[string]bool{}
	for h := range SublatticesOfIndex(2, 12) {
		s := h.String()
		if seen[s] {
			t.Errorf("duplicate sublattice %s", s)
		}
		seen[s] = true
	}
}

// eagerSublattices is the list-building enumeration SublatticesOfIndex
// replaced, kept as the reference for its order: every diagonal over the
// ordered factorizations of the index, then every off-diagonal filling.
func eagerSublattices(dim int, index int64) []*Matrix {
	var out []*Matrix
	diag := make([]int64, dim)
	var fillDiag func(pos int, rem int64)
	fillDiag = func(pos int, rem int64) {
		if pos == dim {
			if rem == 1 {
				out = append(out, eagerOffDiagonal(diag)...)
			}
			return
		}
		for d := int64(1); d <= rem; d++ {
			if rem%d == 0 {
				diag[pos] = d
				fillDiag(pos+1, rem/d)
			}
		}
	}
	fillDiag(0, index)
	return out
}

// eagerOffDiagonal lists every HNF with the given diagonal: entry (i, j)
// for i < j ranges over [0, diag[j]).
func eagerOffDiagonal(diag []int64) []*Matrix {
	dim := len(diag)
	base := New(dim, dim)
	for i := 0; i < dim; i++ {
		base.Set(i, i, diag[i])
	}
	type pos struct{ i, j int }
	var free []pos
	for j := 1; j < dim; j++ {
		if diag[j] == 1 {
			continue
		}
		for i := 0; i < j; i++ {
			free = append(free, pos{i, j})
		}
	}
	var out []*Matrix
	var rec func(k int)
	rec = func(k int) {
		if k == len(free) {
			out = append(out, base.Clone())
			return
		}
		p := free[k]
		for v := int64(0); v < diag[p.j]; v++ {
			base.Set(p.i, p.j, v)
			rec(k + 1)
		}
		base.Set(p.i, p.j, 0)
	}
	rec(0)
	return out
}

// TestSublatticesOfIndexOrder pins the lazy walk to the eager list it
// replaced, matrix for matrix and in order, in dims 1–4: the tiling
// search returns its first hit, so another order would change the
// period a plan serves. Every yielded matrix is fresh: the test keeps
// them all.
func TestSublatticesOfIndexOrder(t *testing.T) {
	maxIndex := map[int]int64{1: 64, 2: 64, 3: 48, 4: 24}
	for dim := 1; dim <= 4; dim++ {
		for index := int64(1); index <= maxIndex[dim]; index++ {
			got := slices.Collect(SublatticesOfIndex(dim, index))
			want := eagerSublattices(dim, index)
			if len(got) != len(want) {
				t.Fatalf("dim %d index %d: %d matrices, want %d", dim, index, len(got), len(want))
			}
			for k := range want {
				if !got[k].Equal(want[k]) {
					t.Fatalf("dim %d index %d: matrix %d is %s, want %s", dim, index, k, got[k], want[k])
				}
			}
		}
	}
}

// TestSublatticesOfIndexStopsEarly checks that a consumer can stop the
// walk: breaking out of the range loop ends it (a walk that went on
// would panic), and the matrices seen are the list's prefix.
func TestSublatticesOfIndexStopsEarly(t *testing.T) {
	want := eagerSublattices(4, 12)
	var got []*Matrix
	for h := range SublatticesOfIndex(4, 12) {
		got = append(got, h)
		if len(got) == 5 {
			break
		}
	}
	if len(got) != 5 {
		t.Fatalf("got %d matrices, want 5", len(got))
	}
	for k, h := range got {
		if !h.Equal(want[k]) {
			t.Errorf("matrix %d is %s, want %s", k, h, want[k])
		}
	}
}

func TestSublatticesDegenerateArgs(t *testing.T) {
	if got := slices.Collect(SublatticesOfIndex(0, 4)); got != nil {
		t.Errorf("SublatticesOfIndex(0, 4) = %v, want nil", got)
	}
	if got := slices.Collect(SublatticesOfIndex(2, 0)); got != nil {
		t.Errorf("SublatticesOfIndex(2, 0) = %v, want nil", got)
	}
}
