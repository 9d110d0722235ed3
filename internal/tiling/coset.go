package tiling

import (
	"fmt"
	"math"

	"tilingsched/internal/intmat"
	"tilingsched/internal/lattice"
)

// cosetTable is the dense slot index shared by PeriodicTiling (and so
// LatticeTiling) and Residues: a flat array over the det(H) residues of
// Z^d modulo the period lattice T, the row span of the HNF H.
//
// The index is closed-form. The Smith form U·H·V = D makes
// p ↦ ((p·V)_k mod D_k)_k the quotient map Z^d → Z^d/T ≅ ⊕_k Z/D_k, so a
// residue's index is a mixed-radix number over the invariant factors
// D_k > 1 whose digits are (p·c_k) mod D_k, with c_k = V[:,k] mod D_k.
// A lookup is one dot product and one mod per such factor, one of each
// for a cyclic quotient, plus one table read: no HNF reduction, no
// hashing and no allocation.
type cosetTable struct {
	h     *intmat.Matrix
	dim   int
	mods  []int64 // the invariant factors D_k > 1
	coef  []int64 // c_k for each factor, dim entries each, all in [0, D_k)
	radix []int   // mixed-radix weights over mods, last factor fastest
	// lim bounds the coordinates whose dot products stay inside int64:
	// |p_i| ≤ lim for every i keeps Σ_i |p_i|·c_ki ≤ MaxInt64 for every k.
	lim  int64
	slot []int32 // residue index → slot, -1 while unassigned
}

// newCosetTable validates that h is a square full-rank HNF, derives the
// Smith-form index, and allocates the (initially unassigned) residue
// table of size det(h).
func newCosetTable(h *intmat.Matrix) (*cosetTable, error) {
	if !intmat.IsSquareFullRankHNF(h) {
		return nil, fmt.Errorf("%w: period basis is not a full-rank HNF", ErrTiling)
	}
	dim := h.Rows()
	det := int64(1)
	for i := 0; i < dim; i++ {
		d := h.At(i, i)
		if det > int64(math.MaxInt32)/d {
			return nil, fmt.Errorf("%w: sublattice index %v overflows the residue table", ErrTiling, h)
		}
		det *= d
	}
	d, v, err := intmat.SmithForm(h)
	if err != nil {
		return nil, err
	}
	ct := &cosetTable{h: h, dim: dim, lim: math.MaxInt64, mods: make([]int64, 0, dim), coef: make([]int64, 0, dim*dim)}
	for k := 0; k < dim; k++ {
		m := d.At(k, k)
		if m == 1 {
			continue
		}
		ct.mods = append(ct.mods, m)
		var sum int64
		for i := 0; i < dim; i++ {
			c := intmat.Mod(v.At(i, k), m)
			ct.coef = append(ct.coef, c)
			sum += c
		}
		if sum > 0 {
			ct.lim = min(ct.lim, math.MaxInt64/sum)
		}
	}
	ct.radix = make([]int, len(ct.mods))
	size := 1
	for k := len(ct.mods) - 1; k >= 0; k-- {
		ct.radix[k] = size
		size *= int(ct.mods[k])
	}
	if int64(size) != det {
		return nil, fmt.Errorf("%w: invariant factors of %v multiply to %d, want det %d", ErrTiling, h, size, det)
	}
	// Each period vector must index residue 0; the SNF transform makes it
	// so, and a table built on a wrong transform would serve wrong slots.
	row := make(lattice.Point, dim)
	for i := 0; i < dim; i++ {
		for j := range row {
			row[j] = int(h.At(i, j))
		}
		if idx, _ := ct.residueIndex(row); idx != 0 {
			return nil, fmt.Errorf("%w: period row %d of %v indexes residue %d, want 0", ErrTiling, i, h, idx)
		}
	}
	ct.slot = make([]int32, size)
	for i := range ct.slot {
		ct.slot[i] = -1
	}
	return ct, nil
}

// size returns det(h), the number of residues.
func (ct *cosetTable) size() int { return len(ct.slot) }

// box returns the fundamental box ∏_i [0, H_ii) of the HNF: one canonical
// representative per residue, in lexicographic order.
func (ct *cosetTable) box() lattice.Window {
	sides := make([]int, ct.dim)
	for i := range sides {
		sides[i] = int(ct.h.At(i, i))
	}
	w, err := lattice.BoxWindow(sides...)
	if err != nil {
		// Every side is a positive HNF diagonal entry.
		panic(fmt.Sprintf("tiling: fundamental box of %v: %v", ct.h, err))
	}
	return w
}

// residueIndex returns the dense index of p's residue:
// Σ_k radix_k · ((p·c_k) mod D_k). It allocates nothing; ok is false only
// on a dimension mismatch.
func (ct *cosetTable) residueIndex(p lattice.Point) (int, bool) {
	if len(p) != ct.dim {
		return 0, false
	}
	idx := 0
	for k, m := range ct.mods {
		c := ct.coef[k*ct.dim : (k+1)*ct.dim]
		c = c[:len(p)]
		var s int64
		for i, x := range p {
			if int64(x) > ct.lim || int64(x) < -ct.lim {
				return ct.wideIndex(p), true
			}
			s += int64(x) * c[i]
		}
		s %= m
		if s < 0 {
			s += m
		}
		idx += int(s) * ct.radix[k]
	}
	return idx, true
}

// wideIndex is residueIndex for a point with a coordinate beyond lim:
// each coordinate is reduced mod D_k before it is multiplied, so every
// product stays below D_k² < 2^62.
func (ct *cosetTable) wideIndex(p lattice.Point) int {
	idx := 0
	for k, m := range ct.mods {
		c := ct.coef[k*ct.dim : (k+1)*ct.dim]
		var s int64
		for i, x := range p {
			s = (s + intmat.Mod(int64(x), m)*c[i]) % m
		}
		idx += int(s) * ct.radix[k]
	}
	return idx
}

// slotOf returns the slot assigned to p's residue; ok is false only on a
// dimension mismatch (every residue is assigned once construction
// completes).
func (ct *cosetTable) slotOf(p lattice.Point) (int, bool) {
	idx, ok := ct.residueIndex(p)
	if !ok {
		return 0, false
	}
	return int(ct.slot[idx]), true
}

// assign binds p's residue to slot k, reporting the previously assigned
// slot when the residue is already taken (a tiling-condition violation at
// construction time).
func (ct *cosetTable) assign(p lattice.Point, k int) (prev int, dup bool, err error) {
	idx, ok := ct.residueIndex(p)
	if !ok {
		return 0, false, fmt.Errorf("%w: point %v has dimension %d, want %d", ErrTiling, p, len(p), ct.dim)
	}
	if s := ct.slot[idx]; s >= 0 {
		return int(s), true, nil
	}
	ct.slot[idx] = int32(k)
	return 0, false, nil
}
