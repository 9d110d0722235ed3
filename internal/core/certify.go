package core

import (
	"errors"
	"fmt"

	"tilingsched/internal/intmat"
	"tilingsched/internal/lattice"
	"tilingsched/internal/prototile"
)

// ErrUncertified reports that the slot function a plan would serve failed
// its collision-freedom certificate. NewPlan and NewPlanWithPeriod never
// return such a plan; the service answers 500 and caches nothing.
var ErrUncertified = errors.New("core: plan failed its collision-freedom certificate")

// certify proves that slotOf, the function a plan serves, is a
// collision-free Theorem 1 schedule on all of Z^d, not just on a sample,
// and returns the number of checks the proof ran: HNF reductions plus
// slot-function evaluations. h is the HNF of the translate lattice T and
// m = |N|.
//
// The proof relies on one structural fact of internal/tiling's index:
// slotOf(p) = table[φ(p)] for a homomorphism φ from Z^d onto a group G
// of m elements (the Smith-form index). The checks are:
//
//  1. The m tile points have pairwise distinct canonical representatives
//     modulo h, so no nonzero d ∈ N − N lies in T: the Theorem 1
//     condition, by HNF reduction alone and independent of slotOf. It
//     also puts N in m distinct cosets, so det h ≥ m.
//  2. For each of the det h representatives r in the HNF box
//     ∏_i [0, h_ii), s(r) ∈ [0, m) and no other representative has the
//     same slot; so det h = m, φ maps the box one-to-one onto G, and the
//     table is one-to-one on G: s(p) = s(q) exactly when φ(p) = φ(q).
//  3. s(h_i) = s(0) for every HNF row h_i, so φ(T) = 0 and s is
//     T-periodic.
//  4. s(n_k) = k for every tile point n_k: the slots are Theorem 1's
//     labels, not merely some collision-free relabelling. By step 2,
//     s(n_j) ≠ s(n_k) means φ(n_j − n_k) ≠ 0, so for every p and every
//     nonzero d ∈ N − N, s(p + d) ≠ s(p): no two sensors whose
//     neighbourhoods overlap share a slot anywhere.
//
// By step 2 a check of steps 3 and 4 from any other base point would
// prove nothing more, so the proof runs 3m + d checks, linear in the
// tile size however sparse the tile.
func certify(tile *prototile.Tile, h *intmat.Matrix, slotOf func(lattice.Point) (int, error)) (int, error) {
	checks := 0
	dim, m := tile.Dim(), tile.Size()
	uncertified := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s: %s", ErrUncertified, tile.Name(), fmt.Sprintf(format, args...))
	}
	pts := tile.Points()
	reps := make(map[string]lattice.Point, m)
	for _, n := range pts {
		checks++
		rep, err := intmat.Reduce(h, n.Int64())
		if err != nil {
			return 0, uncertified("%v", err)
		}
		key := lattice.FromInt64(rep).Key()
		if prev, ok := reps[key]; ok {
			return 0, uncertified("difference %v of two tile points is a translate", n.Sub(prev))
		}
		reps[key] = n
	}
	sides := make([]int, dim)
	for i := range sides {
		sides[i] = int(h.At(i, i))
	}
	box, err := lattice.BoxWindow(sides...)
	if err != nil {
		return 0, uncertified("%v", err)
	}
	seen := make([]bool, m)
	box.Each(func(r lattice.Point) bool {
		checks++
		s, serr := slotOf(r)
		if serr != nil || s < 0 || s >= m || seen[s] {
			err = uncertified("representative %v has slot %d (%v), not a fresh slot in [0, %d)", r, s, serr, m)
			return false
		}
		seen[s] = true
		return true
	})
	if err != nil {
		return 0, err
	}
	s0, err := slotOf(lattice.Origin(dim))
	if err != nil {
		return 0, uncertified("origin: %v", err)
	}
	for i := 0; i < dim; i++ {
		checks++
		row := lattice.FromInt64(h.Row(i))
		if t, serr := slotOf(row); serr != nil || t != s0 {
			return 0, uncertified("s(0) = %d but s(period row %v) = %d", s0, row, t)
		}
	}
	for k, n := range pts {
		checks++
		if s, serr := slotOf(n); serr != nil || s != k {
			return 0, uncertified("tile point %v has slot %d, want %d", n, s, k)
		}
	}
	return checks, nil
}
