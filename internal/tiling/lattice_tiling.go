// Package tiling implements tilings of lattices by translates of
// prototiles — Section 2 of the paper.
//
// A subset T ⊆ L tiles L with a prototile N when (T1) the translates
// t + N cover L and (T2) distinct translates are disjoint. This package
// provides two complementary representations:
//
//   - LatticeTiling: T is a full-rank sublattice of Z^d and N is a
//     transversal (complete set of coset representatives) of Z^d / T.
//     This form is exact — T1/T2 are verified group-theoretically with no
//     finite-window approximation — and every polyomino that tiles by
//     translation admits such a tiling.
//   - TorusTiling: an explicit exact cover of a torus quotient by
//     placements of one or more prototiles, found by backtracking. This
//     form expresses the multi-prototile tilings of Section 4 (conditions
//     GT1/GT2), including the paper's Figure 5 S/Z-tetromino examples.
package tiling

import (
	"errors"
	"fmt"

	"tilingsched/internal/intmat"
	"tilingsched/internal/lattice"
	"tilingsched/internal/prototile"
)

// ErrTiling indicates an invalid tiling construction or a failed
// verification.
var ErrTiling = errors.New("tiling: invalid tiling")

// LatticeTiling is a tiling of Z^d whose translate set T is a full-rank
// sublattice, given by its Hermite-normal-form basis. The prototile N is a
// transversal of Z^d / T, so by construction conditions T1 and T2 hold on
// the whole (infinite) lattice.
type LatticeTiling struct {
	tile   *prototile.Tile
	period *intmat.Matrix
	// ct maps each residue of Z^d / T (by its Smith-form index) to the
	// covering tile point's index in the tile's point order — the basis of
	// the Theorem 1 schedule. Lookup is allocation-free; see cosetTable.
	ct *cosetTable
}

// NewLatticeTiling validates that the prototile is a transversal of the
// sublattice spanned by the rows of period (any integer basis; it is
// brought to HNF internally), and returns the resulting tiling.
func NewLatticeTiling(t *prototile.Tile, period *intmat.Matrix) (*LatticeTiling, error) {
	if period.Rows() != t.Dim() || period.Cols() != t.Dim() {
		return nil, fmt.Errorf("%w: period is %dx%d for dimension %d",
			ErrTiling, period.Rows(), period.Cols(), t.Dim())
	}
	h, _ := intmat.HNF(period)
	if !intmat.IsSquareFullRankHNF(h) {
		return nil, fmt.Errorf("%w: period basis is singular", ErrTiling)
	}
	pts := t.Points()
	lt, pair, err := newLatticeTiling(t, pts, h)
	if err == nil && lt == nil {
		err = fmt.Errorf("%w: tile points %v and %v are congruent mod T", ErrTiling, pts[pair[0]], pts[pair[1]])
	}
	return lt, err
}

// newLatticeTiling is NewLatticeTiling for a period already in HNF, with
// the tile's points, pts, passed in: the sublattice searches below call
// it once per candidate and copy the points once. When two tile points
// are congruent mod T it returns no tiling, their indexes and no error,
// so a search formats nothing for the many candidates it rejects.
func newLatticeTiling(t *prototile.Tile, pts []lattice.Point, h *intmat.Matrix) (*LatticeTiling, [2]int, error) {
	ct, err := newCosetTable(h)
	if err != nil {
		return nil, [2]int{}, err
	}
	if ct.size() != t.Size() {
		return nil, [2]int{}, fmt.Errorf("%w: sublattice index %d ≠ |N| = %d", ErrTiling, ct.size(), t.Size())
	}
	for i, p := range pts {
		prev, dup, err := ct.assign(p, i)
		if err != nil {
			return nil, [2]int{}, err
		}
		if dup {
			return nil, [2]int{prev, i}, nil
		}
	}
	return &LatticeTiling{tile: t, period: h, ct: ct}, [2]int{}, nil
}

// FindLatticeTiling searches for a sublattice T of index |N| that makes
// the prototile a transversal, answering the paper's question Q1
// constructively for lattice-periodic tilings. The search walks the
// sublattices of Z^d of index |N| in Hermite normal form, in
// intmat.SublatticesOfIndex order, generating each only when it is
// tried; the first transversal hit is returned.
func FindLatticeTiling(t *prototile.Tile) (*LatticeTiling, bool) {
	pts := t.Points()
	for h := range intmat.SublatticesOfIndex(t.Dim(), int64(t.Size())) {
		if lt, _, _ := newLatticeTiling(t, pts, h); lt != nil {
			return lt, true
		}
	}
	return nil, false
}

// AllLatticeTilings returns every sublattice tiling of the prototile (one
// per distinct period sublattice). Used to study how schedules depend on
// the chosen tiling.
func AllLatticeTilings(t *prototile.Tile) []*LatticeTiling {
	var out []*LatticeTiling
	pts := t.Points()
	for h := range intmat.SublatticesOfIndex(t.Dim(), int64(t.Size())) {
		if lt, _, _ := newLatticeTiling(t, pts, h); lt != nil {
			out = append(out, lt)
		}
	}
	return out
}

// Tile returns the prototile N.
func (lt *LatticeTiling) Tile() *prototile.Tile { return lt.tile }

// Period returns the HNF basis of the translate sublattice T.
func (lt *LatticeTiling) Period() *intmat.Matrix { return lt.period.Clone() }

// CosetIndex returns the index k (0-based) of the tile point n_k whose
// coset contains p; every lattice point has exactly one such k. This is
// the slot assignment of Theorem 1: one dot product and one mod per
// invariant factor of Z^d / T above 1, plus one dense table read, with no
// allocation.
func (lt *LatticeTiling) CosetIndex(p lattice.Point) (int, error) {
	k, ok := lt.ct.slotOf(p)
	if !ok {
		return 0, fmt.Errorf("%w: point %v has dimension %d, want %d",
			ErrTiling, p, len(p), lt.tile.Dim())
	}
	return k, nil
}

// TranslateOf returns the unique t ∈ T with p ∈ t + N.
func (lt *LatticeTiling) TranslateOf(p lattice.Point) (lattice.Point, error) {
	k, err := lt.CosetIndex(p)
	if err != nil {
		return nil, err
	}
	return p.Sub(lt.tile.Points()[k]), nil
}

// InTranslateSet reports whether t belongs to the translate set T (the
// sublattice).
func (lt *LatticeTiling) InTranslateSet(t lattice.Point) (bool, error) {
	return intmat.InLattice(lt.period, t.Int64())
}

// VerifyWindow checks conditions T1 and T2 explicitly on a finite window:
// every window point must be covered by exactly one translate t + N with
// t ∈ T. It is redundant given the group-theoretic construction, but
// provides an independent, paper-literal validation used by the tests and
// the experiment harness.
func (lt *LatticeTiling) VerifyWindow(w lattice.Window) error {
	if w.Dim() != lt.tile.Dim() {
		return fmt.Errorf("%w: window dimension %d ≠ tile dimension %d", ErrTiling, w.Dim(), lt.tile.Dim())
	}
	size, err := w.SizeChecked()
	if err != nil {
		return err
	}
	cover := make([]int32, size)
	// Candidate translates: any t with (t + N) ∩ window ≠ ∅ lies within
	// the window expanded by the tile's bounding box.
	lo, hi := lt.tile.BoundingBox()
	expLo := w.Lo.Sub(hi)
	expHi := w.Hi.Sub(lo)
	ext, err := lattice.NewWindow(expLo, expHi)
	if err != nil {
		return err
	}
	tilePts := lt.tile.Points()
	buf := make(lattice.Point, 0, w.Dim())
	var verr error
	ext.Each(func(t lattice.Point) bool {
		in, err := lt.InTranslateSet(t)
		if err != nil {
			verr = err
			return false
		}
		if !in {
			return true
		}
		for _, n := range tilePts {
			buf = t.AddInto(n, buf[:0])
			if i, ok := w.IndexOf(buf); ok {
				cover[i]++
			}
		}
		return true
	})
	if verr != nil {
		return verr
	}
	for i, c := range cover {
		switch {
		case c == 0:
			return fmt.Errorf("%w: T1 violated, %v uncovered", ErrTiling, w.PointAt(i))
		case c > 1:
			return fmt.Errorf("%w: T2 violated, %v covered %d times", ErrTiling, w.PointAt(i), c)
		}
	}
	return nil
}

// String summarizes the tiling.
func (lt *LatticeTiling) String() string {
	return fmt.Sprintf("tiling{%s, period %s}", lt.tile.Name(), lt.period)
}
