// Package tiling implements tilings of lattices by translates of
// prototiles — Section 2 of the paper.
//
// A subset T ⊆ L tiles L with a prototile N when (T1) the translates
// t + N cover L and (T2) distinct translates are disjoint. This package
// provides two complementary representations:
//
//   - PeriodicTiling: T = {t_1, …, t_k} + P is a union of cosets of a
//     full-rank sublattice P, and the k·|N| points t_i + n are a
//     transversal of Z^d / P. This form is exact — T1/T2 are verified
//     group-theoretically with no finite-window approximation. Its
//     one-coset case (k = 1, t_1 = 0) is LatticeTiling: T is itself a
//     sublattice and N a transversal of Z^d / T, and every polyomino that
//     tiles by translation admits such a tiling.
//   - TorusTiling: an explicit exact cover of a torus quotient by
//     placements of one or more prototiles, found by backtracking. This
//     form expresses the multi-prototile tilings of Section 4 (conditions
//     GT1/GT2), including the paper's Figure 5 S/Z-tetromino examples.
package tiling

import (
	"errors"
	"fmt"
	"iter"
	"slices"

	"tilingsched/internal/intmat"
	"tilingsched/internal/lattice"
	"tilingsched/internal/prototile"
)

// ErrTiling indicates an invalid tiling construction or a failed
// verification.
var ErrTiling = errors.New("tiling: invalid tiling")

// PeriodicTiling is a tiling of Z^d whose translate set is a union of
// cosets: T = {t_1, …, t_k} + P for a full-rank sublattice P of index
// k·|N|, given by its Hermite-normal-form basis. Every periodic tiling of
// Z^d has this shape (Szegedy's algorithm, cited in the paper's Section
// 3, decides such clusters; e.g. {0, 2} ⊂ Z tiles only with
// T = {0, 1} + 4Z). The translates {t_i + N} partition Z^d / P, so by
// construction conditions T1 and T2 hold on the whole (infinite) lattice.
//
// Every PeriodicTiling yields a Theorem 1 schedule with |N| slots: the
// sensors at n_k + T broadcast in slot k.
type PeriodicTiling struct {
	tile   *prototile.Tile
	period *intmat.Matrix
	// offsets holds t_1..t_k as canonical representatives modulo P.
	offsets []lattice.Point
	// ct maps each residue of Z^d / P (by its Smith-form index) to the
	// index k of the tile point n_k covering it — the basis of the
	// Theorem 1 schedule. Lookup is allocation-free; see cosetTable.
	ct *cosetTable
}

// LatticeTiling is the one-coset PeriodicTiling: its translate set T is
// the full-rank sublattice P itself (k = 1, t_1 = 0), and the prototile
// is a transversal of Z^d / T.
type LatticeTiling = PeriodicTiling

// periodHNF brings a period basis to Hermite normal form, checking that
// it is a square, full-rank dim×dim matrix.
func periodHNF(period *intmat.Matrix, dim int) (*intmat.Matrix, error) {
	if period.Rows() != dim || period.Cols() != dim {
		return nil, fmt.Errorf("%w: period is %dx%d for dimension %d",
			ErrTiling, period.Rows(), period.Cols(), dim)
	}
	h, _ := intmat.HNF(period)
	if !intmat.IsSquareFullRankHNF(h) {
		return nil, fmt.Errorf("%w: period basis is singular", ErrTiling)
	}
	return h, nil
}

// NewLatticeTiling validates that the prototile is a transversal of the
// sublattice spanned by the rows of period (any integer basis; it is
// brought to HNF internally), and returns the resulting tiling.
func NewLatticeTiling(t *prototile.Tile, period *intmat.Matrix) (*LatticeTiling, error) {
	h, err := periodHNF(period, t.Dim())
	if err != nil {
		return nil, err
	}
	pts := t.Points()
	lt, pair, err := newPeriodicTiling(t, h, []lattice.Point{lattice.Origin(t.Dim())}, pts)
	if err == nil && lt == nil {
		err = fmt.Errorf("%w: tile points %v and %v are congruent mod T", ErrTiling, pts[pair[0]], pts[pair[1]])
	}
	return lt, err
}

// NewPeriodicTiling validates that the translates {t_i + N} partition
// Z^d / P, i.e. the k·|N| points t_i + n are pairwise incongruent mod P
// and P has index exactly k·|N|. The offsets may be any representatives
// of their cosets; the tiling keeps the canonical ones.
func NewPeriodicTiling(t *prototile.Tile, period *intmat.Matrix, offsets []lattice.Point) (*PeriodicTiling, error) {
	if len(offsets) == 0 {
		return nil, fmt.Errorf("%w: no offsets", ErrTiling)
	}
	h, err := periodHNF(period, t.Dim())
	if err != nil {
		return nil, err
	}
	pts := t.Points()
	canonical := make([]lattice.Point, len(offsets))
	cover := make([]lattice.Point, 0, len(offsets)*len(pts))
	for i, off := range offsets {
		if off.Dim() != t.Dim() {
			return nil, fmt.Errorf("%w: offset %v has dimension %d", ErrTiling, off, off.Dim())
		}
		// h is a full-rank HNF of the offset's dimension, so Reduce
		// cannot fail.
		rep, _ := intmat.Reduce(h, off.Int64())
		canonical[i] = lattice.FromInt64(rep)
		for _, n := range pts {
			cover = append(cover, off.Add(n))
		}
	}
	pt, pair, err := newPeriodicTiling(t, h, canonical, cover)
	if err == nil && pt == nil {
		err = fmt.Errorf("%w: residue of %v covered twice", ErrTiling, cover[pair[1]])
	}
	return pt, err
}

// newPeriodicTiling builds the tiling over a period already in HNF from
// its canonical offsets and their translates, cover[i·|N| + k] =
// t_i + n_k, which the searches build once, not once per candidate:
// slot k goes to the residue of every t_i + n_k. When that residue
// already has a slot it returns no tiling and no error, but the earlier
// slot and the cover position of the point that repeated it, so a
// search formats nothing for the many candidates it rejects.
func newPeriodicTiling(t *prototile.Tile, h *intmat.Matrix, offsets, cover []lattice.Point) (*PeriodicTiling, [2]int, error) {
	ct, err := newCosetTable(h)
	if err != nil {
		return nil, [2]int{}, err
	}
	if ct.size() != len(cover) {
		return nil, [2]int{}, fmt.Errorf("%w: period index %d ≠ k·|N| = %d", ErrTiling, ct.size(), len(cover))
	}
	m := t.Size()
	for i := 0; i < len(cover); i += m {
		for k, p := range cover[i : i+m] {
			prev, dup, err := ct.assign(p, k)
			if err != nil {
				return nil, [2]int{}, err
			}
			if dup {
				return nil, [2]int{prev, i + k}, nil
			}
		}
	}
	return &PeriodicTiling{tile: t, period: h, offsets: offsets, ct: ct}, [2]int{}, nil
}

// FindLatticeTiling searches for a sublattice T of index |N| that makes
// the prototile a transversal, answering the paper's question Q1
// constructively for lattice-periodic tilings. The search walks the
// sublattices of Z^d of index |N| in Hermite normal form, in
// intmat.SublatticesOfIndex order, generating each only when it is
// tried; the first transversal hit is returned.
func FindLatticeTiling(t *prototile.Tile) (*LatticeTiling, bool) {
	for lt := range latticeTilings(t) {
		return lt, true
	}
	return nil, false
}

// AllLatticeTilings returns every sublattice tiling of the prototile (one
// per distinct period sublattice). Used to study how schedules depend on
// the chosen tiling.
func AllLatticeTilings(t *prototile.Tile) []*LatticeTiling {
	return slices.Collect(latticeTilings(t))
}

// latticeTilings yields the lattice tilings of the prototile in
// intmat.SublatticesOfIndex order, trying each candidate only when the
// caller asks for the next.
func latticeTilings(t *prototile.Tile) iter.Seq[*LatticeTiling] {
	return func(yield func(*LatticeTiling) bool) {
		pts := t.Points()
		origin := []lattice.Point{lattice.Origin(t.Dim())}
		for h := range intmat.SublatticesOfIndex(t.Dim(), int64(t.Size())) {
			if lt, _, _ := newPeriodicTiling(t, h, origin, pts); lt != nil && !yield(lt) {
				return
			}
		}
	}
}

// Tile returns the prototile N.
func (pt *PeriodicTiling) Tile() *prototile.Tile { return pt.tile }

// Period returns the HNF basis of the period sublattice P (for a lattice
// tiling, of T itself).
func (pt *PeriodicTiling) Period() *intmat.Matrix { return pt.period.Clone() }

// Offsets returns the coset translates t_1..t_k as canonical
// representatives modulo P; a lattice tiling's is the origin alone.
func (pt *PeriodicTiling) Offsets() []lattice.Point {
	out := make([]lattice.Point, len(pt.offsets))
	for i, p := range pt.offsets {
		out[i] = p.Clone()
	}
	return out
}

// CosetIndex returns the index k (0-based) of the tile point n_k with
// p ∈ n_k + T; every lattice point has exactly one such k. This is the
// slot assignment of Theorem 1: one dot product and one mod per
// invariant factor of Z^d / P above 1, plus one dense table read, with
// no allocation.
func (pt *PeriodicTiling) CosetIndex(p lattice.Point) (int, error) {
	k, ok := pt.ct.slotOf(p)
	if !ok {
		return 0, fmt.Errorf("%w: point %v has dimension %d, want %d",
			ErrTiling, p, len(p), pt.tile.Dim())
	}
	return k, nil
}

// TranslateOf returns the unique t ∈ T with p ∈ t + N.
func (pt *PeriodicTiling) TranslateOf(p lattice.Point) (lattice.Point, error) {
	k, err := pt.CosetIndex(p)
	if err != nil {
		return nil, err
	}
	return p.Sub(pt.tile.Points()[k]), nil
}

// InTranslateSet reports whether t belongs to the translate set T: its
// canonical representative modulo P, by HNF reduction, must be one of
// the offsets. It reads no coset table, so VerifyWindow stays
// independent of the index the slots are served from.
func (pt *PeriodicTiling) InTranslateSet(t lattice.Point) (bool, error) {
	rep, err := intmat.Reduce(pt.period, t.Int64())
	if err != nil {
		return false, err
	}
	return slices.ContainsFunc(pt.offsets, lattice.FromInt64(rep).Equal), nil
}

// VerifyWindow checks conditions T1 and T2 explicitly on a finite window:
// every window point must be covered by exactly one translate t + N with
// t ∈ T. It is redundant given the group-theoretic construction, but
// provides an independent, paper-literal validation used by the tests and
// the experiment harness.
func (pt *PeriodicTiling) VerifyWindow(w lattice.Window) error {
	if w.Dim() != pt.tile.Dim() {
		return fmt.Errorf("%w: window dimension %d ≠ tile dimension %d", ErrTiling, w.Dim(), pt.tile.Dim())
	}
	size, err := w.SizeChecked()
	if err != nil {
		return err
	}
	cover := make([]int32, size)
	// Candidate translates: any t with (t + N) ∩ window ≠ ∅ lies within
	// the window expanded by the tile's bounding box.
	lo, hi := pt.tile.BoundingBox()
	ext, err := lattice.NewWindow(w.Lo.Sub(hi), w.Hi.Sub(lo))
	if err != nil {
		return err
	}
	tilePts := pt.tile.Points()
	buf := make(lattice.Point, 0, w.Dim())
	var verr error
	ext.Each(func(t lattice.Point) bool {
		in, err := pt.InTranslateSet(t)
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
func (pt *PeriodicTiling) String() string {
	return fmt.Sprintf("tiling{%s, period %s, offsets %v}", pt.tile.Name(), pt.period, pt.offsets)
}
