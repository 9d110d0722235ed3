package tiling

import (
	"fmt"

	"tilingsched/internal/intmat"
	"tilingsched/internal/lattice"
	"tilingsched/internal/prototile"
)

// PeriodicTiling generalizes LatticeTiling to translate sets that are
// unions of cosets: T = {t_1, …, t_k} + P for a full-rank sublattice P of
// index k·|N|. Every periodic tiling of Z^d has this shape; searching over
// small k decides exactness for clusters that tile only non-lattice-
// periodically (the paper's Section 3 cites Szegedy's algorithm for such
// clusters — e.g. {0, 2} ⊂ Z tiles only with T = {0, 1} + 4Z).
//
// A PeriodicTiling still yields a Theorem 1 schedule with |N| slots: the
// sensors at {t_i + n_k : i} ∪ P broadcast in slot k.
type PeriodicTiling struct {
	tile    *prototile.Tile
	period  *intmat.Matrix
	offsets []lattice.Point
	// ct maps each residue of Z^d / P (by its Smith-form index) to the
	// index k of the tile point covering it; lookups are allocation-free.
	ct *cosetTable
}

// NewPeriodicTiling validates that the translates {t_i + N} partition
// Z^d / P, i.e. the k·|N| points t_i + n are pairwise incongruent mod P
// and P has index exactly k·|N|.
func NewPeriodicTiling(t *prototile.Tile, period *intmat.Matrix, offsets []lattice.Point) (*PeriodicTiling, error) {
	if len(offsets) == 0 {
		return nil, fmt.Errorf("%w: no offsets", ErrTiling)
	}
	if period.Rows() != t.Dim() || period.Cols() != t.Dim() {
		return nil, fmt.Errorf("%w: period is %dx%d for dimension %d",
			ErrTiling, period.Rows(), period.Cols(), t.Dim())
	}
	h, _ := intmat.HNF(period)
	if !intmat.IsSquareFullRankHNF(h) {
		return nil, fmt.Errorf("%w: period basis is singular", ErrTiling)
	}
	ct, err := newCosetTable(h)
	if err != nil {
		return nil, err
	}
	want := len(offsets) * t.Size()
	if ct.size() != want {
		return nil, fmt.Errorf("%w: period index %d ≠ k·|N| = %d", ErrTiling, ct.size(), want)
	}
	canonical := make([]lattice.Point, len(offsets))
	tilePts := t.Points()
	buf := make(lattice.Point, 0, t.Dim())
	for i, off := range offsets {
		if off.Dim() != t.Dim() {
			return nil, fmt.Errorf("%w: offset %v has dimension %d", ErrTiling, off, off.Dim())
		}
		canonical[i], err = ct.representative(off)
		if err != nil {
			return nil, err
		}
		for k, n := range tilePts {
			buf = off.AddInto(n, buf[:0])
			_, dup, err := ct.assign(buf, k)
			if err != nil {
				return nil, err
			}
			if dup {
				return nil, fmt.Errorf("%w: residue of %v covered twice", ErrTiling, buf)
			}
		}
	}
	return &PeriodicTiling{tile: t, period: h, offsets: canonical, ct: ct}, nil
}

// FindPeriodicTiling searches for a periodic tiling with at most
// maxCosets coset translates (k = 1 recovers the lattice-tiling search).
// The search runs exact cover over the quotient group Z^d / P for every
// sublattice P of index k·|N|, generated lazily in
// intmat.SublatticesOfIndex order: the smallest uncovered residue is
// covered by each candidate translate in turn.
func FindPeriodicTiling(t *prototile.Tile, maxCosets int) (*PeriodicTiling, bool) {
	for k := 1; k <= maxCosets; k++ {
		index := int64(k) * int64(t.Size())
		for h := range intmat.SublatticesOfIndex(t.Dim(), index) {
			if pt, ok := solveQuotientCover(t, h, k); ok {
				return pt, true
			}
		}
	}
	return nil, false
}

// solveQuotientCover attempts to partition Z^d / P into k translates of
// the tile by depth-first exact cover over residues. The canonical
// representatives are the points of the fundamental box ∏_i [0, P_ii);
// the search takes the lexicographically first uncovered one as its next
// target, through order, which maps each box position to its residue's
// cosetTable index.
func solveQuotientCover(t *prototile.Tile, h *intmat.Matrix, k int) (*PeriodicTiling, bool) {
	ct, err := newCosetTable(h)
	if err != nil {
		return nil, false
	}
	dim := t.Dim()
	box := ct.box()
	order := make([]int, ct.size())
	for i := range order {
		order[i], _ = ct.residueIndex(box.PointAt(i))
	}
	covered := make([]bool, ct.size())
	var offsets []lattice.Point
	tilePts := t.Points()
	buf := make(lattice.Point, 0, dim)
	var dfs func(used int) bool
	dfs = func(used int) bool {
		target := -1
		for i, ri := range order {
			if !covered[ri] {
				target = i
				break
			}
		}
		if target == -1 {
			return used == k
		}
		if used == k {
			return false
		}
		// The uncovered residue r must be t + n for the new translate t
		// and some tile point n: t = r - n.
		res := box.PointAt(target)
		for _, n := range tilePts {
			off := res.Sub(n)
			idxs := make([]int, 0, len(tilePts))
			ok := true
			for _, nn := range tilePts {
				buf = off.AddInto(nn, buf[:0])
				ri, exists := ct.residueIndex(buf)
				if !exists || covered[ri] {
					ok = false
					break
				}
				idxs = append(idxs, ri)
			}
			if !ok || hasDuplicate(idxs) {
				continue
			}
			for _, ri := range idxs {
				covered[ri] = true
			}
			offCanon, err := ct.representative(off)
			if err != nil {
				return false
			}
			offsets = append(offsets, offCanon)
			if dfs(used + 1) {
				return true
			}
			offsets = offsets[:len(offsets)-1]
			for _, ri := range idxs {
				covered[ri] = false
			}
		}
		return false
	}
	if !dfs(0) {
		return nil, false
	}
	pt, err := NewPeriodicTiling(t, h, offsets)
	if err != nil {
		return nil, false
	}
	return pt, true
}

// Tile returns the prototile.
func (pt *PeriodicTiling) Tile() *prototile.Tile { return pt.tile }

// Period returns the HNF basis of the period sublattice P.
func (pt *PeriodicTiling) Period() *intmat.Matrix { return pt.period.Clone() }

// Offsets returns the coset translates t_1..t_k.
func (pt *PeriodicTiling) Offsets() []lattice.Point { return clonePoints(pt.offsets) }

// CosetIndex returns the slot (index into the tile's points) of the
// translate covering p — the Theorem 1 schedule over the generalized
// tiling.
func (pt *PeriodicTiling) CosetIndex(p lattice.Point) (int, error) {
	k, ok := pt.ct.slotOf(p)
	if !ok {
		return 0, fmt.Errorf("%w: point %v has dimension %d, want %d",
			ErrTiling, p, len(p), pt.tile.Dim())
	}
	return k, nil
}

// VerifyWindow re-checks T1/T2 explicitly on a window, mirroring
// LatticeTiling.VerifyWindow.
func (pt *PeriodicTiling) VerifyWindow(w lattice.Window) error {
	if w.Dim() != pt.tile.Dim() {
		return fmt.Errorf("%w: window dimension %d ≠ tile dimension %d", ErrTiling, w.Dim(), pt.tile.Dim())
	}
	size, err := w.SizeChecked()
	if err != nil {
		return err
	}
	cover := make([]int32, size)
	// t ∈ T exactly when t's residue equals one of the (canonical) offset
	// residues; mark those residues once for O(1) membership tests.
	isOffset := make([]bool, pt.ct.size())
	for _, off := range pt.offsets {
		ri, ok := pt.ct.residueIndex(off)
		if !ok {
			return fmt.Errorf("%w: offset %v has dimension %d", ErrTiling, off, off.Dim())
		}
		isOffset[ri] = true
	}
	lo, hi := pt.tile.BoundingBox()
	ext, err := lattice.NewWindow(w.Lo.Sub(hi), w.Hi.Sub(lo))
	if err != nil {
		return err
	}
	tilePts := pt.tile.Points()
	buf := make(lattice.Point, 0, w.Dim())
	ext.Each(func(t lattice.Point) bool {
		ri, ok := pt.ct.residueIndex(t)
		if !ok || !isOffset[ri] {
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
	return fmt.Sprintf("periodic-tiling{%s, period %s, %d cosets}",
		pt.tile.Name(), pt.period, len(pt.offsets))
}

func clonePoints(ps []lattice.Point) []lattice.Point {
	out := make([]lattice.Point, len(ps))
	for i, p := range ps {
		out[i] = p.Clone()
	}
	return out
}
