package tiling

import (
	"tilingsched/internal/intmat"
	"tilingsched/internal/lattice"
	"tilingsched/internal/prototile"
)

// FindPeriodicTiling searches for a periodic tiling with at most
// maxCosets coset translates, fewest first. With k cosets it runs exact
// cover over the quotient group Z^d / P for every sublattice P of index
// k·|N|, generated lazily in intmat.SublatticesOfIndex order: the
// smallest uncovered residue is covered by each candidate translate in
// turn. For k = 1 that cover accepts exactly the sublattices that make
// the tile a transversal, in the same order, so the one-coset pass is
// FindLatticeTiling, whose tiling has offset 0 and Theorem 1's labels.
func FindPeriodicTiling(t *prototile.Tile, maxCosets int) (*PeriodicTiling, bool) {
	if maxCosets < 1 {
		return nil, false
	}
	if lt, ok := FindLatticeTiling(t); ok {
		return lt, true
	}
	for k := 2; k <= maxCosets; k++ {
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
			offsets = append(offsets, off)
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
	return pt, err == nil
}
