package intmat

import (
	"fmt"
	"iter"
)

// HNF returns the row-style Hermite normal form of m together with a
// unimodular matrix U such that U·m = H. The result H is the canonical
// basis of the row lattice of m:
//
//   - H is upper echelon (pivot columns strictly increase down the rows),
//   - every pivot is positive,
//   - every entry above a pivot lies in [0, pivot).
//
// For a square nonsingular input H is upper triangular with positive
// diagonal, and |det H| = |det m| is the index of the row lattice in Z^d.
func HNF(m *Matrix) (h, u *Matrix) {
	h = m.Clone()
	u = Identity(m.rows)
	row := 0
	for col := 0; col < h.cols && row < h.rows; col++ {
		// Eliminate entries below position (row, col) by gcd row
		// operations until at most the pivot row is nonzero in this
		// column.
		for {
			// Find the row at or below `row` with the smallest
			// nonzero absolute value in this column.
			best := -1
			for i := row; i < h.rows; i++ {
				v := h.At(i, col)
				if v == 0 {
					continue
				}
				if best == -1 || abs64(v) < abs64(h.At(best, col)) {
					best = i
				}
			}
			if best == -1 {
				break // column is all zero at and below `row`
			}
			h.swapRows(row, best)
			u.swapRows(row, best)
			pivot := h.At(row, col)
			done := true
			for i := row + 1; i < h.rows; i++ {
				v := h.At(i, col)
				if v == 0 {
					continue
				}
				q := FloorDiv(v, pivot)
				h.addMultipleOfRow(i, row, -q)
				u.addMultipleOfRow(i, row, -q)
				if h.At(i, col) != 0 {
					done = false
				}
			}
			if done {
				break
			}
		}
		if h.At(row, col) == 0 {
			continue // no pivot in this column
		}
		if h.At(row, col) < 0 {
			h.negateRow(row)
			u.negateRow(row)
		}
		pivot := h.At(row, col)
		for i := 0; i < row; i++ {
			q := FloorDiv(h.At(i, col), pivot)
			h.addMultipleOfRow(i, row, -q)
			u.addMultipleOfRow(i, row, -q)
		}
		row++
	}
	return h, u
}

// IsSquareFullRankHNF reports whether h is a square upper-triangular
// Hermite normal form with positive diagonal and reduced above-pivot
// entries — the shape required by Reduce and Transversal checks.
func IsSquareFullRankHNF(h *Matrix) bool {
	if h.rows != h.cols {
		return false
	}
	for i := 0; i < h.rows; i++ {
		if h.At(i, i) <= 0 {
			return false
		}
		for j := 0; j < i; j++ {
			if h.At(i, j) != 0 {
				return false
			}
		}
		for j := 0; j < i; j++ {
			if v := h.At(j, i); v < 0 || v >= h.At(i, i) {
				return false
			}
		}
	}
	return true
}

// Reduce returns the canonical representative of v modulo the row lattice
// of the square full-rank HNF matrix h. The representative lies in the
// fundamental box ∏_i [0, h[i][i]). Two vectors are congruent modulo the
// lattice exactly when their representatives coincide.
func Reduce(h *Matrix, v []int64) ([]int64, error) {
	if !IsSquareFullRankHNF(h) {
		return nil, fmt.Errorf("intmat: Reduce requires a square full-rank HNF, got %s", h)
	}
	if len(v) != h.cols {
		return nil, fmt.Errorf("%w: vector length %d, want %d", ErrDimension, len(v), h.cols)
	}
	out := make([]int64, len(v))
	copy(out, v)
	ReduceInPlace(h, out)
	return out, nil
}

// ReduceInPlace reduces v modulo the row lattice of h in place, leaving
// the canonical representative (as Reduce) in v. It allocates nothing and
// skips the HNF shape check, so h MUST be a square full-rank HNF already
// validated with IsSquareFullRankHNF (typically once, at construction of
// the caller) and len(v) must equal h.Cols(). This is the hot-path
// variant backing per-point slot assignment.
func ReduceInPlace(h *Matrix, v []int64) {
	for i := 0; i < h.rows; i++ {
		row := h.a[i*h.cols : (i+1)*h.cols]
		q := FloorDiv(v[i], row[i])
		if q == 0 {
			continue
		}
		for j := i; j < h.cols; j++ {
			v[j] -= q * row[j]
		}
	}
}

// InLattice reports whether v lies in the row lattice of the square
// full-rank HNF matrix h.
func InLattice(h *Matrix, v []int64) (bool, error) {
	r, err := Reduce(h, v)
	if err != nil {
		return false, err
	}
	for _, x := range r {
		if x != 0 {
			return false, nil
		}
	}
	return true, nil
}

// Index returns the index of the row lattice of the square full-rank HNF
// matrix h in Z^d, i.e. the product of its diagonal entries.
func Index(h *Matrix) (int64, error) {
	if !IsSquareFullRankHNF(h) {
		return 0, fmt.Errorf("intmat: Index requires a square full-rank HNF, got %s", h)
	}
	idx := int64(1)
	for i := 0; i < h.rows; i++ {
		idx *= h.At(i, i)
	}
	return idx, nil
}

// SublatticesOfIndex yields the Hermite normal forms of all sublattices
// of Z^dim with the given index, one fresh canonical HNF basis (rows
// span the sublattice) per candidate. The number of results equals the
// classical sublattice-counting function; for dim = 2 it is σ(index), the
// sum of divisors. It grows fast with the index (925,771 for index 81 in
// dim 4), so the candidates are generated lazily and a search that stops
// early holds only the one it is testing.
//
// The order is fixed: diagonals (d_0, …, d_{dim−1}) in lexicographic
// order over the ordered factorizations of the index, then, for each, the
// entries above the diagonal — (i, j) for i < j, column by column, the
// first position varying slowest — counting up through [0, d_j). A search
// takes its first hit in this order, so the order is part of the result.
func SublatticesOfIndex(dim int, index int64) iter.Seq[*Matrix] {
	return func(yield func(*Matrix) bool) {
		if dim <= 0 || index <= 0 {
			return
		}
		h := New(dim, dim)
		// free holds the positions (i, j), i < j, above a diagonal entry
		// d_j > 1; the others can only hold 0.
		var free [][2]int
		var offDiag func(k int) bool
		offDiag = func(k int) bool {
			if k == len(free) {
				return yield(h.Clone())
			}
			i, j := free[k][0], free[k][1]
			for v := int64(0); v < h.At(j, j); v++ {
				h.Set(i, j, v)
				if !offDiag(k + 1) {
					return false
				}
			}
			h.Set(i, j, 0)
			return true
		}
		var fillDiag func(pos int, rem int64) bool
		fillDiag = func(pos int, rem int64) bool {
			if pos == dim {
				if rem != 1 {
					return true
				}
				free = free[:0]
				for j := 1; j < dim; j++ {
					if h.At(j, j) == 1 {
						continue
					}
					for i := 0; i < j; i++ {
						free = append(free, [2]int{i, j})
					}
				}
				return offDiag(0)
			}
			for d := int64(1); d <= rem; d++ {
				if rem%d == 0 {
					h.Set(pos, pos, d)
					if !fillDiag(pos+1, rem/d) {
						return false
					}
				}
			}
			return true
		}
		fillDiag(0, index)
	}
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
