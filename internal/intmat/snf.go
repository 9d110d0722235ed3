package intmat

import "fmt"

// SNF computes the Smith normal form of a square integer matrix: a
// diagonal matrix D with non-negative entries d_1 | d_2 | … | d_n obtained
// from m by unimodular row and column operations. SmithForm also returns
// the column transform.
//
// For a sublattice T of Z^d given by basis rows m, the invariant factors
// describe the quotient group Z^d / T ≅ ⊕ Z/d_i, which is used to verify
// transversal (coset-representative) counts in tiling checks.
func SNF(m *Matrix) (*Matrix, error) {
	d, _, err := SmithForm(m)
	return d, err
}

// SmithForm computes the Smith normal form D of a square integer matrix
// together with a unimodular column transform V: some unimodular U (not
// computed) gives U·m·V = D.
//
// In the row convention used throughout this repository (a lattice is
// the row span of its basis), a vector p lies in the row lattice of m
// exactly when (p·V)_k ≡ 0 (mod D_k) for every k, reading ≡ 0 (mod 0) as
// = 0. So p ↦ ((p·V)_k mod D_k)_k is the quotient map Z^d → ⊕ Z/D_k,
// which internal/tiling uses as its closed-form coset index.
//
// The implementation uses remainder-reduction steps only: every round
// either finishes a pivot or strictly decreases the minimal nonzero
// absolute value of the trailing block, so termination is immediate.
// Column operations are replayed on V; row operations need no record.
func SmithForm(m *Matrix) (d, v *Matrix, err error) {
	if m.rows != m.cols {
		return nil, nil, fmt.Errorf("%w: SNF of %dx%d", ErrDimension, m.rows, m.cols)
	}
	n := m.rows
	w := m.Clone()
	v = Identity(n)
	for t := 0; t < n; t++ {
		for {
			if !pivotToCorner(w, v, t) {
				break // trailing block is all zero
			}
			if reduceColumnOnce(w, t) {
				continue // remainders created; re-pivot on a smaller value
			}
			if reduceRowOnce(w, v, t) {
				continue
			}
			// Row t and column t are clear beyond the pivot. Enforce
			// that the pivot divides the whole trailing block.
			if i, _, ok := findNonDivisible(w, t); ok {
				w.addMultipleOfRow(t, i, 1)
				continue
			}
			break
		}
	}
	for t := 0; t < n; t++ {
		if w.At(t, t) < 0 {
			w.negateRow(t)
		}
	}
	return w, v, nil
}

// InvariantFactors returns the nonzero diagonal entries of the Smith
// normal form of m, in divisibility order.
func InvariantFactors(m *Matrix) ([]int64, error) {
	d, err := SNF(m)
	if err != nil {
		return nil, err
	}
	var out []int64
	for i := 0; i < d.rows; i++ {
		if v := d.At(i, i); v != 0 {
			out = append(out, v)
		}
	}
	return out, nil
}

// reduceColumnOnce replaces every entry below the pivot in column t by its
// remainder modulo the pivot (one row operation each). It reports whether
// any nonzero remainder survives, in which case the caller must re-pivot:
// the surviving remainder is strictly smaller in absolute value than the
// current pivot.
func reduceColumnOnce(w *Matrix, t int) bool {
	p := w.At(t, t)
	reduced := false
	for i := t + 1; i < w.rows; i++ {
		v := w.At(i, t)
		if v == 0 {
			continue
		}
		q := FloorDiv(v, p)
		w.addMultipleOfRow(i, t, -q)
		if w.At(i, t) != 0 {
			reduced = true
		}
	}
	return reduced
}

// reduceRowOnce is the column-operation mirror of reduceColumnOnce, acting
// on the entries to the right of the pivot in row t, and replaying each
// column operation on v. Column operations col_j += c·col_t cannot refill
// column t below the pivot because those entries are already zero.
func reduceRowOnce(w, v *Matrix, t int) bool {
	p := w.At(t, t)
	reduced := false
	for j := t + 1; j < w.cols; j++ {
		x := w.At(t, j)
		if x == 0 {
			continue
		}
		q := FloorDiv(x, p)
		w.addMultipleOfCol(j, t, -q)
		v.addMultipleOfCol(j, t, -q)
		if w.At(t, j) != 0 {
			reduced = true
		}
	}
	return reduced
}

// pivotToCorner moves the entry of smallest nonzero absolute value in the
// trailing block starting at (t, t) to position (t, t), replaying the
// column swap on v. It reports false when the block is zero.
func pivotToCorner(w, v *Matrix, t int) bool {
	bi, bj := -1, -1
	for i := t; i < w.rows; i++ {
		for j := t; j < w.cols; j++ {
			x := w.At(i, j)
			if x == 0 {
				continue
			}
			if bi == -1 || abs64(x) < abs64(w.At(bi, bj)) {
				bi, bj = i, j
			}
		}
	}
	if bi == -1 {
		return false
	}
	w.swapRows(t, bi)
	w.swapCols(t, bj)
	v.swapCols(t, bj)
	return true
}

// findNonDivisible locates an entry of the trailing block (below and right
// of t) that the pivot w[t][t] does not divide.
func findNonDivisible(w *Matrix, t int) (int, int, bool) {
	p := w.At(t, t)
	if p == 0 {
		return 0, 0, false
	}
	for i := t + 1; i < w.rows; i++ {
		for j := t + 1; j < w.cols; j++ {
			if w.At(i, j)%p != 0 {
				return i, j, true
			}
		}
	}
	return 0, 0, false
}

func (m *Matrix) swapCols(i, j int) {
	if i == j {
		return
	}
	for r := 0; r < m.rows; r++ {
		vi := m.At(r, i)
		m.Set(r, i, m.At(r, j))
		m.Set(r, j, vi)
	}
}

// addMultipleOfCol performs col[j] += c * col[t].
func (m *Matrix) addMultipleOfCol(j, t int, c int64) {
	if c == 0 {
		return
	}
	for r := 0; r < m.rows; r++ {
		m.Set(r, j, m.At(r, j)+c*m.At(r, t))
	}
}
