// Package lattice models Euclidean lattices and finite regions of them.
//
// A Euclidean lattice L ⊂ R^d is a discrete subgroup spanning R^d; fixing
// a basis identifies L with Z^d, so every point in this package is a
// vector of integer coordinates relative to the lattice basis. The
// geometric embedding (the basis vectors as real vectors) is carried by
// the Lattice type and is only needed for metric constructions such as
// Euclidean balls and Voronoi cells; all tiling and scheduling logic is
// purely group-theoretic and works on coordinates.
package lattice

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Point is a lattice point in basis coordinates. Points are value-like:
// operations return fresh slices and never alias their operands.
type Point []int

// Pt builds a point from coordinates.
func Pt(coords ...int) Point {
	p := make(Point, len(coords))
	copy(p, coords)
	return p
}

// Origin returns the zero point of the given dimension.
func Origin(dim int) Point { return make(Point, dim) }

// Dim returns the dimension of the point.
func (p Point) Dim() int { return len(p) }

// Clone returns a copy of p.
func (p Point) Clone() Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// Add returns p + q.
func (p Point) Add(q Point) Point {
	mustSameDim(p, q)
	r := make(Point, len(p))
	for i := range p {
		r[i] = p[i] + q[i]
	}
	return r
}

// Sub returns p - q.
func (p Point) Sub(q Point) Point {
	mustSameDim(p, q)
	r := make(Point, len(p))
	for i := range p {
		r[i] = p[i] - q[i]
	}
	return r
}

// AddInto appends the coordinates of p + q to dst and returns the
// extended slice. It lets callers pack many sums into one reused backing
// array (dst may be a sub-slice of a larger buffer) instead of allocating
// a fresh point per operation as Add does.
func (p Point) AddInto(q, dst Point) Point {
	mustSameDim(p, q)
	for i := range p {
		dst = append(dst, p[i]+q[i])
	}
	return dst
}

// SubInto appends the coordinates of p - q to dst and returns the
// extended slice; the buffer-reusing counterpart of Sub.
func (p Point) SubInto(q, dst Point) Point {
	mustSameDim(p, q)
	for i := range p {
		dst = append(dst, p[i]-q[i])
	}
	return dst
}

// Neg returns -p.
func (p Point) Neg() Point {
	r := make(Point, len(p))
	for i := range p {
		r[i] = -p[i]
	}
	return r
}

// Scale returns c·p.
func (p Point) Scale(c int) Point {
	r := make(Point, len(p))
	for i := range p {
		r[i] = c * p[i]
	}
	return r
}

// Equal reports whether p and q have identical coordinates.
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// IsOrigin reports whether every coordinate of p is zero.
func (p Point) IsOrigin() bool {
	for _, c := range p {
		if c != 0 {
			return false
		}
	}
	return true
}

// Less imposes a total lexicographic order on points of equal dimension,
// used for deterministic iteration and canonical normal forms.
func (p Point) Less(q Point) bool {
	mustSameDim(p, q)
	for i := range p {
		if p[i] != q[i] {
			return p[i] < q[i]
		}
	}
	return false
}

// Key returns a compact string key for use in maps, e.g. "3,-1".
func (p Point) Key() string {
	var b strings.Builder
	for i, c := range p {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(c))
	}
	return b.String()
}

// String renders the point as "(x, y, …)".
func (p Point) String() string { return string(p.AppendString(nil)) }

// AppendString appends the point's String form to dst and returns the
// extended buffer.
func (p Point) AppendString(dst []byte) []byte {
	dst = append(dst, '(')
	for i, c := range p {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = strconv.AppendInt(dst, int64(c), 10)
	}
	return append(dst, ')')
}

// Int64 returns the coordinates widened to int64, for use with intmat.
func (p Point) Int64() []int64 {
	v := make([]int64, len(p))
	for i, c := range p {
		v[i] = int64(c)
	}
	return v
}

// FromInt64 narrows an int64 vector to a Point.
func FromInt64(v []int64) Point {
	p := make(Point, len(v))
	for i, c := range v {
		p[i] = int(c)
	}
	return p
}

// ChebyshevNorm returns max_i |p_i|, the ℓ∞ norm in coordinates.
func (p Point) ChebyshevNorm() int {
	m := 0
	for _, c := range p {
		if c < 0 {
			c = -c
		}
		if c > m {
			m = c
		}
	}
	return m
}

// ManhattanNorm returns Σ_i |p_i|, the ℓ1 norm in coordinates.
func (p Point) ManhattanNorm() int {
	s := 0
	for _, c := range p {
		if c < 0 {
			c = -c
		}
		s += c
	}
	return s
}

// SortPoints orders points lexicographically in place and returns the
// slice for convenience.
func SortPoints(pts []Point) []Point {
	sort.Slice(pts, func(i, j int) bool { return pts[i].Less(pts[j]) })
	return pts
}

func mustSameDim(p, q Point) {
	if len(p) != len(q) {
		panic(fmt.Sprintf("lattice: dimension mismatch %d vs %d", len(p), len(q)))
	}
}
