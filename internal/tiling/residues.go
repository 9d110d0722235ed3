package tiling

import (
	"fmt"

	"tilingsched/internal/intmat"
	"tilingsched/internal/lattice"
)

// Residues is the exported face of the package's dense coset table: a
// classifier of lattice points into the det(H) residue classes of
// Z^d / HZ^d for an integer period basis H. It backs the implicit
// periodic conflict graphs (internal/graph), which store one conflict
// stencil per residue class and classify vertices on the fly.
//
// ClassOf is the Smith-form index of the tiling slot tables, built over
// the identical machinery: one dot product and one mod per invariant
// factor above 1, with no hashing and no allocation (DESIGN.md §3). A
// Residues is immutable and safe for unlimited concurrent readers.
type Residues struct {
	ct *cosetTable
	// ct.slot holds, for each class, the lexicographic position of its
	// representative in box, the HNF's fundamental box.
	box lattice.Window
}

// NewResidues builds the residue classifier of Z^d modulo the lattice
// spanned by the rows of period (any full-rank integer basis; it is
// brought to Hermite normal form internally). The number of classes is
// |det(period)|, which must fit the dense table (checked).
func NewResidues(period *intmat.Matrix) (*Residues, error) {
	if period.Rows() != period.Cols() {
		return nil, fmt.Errorf("%w: period basis is %dx%d, want square",
			ErrTiling, period.Rows(), period.Cols())
	}
	h, _ := intmat.HNF(period)
	if !intmat.IsSquareFullRankHNF(h) {
		return nil, fmt.Errorf("%w: period basis is singular", ErrTiling)
	}
	ct, err := newCosetTable(h)
	if err != nil {
		return nil, err
	}
	r := &Residues{ct: ct, box: ct.box()}
	for i := 0; i < ct.size(); i++ {
		if _, dup, err := ct.assign(r.box.PointAt(i), i); err != nil || dup {
			return nil, fmt.Errorf("%w: two box points of %v share a residue index", ErrTiling, h)
		}
	}
	return r, nil
}

// IdentityResidues returns the trivial classifier of dimension dim: one
// class containing all of Z^d. It is the period of a homogeneous
// deployment, whose conflict structure is fully translation-invariant.
func IdentityResidues(dim int) *Residues {
	r, err := NewResidues(intmat.Identity(dim))
	if err != nil {
		// Identity is a valid HNF for every dim ≥ 1; dim ≤ 0 is a
		// programming error.
		panic(fmt.Sprintf("tiling: IdentityResidues(%d): %v", dim, err))
	}
	return r
}

// Dim returns the lattice dimension d.
func (r *Residues) Dim() int { return r.ct.dim }

// Classes returns the number of residue classes, det(H).
func (r *Residues) Classes() int { return r.ct.size() }

// Period returns the HNF basis of the period lattice.
func (r *Residues) Period() *intmat.Matrix { return r.ct.h.Clone() }

// ClassOf returns the dense index (in [0, Classes())) of p's residue
// class; ok is false only on a dimension mismatch. It allocates nothing.
func (r *Residues) ClassOf(p lattice.Point) (int, bool) {
	return r.ct.residueIndex(p)
}

// Representative returns the canonical representative of class c — the
// unique point of the class inside the fundamental box ∏_i [0, H_ii) —
// as a fresh point. It inverts ClassOf: ClassOf(Representative(c)) = c.
// It panics when c is outside [0, Classes()).
func (r *Residues) Representative(c int) lattice.Point {
	if c < 0 || c >= r.ct.size() {
		panic(fmt.Sprintf("tiling: Representative(%d) outside [0, %d)", c, r.ct.size()))
	}
	return r.box.PointAt(int(r.ct.slot[c]))
}
