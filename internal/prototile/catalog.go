package prototile

import (
	"fmt"

	"tilingsched/internal/lattice"
)

// ChebyshevBall returns the ℓ∞ ball of the given radius in Z^dim — the
// leftmost neighborhood of the paper's Figure 2 (for dim 2, radius 1: the
// 3×3 Moore neighborhood, 9 points).
func ChebyshevBall(dim, radius int) *Tile {
	if dim < 1 || radius < 0 {
		panic(fmt.Sprintf("prototile: ChebyshevBall(%d, %d)", dim, radius))
	}
	w := lattice.CenteredWindow(dim, radius)
	return MustNew(fmt.Sprintf("chebyshev-%d", radius), w.Points()...)
}

// Cross returns the ℓ1 (Manhattan) ball of the given radius in Z^dim; for
// dim 2, radius 1 it is the 5-point von Neumann cross, which coincides
// with the Euclidean ball of radius 1 — the middle neighborhood of the
// paper's Figure 2.
func Cross(dim, radius int) *Tile {
	if dim < 1 || radius < 0 {
		panic(fmt.Sprintf("prototile: Cross(%d, %d)", dim, radius))
	}
	var pts []lattice.Point
	for _, p := range lattice.CenteredWindow(dim, radius).Points() {
		if p.ManhattanNorm() <= radius {
			pts = append(pts, p)
		}
	}
	return MustNew(fmt.Sprintf("cross-%d", radius), pts...)
}

// EuclideanBall returns {p : ‖p‖² ≤ r²} in the given lattice, using the
// lattice's metric. For the square lattice with radius 1 this is the
// 5-point ball of Figure 2 (middle).
func EuclideanBall(l *lattice.Lattice, radius float64) *Tile {
	if radius < 0 {
		panic(fmt.Sprintf("prototile: EuclideanBall radius %v", radius))
	}
	// Search a window comfortably larger than the radius; coordinates of
	// points within Euclidean distance r are bounded once the basis is
	// reduced, and all built-in lattices have minimal vectors ≥ 1.
	reach := int(radius) + 2
	var pts []lattice.Point
	r2 := radius * radius * (1 + 1e-12)
	for _, p := range lattice.CenteredWindow(l.Dim(), reach).Points() {
		if l.Norm2(p) <= r2 {
			pts = append(pts, p)
		}
	}
	return MustNew(fmt.Sprintf("euclidean-%g", radius), pts...)
}

// Rect returns the w×h rectangle {0..w-1}×{0..h-1} in Z². The paper's
// Figure 3 schedules the 2×4 rectangle (8 elements, slots 1–8).
func Rect(w, h int) *Tile {
	if w < 1 || h < 1 {
		panic(fmt.Sprintf("prototile: Rect(%d, %d)", w, h))
	}
	var pts []lattice.Point
	for x := 0; x < w; x++ {
		for y := 0; y < h; y++ {
			pts = append(pts, lattice.Pt(x, y))
		}
	}
	return MustNew(fmt.Sprintf("rect-%dx%d", w, h), pts...)
}

// Directional returns the 8-element directional-antenna neighborhood used
// to illustrate Figures 2 (right) and 3: a 2-wide, 4-tall block reaching
// mostly "forward" of the sensor at the origin.
func Directional() *Tile {
	t := Rect(2, 4)
	return renamed(t, "directional-8")
}

// LTromino returns the 3-cell L tromino, the classic small polyomino that
// tiles the plane by translation.
func LTromino() *Tile {
	return MustNew("l-tromino", lattice.Pt(0, 0), lattice.Pt(1, 0), lattice.Pt(0, 1))
}

// Tetromino returns the named tetromino (I, O, T, S, Z, L, J) anchored at
// its lexicographically smallest cell. All seven are exact (tile by
// translation); T tiles with the period lattice [[2,1],[0,2]] in HNF.
func Tetromino(name string) (*Tile, error) {
	shapes := map[string]string{
		"I": "XXXX",
		"O": "XX\nXX",
		"T": "XXX\n.X.",
		// S and Z as in the paper's Figure 5 (rotate clockwise 90° to
		// see the letter shapes).
		"S": ".XX\nXX.",
		"Z": "XX.\n.XX",
		"L": "X.\nX.\nXX",
		"J": ".X\n.X\nXX",
	}
	art, ok := shapes[name]
	if !ok {
		return nil, fmt.Errorf("%w: unknown tetromino %q", ErrTile, name)
	}
	t, err := FromASCII("tetromino-"+name, art)
	if err != nil {
		return nil, err
	}
	return t, nil
}

// MustTetromino is Tetromino that panics on error.
func MustTetromino(name string) *Tile {
	t, err := Tetromino(name)
	if err != nil {
		panic(err)
	}
	return t
}

// Pentomino returns a named pentomino from a small catalog (P, X, F);
// P tiles the plane by translation, X and F do not.
func Pentomino(name string) (*Tile, error) {
	shapes := map[string]string{
		"P": "XX\nXX\nX.",
		"X": ".X.\nXXX\n.X.",
		"F": ".XX\nXX.\n.X.",
	}
	art, ok := shapes[name]
	if !ok {
		return nil, fmt.Errorf("%w: unknown pentomino %q", ErrTile, name)
	}
	return FromASCII("pentomino-"+name, art)
}

func renamed(t *Tile, name string) *Tile {
	n, err := New(name, t.Points()...)
	if err != nil {
		panic(err)
	}
	return n
}
