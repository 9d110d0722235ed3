package graph

import (
	"fmt"

	"tilingsched/internal/lattice"
	"tilingsched/internal/schedule"
	"tilingsched/internal/tiling"
)

// This file implements the Periodic adjacency mode: implicit conflict
// graphs for deployments whose interference structure repeats with a
// period lattice. For such deployments the conflict relation is
// translation-invariant within each residue class — whether p and q
// conflict depends only on p's class and the offset q − p — so the
// whole graph compresses to one conflict-offset stencil per class:
// O(det(H) · |stencil|) integers for a window of any size, against the
// O(n + m) of the explicit CSR build. A million-vertex homogeneous
// window stores 1 class × |N−N| offsets instead of ~6 million edges.
//
// Why translation-invariance holds only for periodic deployments: the
// conflict condition (p + N(p)) ∩ (q + N(q)) ≠ ∅ rewrites as
// q − p ∈ N(p) − N(q). When N is constant (homogeneous), the right side
// is the fixed difference set N − N; when N depends on p only through
// p mod H, it depends only on (class(p), q − p). A deployment whose
// neighborhoods vary freely admits no such compression, which is why
// the explicit builders remain the general path.

// periodicInlineDim bounds the dimension for which periodic-mode
// queries run entirely on stack buffers; higher dimensions fall back to
// heap scratch. Matches the inline bound of the tiling coset tables.
const periodicInlineDim = 16

// PeriodicConflictGraph builds the implicit conflict graph of a
// periodic deployment over a window. The deployment must be periodic
// modulo res's period lattice H: NeighborhoodOf(p + h) = h +
// NeighborhoodOf(p) for every h ∈ HZ^d — true by construction for
// Homogeneous (any period, use HomogeneousConflictGraph) and for D1
// with the torus dimensions as the period. The contract is the
// caller's to uphold; the differential parity tests pin it for the
// in-repo deployments.
//
// Vertices are the window's points in lexicographic order, identified
// through w.PointAt / w.IndexOf exactly as in ConflictGraph, but no
// point slice, edge list, or per-vertex state is materialized:
// construction extracts one conflict-offset stencil per residue class
// by brute force over the offset box [-2·reach, 2·reach]^d —
// O(det(H) · box · |N|) work independent of the window size — and every
// query translates a stencil row to the queried vertex. The returned
// graph is frozen, immutable, and safe for concurrent readers through
// the stateless accessors (see Neighbors for the one scratch-buffer
// exception).
func PeriodicConflictGraph(dep schedule.Deployment, res *tiling.Residues, w lattice.Window) (*Graph, error) {
	if w.Dim() != dep.Dim() {
		return nil, fmt.Errorf("%w: window dimension %d ≠ deployment dimension %d",
			ErrGraph, w.Dim(), dep.Dim())
	}
	if res.Dim() != dep.Dim() {
		return nil, fmt.Errorf("%w: residue dimension %d ≠ deployment dimension %d",
			ErrGraph, res.Dim(), dep.Dim())
	}
	n, err := w.SizeChecked()
	if err != nil {
		return nil, fmt.Errorf("%w: conflict window too large: %v", ErrGraph, err)
	}
	dim := w.Dim()
	reach := dep.Reach()
	box := lattice.CenteredWindow(dim, 2*reach)
	classes := res.Classes()
	stPtr := make([]int, classes+1)
	var stOff []int
	maxStencil := 0
	for c := 0; c < classes; c++ {
		rep := res.Representative(c)
		nbh := lattice.NewSet(dep.NeighborhoodOf(rep)...)
		start := len(stOff) / dim
		// Lex order over the box keeps each stencil row sorted, which
		// makes translated neighbor rows come out in ascending index
		// order (translation preserves the window's lex order).
		box.Each(func(d lattice.Point) bool {
			if d.IsOrigin() {
				return true
			}
			q := rep.Add(d)
			for _, x := range dep.NeighborhoodOf(q) {
				if nbh.Contains(x) {
					stOff = append(stOff, d...)
					break
				}
			}
			return true
		})
		stPtr[c+1] = len(stOff) / dim
		if s := stPtr[c+1] - start; s > maxStencil {
			maxStencil = s
		}
	}
	return &Graph{
		n:          n,
		mode:       Periodic,
		frozen:     true,
		pw:         w,
		res:        res,
		stPtr:      stPtr,
		stOff:      stOff,
		nbrScratch: make([]int, maxStencil),
	}, nil
}

// HomogeneousConflictGraph builds the implicit conflict graph of a
// homogeneous deployment over a window: a single residue class whose
// stencil is the difference set (N − N) \ {0}. This is the
// million-sensor path — a window of any size costs |N − N| stored
// offsets.
func HomogeneousConflictGraph(dep *schedule.Homogeneous, w lattice.Window) (*Graph, error) {
	return PeriodicConflictGraph(dep, tiling.IdentityResidues(dep.Dim()), w)
}

// Window returns the window whose points are the graph's vertices
// (periodic mode only; ok is false in the explicit modes, which carry
// no window).
func (g *Graph) Window() (lattice.Window, bool) {
	if g.mode != Periodic {
		return lattice.Window{}, false
	}
	return g.pw, true
}

// periodicPoint materializes vertex u into buf (stack-sized by the
// callers for dimensions up to periodicInlineDim).
func (g *Graph) periodicPoint(u int, buf []int) lattice.Point {
	var dst lattice.Point
	if g.pw.Dim() <= len(buf) {
		dst = buf[:g.pw.Dim()]
	} else {
		dst = make(lattice.Point, g.pw.Dim())
	}
	return g.pw.PointAtInto(u, dst)
}

// stencilRow returns the flattened conflict offsets of vertex u's
// residue class.
func (g *Graph) stencilRow(p lattice.Point) []int {
	c, ok := g.res.ClassOf(p)
	if !ok {
		panic(fmt.Sprintf("graph: periodic vertex %v has dimension %d, want %d", p, len(p), g.res.Dim()))
	}
	dim := g.pw.Dim()
	return g.stOff[g.stPtr[c]*dim : g.stPtr[c+1]*dim]
}

func (g *Graph) periodicHasEdge(u, v int) bool {
	var bufU, bufV [periodicInlineDim]int
	pu := g.periodicPoint(u, bufU[:])
	pv := g.periodicPoint(v, bufV[:])
	dim := len(pu)
	row := g.stencilRow(pu)
	for k := 0; k < len(row); k += dim {
		match := true
		for a := 0; a < dim; a++ {
			if pv[a]-pu[a] != row[k+a] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

func (g *Graph) periodicDegree(u int) int {
	var buf [periodicInlineDim]int
	p := g.periodicPoint(u, buf[:])
	dim := len(p)
	row := g.stencilRow(p)
	deg := 0
	for k := 0; k < len(row); k += dim {
		in := true
		for a := 0; a < dim; a++ {
			if c := p[a] + row[k+a]; c < g.pw.Lo[a] || c > g.pw.Hi[a] {
				in = false
				break
			}
		}
		if in {
			deg++
		}
	}
	return deg
}

// periodicEachNeighbor walks u's translated stencil row in ascending
// index order without touching shared state.
func (g *Graph) periodicEachNeighbor(u int, f func(v int) bool) {
	if u < 0 || u >= g.n {
		return
	}
	var bufP, bufQ [periodicInlineDim]int
	p := g.periodicPoint(u, bufP[:])
	dim := len(p)
	var q lattice.Point
	if dim <= len(bufQ) {
		q = lattice.Point(bufQ[:dim])
	} else {
		q = make(lattice.Point, dim)
	}
	row := g.stencilRow(p)
offsets:
	for k := 0; k < len(row); k += dim {
		for a := 0; a < dim; a++ {
			c := p[a] + row[k+a]
			if c < g.pw.Lo[a] || c > g.pw.Hi[a] {
				continue offsets
			}
			q[a] = c
		}
		v, _ := g.pw.IndexOf(q)
		if !f(v) {
			return
		}
	}
}

func (g *Graph) periodicNeighbors(u int) []int {
	// The scratch buffer is pre-sized to the largest stencil, so the
	// appends never reallocate.
	out := g.nbrScratch[:0]
	g.periodicEachNeighbor(u, func(v int) bool {
		out = append(out, v)
		return true
	})
	return out
}
