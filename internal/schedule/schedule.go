// Package schedule implements the paper's deterministic periodic broadcast
// schedules and their verification.
//
// A schedule assigns every sensor position a slot k ∈ {0..m-1}; the sensor
// at p may broadcast at time t exactly when t ≡ SlotOf(p) (mod Slots()).
// A schedule is collision-free when no two same-slot sensors have
// intersecting interference neighborhoods (p + N(p)) — the paper's
// condition preceding Theorem 1. Schedules constructed from tilings
// (Theorem 1, Theorem 2) are optimal: they use exactly |N| slots, and no
// collision-free periodic schedule can use fewer.
package schedule

import (
	"errors"
	"fmt"
	"math"

	"tilingsched/internal/lattice"
	"tilingsched/internal/prototile"
	"tilingsched/internal/tiling"
)

// ErrSchedule indicates an invalid schedule construction or verification
// failure.
var ErrSchedule = errors.New("schedule: invalid schedule")

// Schedule assigns broadcast slots to lattice points.
type Schedule interface {
	// Slots returns the period m of the schedule.
	Slots() int
	// SlotOf returns the 0-based slot of the sensor at p.
	SlotOf(p lattice.Point) (int, error)
}

// Deployment describes each sensor's interference neighborhood — the
// paper's deployment rule (homogeneous before Theorem 1, D1 in Section 4).
type Deployment interface {
	// NeighborhoodOf returns the absolute positions affected by a
	// broadcast of the sensor at p (the set p + N(p), which includes p),
	// in a slice the caller owns and may reorder.
	NeighborhoodOf(p lattice.Point) []lattice.Point
	// Reach bounds the Chebyshev distance from p to any point of its
	// neighborhood; used to limit conflict searches.
	Reach() int
	// Dim returns the lattice dimension.
	Dim() int
}

// Homogeneous is the constant-prototile deployment of Sections 1–3: every
// sensor at t affects t + N. The tile's point slice and reach are cached
// at construction so per-call work is a single translate.
type Homogeneous struct {
	tile  *prototile.Tile
	pts   []lattice.Point
	reach int
}

// NewHomogeneous builds the homogeneous deployment for prototile N.
func NewHomogeneous(t *prototile.Tile) *Homogeneous {
	h := &Homogeneous{tile: t, pts: t.Points()}
	for _, n := range h.pts {
		if c := n.ChebyshevNorm(); c > h.reach {
			h.reach = c
		}
	}
	return h
}

// Tile returns the prototile.
func (h *Homogeneous) Tile() *prototile.Tile { return h.tile }

// NeighborhoodOf returns p + N. The returned points share one backing
// array (two allocations per call, regardless of |N|).
func (h *Homogeneous) NeighborhoodOf(p lattice.Point) []lattice.Point {
	return translateAll(p, h.pts)
}

// Reach returns the maximum coordinate magnitude within N, cached at
// construction.
func (h *Homogeneous) Reach() int { return h.reach }

// translateAll returns {p + n : n ∈ pts}, packing all coordinates into a
// single backing array.
func translateAll(p lattice.Point, pts []lattice.Point) []lattice.Point {
	flat := make(lattice.Point, 0, len(pts)*len(p))
	out := make([]lattice.Point, len(pts))
	for i, n := range pts {
		start := len(flat)
		flat = p.AddInto(n, flat)
		out[i] = flat[start:len(flat):len(flat)]
	}
	return out
}

// Dim returns the prototile dimension.
func (h *Homogeneous) Dim() int { return h.tile.Dim() }

// D1 is the paper's Section 4 deployment: the sensor at p has the
// neighborhood type of the tile covering p in a (possibly multi-prototile)
// torus tiling, extended periodically to the whole lattice. Per-tile point
// slices and the global reach are cached at construction.
type D1 struct {
	tt      *tiling.TorusTiling
	tilePts [][]lattice.Point
	reach   int
}

// NewD1 builds the D1 deployment over a torus tiling.
func NewD1(tt *tiling.TorusTiling) *D1 {
	d := &D1{tt: tt}
	tiles := tt.Tiles()
	d.tilePts = make([][]lattice.Point, len(tiles))
	for i, t := range tiles {
		d.tilePts[i] = t.Points()
		for _, n := range d.tilePts[i] {
			if c := n.ChebyshevNorm(); c > d.reach {
				d.reach = c
			}
		}
	}
	return d
}

// Tiling returns the underlying torus tiling.
func (d *D1) Tiling() *tiling.TorusTiling { return d.tt }

// NeighborhoodOf returns p + N_k where N_k is the prototile of the
// placement covering p.
func (d *D1) NeighborhoodOf(p lattice.Point) []lattice.Point {
	pl, err := d.tt.OwnerOf(p)
	if err != nil {
		// Tiling invariants guarantee every cell is owned; an error here
		// means a dimension mismatch, which is a programming error.
		panic(fmt.Sprintf("schedule: D1 neighborhood of %v: %v", p, err))
	}
	return translateAll(p, d.tilePts[pl.TileIndex])
}

// Reach returns the maximum coordinate magnitude over all prototiles,
// cached at construction.
func (d *D1) Reach() int { return d.reach }

// Dim returns the torus dimension.
func (d *D1) Dim() int { return len(d.tt.Dims()) }

// MapSchedule is an explicit finite schedule: a dense slot table over the
// bounding window of its assigned points, indexed by Window.IndexOf so a
// lookup is pure integer arithmetic (no hashing, no allocation). It backs
// the baseline schedules (plain TDMA, graph-coloring heuristics) so that
// every scheduler flows through the same verifier and simulator.
type MapSchedule struct {
	slots int
	w     lattice.Window
	table []int32 // dense over w, -1 = unassigned
}

// NewMapSchedule builds a schedule from parallel point/slot slices. Slots
// must be positive, every assigned slot must lie in [0, slots), points
// must share one dimension and be distinct. The table is dense over the
// points' bounding window, so wildly scattered points trade memory for
// O(1) lookups; the schedules built here are window-shaped already.
func NewMapSchedule(slots int, pts []lattice.Point, assign []int) (*MapSchedule, error) {
	if slots <= 0 {
		return nil, fmt.Errorf("%w: %d slots", ErrSchedule, slots)
	}
	if slots > math.MaxInt32 {
		return nil, fmt.Errorf("%w: %d slots overflow the dense table", ErrSchedule, slots)
	}
	if len(pts) != len(assign) {
		return nil, fmt.Errorf("%w: %d points but %d slot assignments", ErrSchedule, len(pts), len(assign))
	}
	m := &MapSchedule{slots: slots}
	if len(pts) == 0 {
		return m, nil
	}
	dim := pts[0].Dim()
	lo := pts[0].Clone()
	hi := pts[0].Clone()
	for _, p := range pts[1:] {
		if p.Dim() != dim {
			return nil, fmt.Errorf("%w: mixed point dimensions %d and %d", ErrSchedule, dim, p.Dim())
		}
		for i, c := range p {
			if c < lo[i] {
				lo[i] = c
			}
			if c > hi[i] {
				hi[i] = c
			}
		}
	}
	var err error
	m.w, err = lattice.NewWindow(lo, hi)
	if err != nil {
		return nil, err
	}
	size, err := m.w.SizeChecked()
	if err != nil {
		return nil, fmt.Errorf("%w: bounding window of assignment too large: %v", ErrSchedule, err)
	}
	m.table = make([]int32, size)
	for i := range m.table {
		m.table[i] = -1
	}
	for i, p := range pts {
		s := assign[i]
		if s < 0 || s >= slots {
			return nil, fmt.Errorf("%w: slot %d out of [0, %d)", ErrSchedule, s, slots)
		}
		j, ok := m.w.IndexOf(p)
		if !ok {
			return nil, fmt.Errorf("%w: point %v has dimension %d, want %d", ErrSchedule, p, p.Dim(), m.w.Dim())
		}
		if m.table[j] >= 0 {
			return nil, fmt.Errorf("%w: point %v assigned twice", ErrSchedule, p)
		}
		m.table[j] = int32(s)
	}
	return m, nil
}

// newWindowSchedule builds a fully-assigned dense schedule directly over a
// window; table[i] is the slot of w.PointAt(i), already validated by the
// caller.
func newWindowSchedule(slots int, w lattice.Window, table []int32) *MapSchedule {
	return &MapSchedule{slots: slots, w: w, table: table}
}

// Slots returns the period.
func (m *MapSchedule) Slots() int { return m.slots }

// SlotOf looks up the point's slot; unknown points are an error.
func (m *MapSchedule) SlotOf(p lattice.Point) (int, error) {
	if i, ok := m.w.IndexOf(p); ok && len(m.table) > 0 {
		if s := m.table[i]; s >= 0 {
			return int(s), nil
		}
	}
	return 0, fmt.Errorf("%w: no slot for %v", ErrSchedule, p)
}

// PlainTDMA returns the classical round-robin schedule over a finite
// window: every sensor gets its own slot, m = |window|. Collision-free by
// construction and maximally wasteful — the paper's strawman baseline.
func PlainTDMA(w lattice.Window) *MapSchedule {
	size, err := w.SizeChecked()
	if err != nil || size > math.MaxInt32 {
		panic(fmt.Sprintf("schedule: PlainTDMA window too large: %v", err))
	}
	table := make([]int32, size)
	for i := range table {
		table[i] = int32(i)
	}
	return newWindowSchedule(size, w, table)
}
