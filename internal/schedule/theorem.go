package schedule

import (
	"fmt"
	"sort"

	"tilingsched/internal/lattice"
	"tilingsched/internal/tiling"
)

// Theorem1 is the schedule of the paper's Theorem 1: given a tiling T of
// the lattice with neighborhoods N = {n_1..n_m}, the sensors at n_k + T
// broadcast in slot k. It uses m = |N| slots, is collision-free, and is
// optimal (no collision-free periodic schedule uses fewer slots). T may
// be a sublattice or a union of cosets of one — e.g. T = {0, 1} + 4Z for
// the cluster {0, 2} ⊂ Z, which admits no lattice tiling.
type Theorem1 struct {
	lt *tiling.LatticeTiling
}

// FromLatticeTiling builds the Theorem 1 schedule over a lattice tiling
// or, the same type, any periodic tiling.
func FromLatticeTiling(lt *tiling.LatticeTiling) *Theorem1 {
	return &Theorem1{lt: lt}
}

// Tiling returns the underlying tiling.
func (s *Theorem1) Tiling() *tiling.LatticeTiling { return s.lt }

// Slots returns |N|.
func (s *Theorem1) Slots() int { return s.lt.Tile().Size() }

// SlotOf returns the coset index of p: the k with p ∈ n_k + T.
func (s *Theorem1) SlotOf(p lattice.Point) (int, error) {
	return s.lt.CosetIndex(p)
}

// Deployment returns the homogeneous deployment this schedule serves.
func (s *Theorem1) Deployment() *Homogeneous {
	return NewHomogeneous(s.lt.Tile())
}

// LowerBound returns the paper's optimality bound: any collision-free
// periodic schedule for the homogeneous deployment with prototile N needs
// at least |N| slots, because for any n', n” ∈ N the point n' + n” lies
// in both (n' + N) and (n” + N) — the sensors at N form a conflict
// clique.
func (s *Theorem1) LowerBound() int { return s.lt.Tile().Size() }

// Theorem2 is the schedule of the paper's Theorem 2 for multi-prototile
// tilings under deployment D1: with N = ∪_k N_k = {n_1..n_m}, the sensors
// at n_k + T_ℓ broadcast in slot k whenever n_k ∈ N_ℓ. For respectable
// tilings it uses m = |N_1| slots and is optimal.
type Theorem2 struct {
	tt    *tiling.TorusTiling
	union []lattice.Point
	dims  []int
	// cellSlot maps each wrapped torus cell (by TorusTiling.CellIndex) to
	// the union index of the tile element covering it, precomputed once so
	// SlotOf is a single table read.
	cellSlot []int32
}

// FromTorusTiling builds the Theorem 2 schedule over a torus tiling. The
// union N = ∪ N_k is enumerated in lexicographic order; slot k belongs to
// union element n_k. The wrapped-cell→union-slot table is precomputed
// here, making per-point slot assignment allocation-free.
func FromTorusTiling(tt *tiling.TorusTiling) (*Theorem2, error) {
	u := lattice.NewSet()
	tiles := tt.Tiles()
	for _, t := range tiles {
		for _, n := range t.Points() {
			u.Add(n)
		}
	}
	union := u.Points()
	// union is sorted lexicographically; locate elements by binary search.
	unionIndex := func(n lattice.Point) int {
		i := sort.Search(len(union), func(i int) bool { return !union[i].Less(n) })
		if i < len(union) && union[i].Equal(n) {
			return i
		}
		return -1
	}
	s := &Theorem2{tt: tt, union: union, dims: tt.Dims(), cellSlot: make([]int32, tt.Cells())}
	for i := range s.cellSlot {
		s.cellSlot[i] = -1
	}
	buf := make(lattice.Point, 0, len(s.dims))
	for _, pl := range tt.Placements() {
		for _, n := range tiles[pl.TileIndex].Points() {
			k := unionIndex(n)
			if k < 0 {
				return nil, fmt.Errorf("%w: union index missing %v", ErrSchedule, n)
			}
			buf = pl.Offset.AddInto(n, buf[:0])
			ci, ok := tt.CellIndex(buf)
			if !ok || s.cellSlot[ci] >= 0 {
				return nil, fmt.Errorf("%w: cell %v multiply covered (invariant broken)", ErrSchedule, buf)
			}
			s.cellSlot[ci] = int32(k)
		}
	}
	return s, nil
}

// Tiling returns the underlying torus tiling.
func (s *Theorem2) Tiling() *tiling.TorusTiling { return s.tt }

// Union returns the enumerated union neighborhood N = ∪ N_k.
func (s *Theorem2) Union() []lattice.Point {
	out := make([]lattice.Point, len(s.union))
	for i, p := range s.union {
		out[i] = p.Clone()
	}
	return out
}

// Slots returns |∪ N_k|; for respectable tilings this equals |N_1|.
func (s *Theorem2) Slots() int { return len(s.union) }

// SlotOf returns the union index of the tile element covering p: one
// wrapped-cell table read, precomputed in FromTorusTiling.
func (s *Theorem2) SlotOf(p lattice.Point) (int, error) {
	ci, ok := s.tt.CellIndex(p)
	if !ok {
		return 0, fmt.Errorf("%w: point dimension %d ≠ torus dimension %d",
			ErrSchedule, len(p), len(s.dims))
	}
	return int(s.cellSlot[ci]), nil
}

// Deployment returns the D1 deployment this schedule serves.
func (s *Theorem2) Deployment() *D1 { return NewD1(s.tt) }

// LowerBound returns the Theorem 2 optimality bound for respectable
// tilings: |N_1| slots are necessary. For non-respectable tilings the
// bound degrades to the largest prototile size (each tile is still a
// conflict clique), and the true optimum depends on the tiling —
// Section 4 / Figure 5.
func (s *Theorem2) LowerBound() int {
	max := 0
	for _, t := range s.tt.Tiles() {
		if t.Size() > max {
			max = t.Size()
		}
	}
	return max
}
