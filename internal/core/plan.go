// Package core is the library's top-level API: it turns a lattice and an
// interference neighborhood into a verified, optimal, collision-free
// broadcast schedule — the end-to-end pipeline of the paper.
//
// A downstream user does:
//
//	plan, err := core.NewPlan(lattice.Square(), prototile.Cross(2, 1))
//	slot, _ := plan.SlotOf(lattice.Pt(3, 4))       // this sensor's slot
//	ok := plan.MayBroadcast(lattice.Pt(3, 4), t)   // may it send at time t?
//
// Behind the scenes NewPlan decides exactness (question Q1 of the paper),
// finds a tiling, builds the Theorem 1 schedule, certifies the slot
// function it will serve collision-free on all of Z^d, and exposes
// optimality reporting against the exact distance-2 chromatic number.
package core

import (
	"errors"
	"fmt"
	"strings"

	"tilingsched/internal/boundary"
	"tilingsched/internal/graph"
	"tilingsched/internal/intmat"
	"tilingsched/internal/lattice"
	"tilingsched/internal/prototile"
	"tilingsched/internal/schedule"
	"tilingsched/internal/tiling"
)

// ErrNotExact reports that the prototile admits no lattice tiling, so no
// optimal tiling schedule exists for it.
var ErrNotExact = errors.New("core: prototile is not exact (admits no lattice tiling)")

// Plan is a complete scheduling plan: lattice, prototile, tiling, and the
// Theorem 1 schedule.
type Plan struct {
	lat   *lattice.Lattice
	tile  *prototile.Tile
	tlng  *tiling.LatticeTiling
	sched *schedule.Theorem1
	// sig is Signature(lat, tile), computed once at construction: the
	// service reads it on every request.
	sig string
}

// newPlan assembles a plan over a found tiling and certifies the slot
// function it serves (certify); a plan that fails is not returned.
func newPlan(lat *lattice.Lattice, tile *prototile.Tile, lt *tiling.LatticeTiling) (*Plan, error) {
	sched := schedule.FromLatticeTiling(lt)
	if _, err := certify(tile, lt.Period(), sched.SlotOf); err != nil {
		return nil, err
	}
	return &Plan{lat: lat, tile: tile, tlng: lt, sched: sched, sig: Signature(lat, tile)}, nil
}

// NewPlan decides whether the prototile tiles the lattice and, if so,
// returns the plan carrying the optimal schedule. The lattice parameter
// fixes dimensions and metric context; the tiling search is purely
// group-theoretic (Section 2 of the paper formulates everything in
// coordinates, where every lattice is Z^d). A plan whose served slot
// function fails its certificate is an ErrUncertified error.
func NewPlan(lat *lattice.Lattice, tile *prototile.Tile) (*Plan, error) {
	if lat.Dim() != tile.Dim() {
		return nil, fmt.Errorf("core: lattice dimension %d ≠ tile dimension %d", lat.Dim(), tile.Dim())
	}
	lt, ok := tiling.FindLatticeTiling(tile)
	if !ok {
		return nil, fmt.Errorf("%w: %s (|N| = %d)", ErrNotExact, tile.Name(), tile.Size())
	}
	return newPlan(lat, tile, lt)
}

// NewPlanWithPeriod builds a plan from an explicit period sublattice
// (rows of period span T), validating the transversal condition and
// certifying the plan as NewPlan does.
func NewPlanWithPeriod(lat *lattice.Lattice, tile *prototile.Tile, period *intmat.Matrix) (*Plan, error) {
	if lat.Dim() != tile.Dim() {
		return nil, fmt.Errorf("core: lattice dimension %d ≠ tile dimension %d", lat.Dim(), tile.Dim())
	}
	lt, err := tiling.NewLatticeTiling(tile, period)
	if err != nil {
		return nil, err
	}
	return newPlan(lat, tile, lt)
}

// Signature returns the canonical signature of a (lattice, prototile)
// pair: two plans built from the same lattice name and the same tile point
// set share one signature regardless of the tile's display name or the
// order its points were given in. It is the cache key of the service-layer
// plan registry (internal/service): equal signatures mean equal schedules,
// because NewPlan's tiling search is deterministic in the tile's canonical
// point order.
func Signature(lat *lattice.Lattice, tile *prototile.Tile) string {
	var b strings.Builder
	b.WriteString(lat.Name())
	fmt.Fprintf(&b, "/%d:", tile.Dim())
	for i, pt := range tile.Points() {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(pt.Key())
	}
	return b.String()
}

// Signature returns the plan's canonical (lattice, prototile) signature,
// Signature(p.Lattice(), p.Tile()).
func (p *Plan) Signature() string { return p.sig }

// Lattice returns the plan's lattice.
func (p *Plan) Lattice() *lattice.Lattice { return p.lat }

// Tile returns the prototile N.
func (p *Plan) Tile() *prototile.Tile { return p.tile }

// Tiling returns the underlying lattice tiling.
func (p *Plan) Tiling() *tiling.LatticeTiling { return p.tlng }

// Schedule returns the Theorem 1 schedule.
func (p *Plan) Schedule() *schedule.Theorem1 { return p.sched }

// Slots returns the schedule period m = |N|.
func (p *Plan) Slots() int { return p.sched.Slots() }

// SlotOf returns the slot of the sensor at pt.
func (p *Plan) SlotOf(pt lattice.Point) (int, error) { return p.sched.SlotOf(pt) }

// MayBroadcast reports whether the sensor at pt is allowed to broadcast at
// time t (t ≡ slot (mod m)).
func (p *Plan) MayBroadcast(pt lattice.Point, t int64) (bool, error) {
	k, err := p.sched.SlotOf(pt)
	if err != nil {
		return false, err
	}
	m := int64(p.Slots())
	return ((t%m)+m)%m == int64(k), nil
}

// Deployment returns the homogeneous deployment of the plan's prototile.
func (p *Plan) Deployment() *schedule.Homogeneous { return p.sched.Deployment() }

// Verify independently re-checks the plan on a finite window: the tiling
// conditions T1/T2 and collision-freeness of the schedule.
func (p *Plan) Verify(w lattice.Window) error {
	if err := p.tlng.VerifyWindow(w); err != nil {
		return err
	}
	return schedule.VerifyCollisionFree(p.sched, p.Deployment(), w)
}

// OptimalityReport compares the plan's slot count against lower bounds on
// a finite window.
type OptimalityReport struct {
	// Slots is the plan's period, m = |N|.
	Slots int
	// CliqueBound is a certified clique lower bound of the window's
	// conflict graph.
	CliqueBound int
	// Chromatic is the window's exact minimal slot count (distance-2
	// chromatic number) when Proven, else the best upper bound found.
	Chromatic int
	// Proven reports whether Chromatic is exact.
	Proven bool
	// WindowCoversNPlusN reports whether the window contains a translate
	// of N+N — the Conclusions' sufficient condition for the restricted
	// schedule to remain optimal.
	WindowCoversNPlusN bool
	// Optimal is true when the schedule provably matches the window's
	// chromatic number.
	Optimal bool
}

// Optimality computes the report over the window; nodeBudget bounds the
// exact chromatic search (e.g. 1e6).
func (p *Plan) Optimality(w lattice.Window, nodeBudget int) (OptimalityReport, error) {
	dep := p.Deployment()
	g, _, err := graph.ConflictGraph(dep, w)
	if err != nil {
		return OptimalityReport{}, err
	}
	res := graph.ChromaticNumber(g, nodeBudget)
	rep := OptimalityReport{
		Slots:              p.Slots(),
		CliqueBound:        graph.CliqueLowerBound(g),
		Chromatic:          res.NumColors,
		Proven:             res.Proven,
		WindowCoversNPlusN: w.ContainsTranslateOf(p.tile.NPlusN()),
	}
	rep.Optimal = res.Proven && res.NumColors == rep.Slots
	return rep, nil
}

// ExplainExactness reports whether the prototile is exact together with
// the strongest evidence available: for simply connected polyominoes in
// dimension 2, the Beauquier–Nivat boundary criterion (with the
// factorization as a certificate); otherwise the sublattice-transversal
// search.
func ExplainExactness(tile *prototile.Tile) (exact bool, evidence string, err error) {
	if tile.Dim() == 2 {
		if simply, serr := tile.SimplyConnected(); serr == nil && simply {
			ok, f, berr := boundary.IsExactPolyomino(tile)
			if berr != nil {
				return false, "", berr
			}
			if ok {
				return true, fmt.Sprintf("Beauquier–Nivat factorization %s", f), nil
			}
			return false, "boundary word admits no Beauquier–Nivat factorization", nil
		}
	}
	if lt, ok := tiling.FindLatticeTiling(tile); ok {
		return true, fmt.Sprintf("lattice tiling with period %s", lt.Period()), nil
	}
	// Some clusters tile only with non-lattice translate sets (unions of
	// cosets); search small coset counts before giving up.
	const maxCosets = 4
	if pt, ok := tiling.FindPeriodicTiling(tile, maxCosets); ok {
		return true, fmt.Sprintf("periodic tiling with period %s and %d coset translates %v",
			pt.Period(), len(pt.Offsets()), pt.Offsets()), nil
	}
	return false, fmt.Sprintf("no periodic tiling with ≤ %d cosets of any index-%d·k sublattice",
		maxCosets, tile.Size()), nil
}
