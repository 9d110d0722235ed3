// Package dynamic is the reference model of a churning sensor
// deployment: sensors join, leave, move and fail, and every live sensor
// holds the slot the paper's Theorem 1 schedule gives its position.
//
// That schedule is collision-free on all of Z^d, so it is collision-free
// on every subset: churn never calls for a repair, and a deployment's
// whole state is the set of positions that hold a live sensor. A Mutator
// keeps that set in a map keyed by Point.Key, computes each slot as
// seed.SlotOf(p), and is written to be obviously right, not fast: it
// replays a session's events independently of the service's own live
// set, and Verify re-checks collision-freedom by brute force.
//
// Concurrency: a Mutator is single-writer. Serialize Apply calls and do
// not read (SlotOf, Verify, EachAssignment) concurrently with one.
package dynamic

import (
	"errors"
	"fmt"
	"slices"

	"tilingsched/internal/lattice"
	"tilingsched/internal/schedule"
	"tilingsched/internal/tiling"
)

// ErrDynamic indicates an invalid mutation or mutator construction.
var ErrDynamic = errors.New("dynamic: invalid mutation")

// EventKind enumerates deployment mutations.
type EventKind uint8

const (
	// Join activates a sensor at Event.P, inside the window or out.
	Join EventKind = iota
	// Leave deactivates the sensor at Event.P (planned departure, e.g.
	// duty-cycling for lifetime).
	Leave
	// Fail deactivates the sensor at Event.P (unplanned death); it is
	// Leave for the schedule.
	Fail
	// Move relocates the sensor at Event.P to Event.To: a Leave followed
	// by a Join applied atomically within one event.
	Move
)

// String names the event kind for logs and wire encodings.
func (k EventKind) String() string {
	switch k {
	case Join:
		return "join"
	case Leave:
		return "leave"
	case Fail:
		return "fail"
	case Move:
		return "move"
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// Event is one deployment mutation.
type Event struct {
	// Kind selects the mutation.
	Kind EventKind
	// P is the position the event acts on.
	P lattice.Point
	// To is the destination of a Move (ignored otherwise).
	To lattice.Point
}

// SlotChange is one delta entry: the sensor at P now holds Slot, or has
// departed when Slot is -1. A batch's changes are exactly what a client
// must apply to its local copy of the schedule.
type SlotChange struct {
	P    lattice.Point
	Slot int
}

// Disruption reports what one Apply call did. No live sensor ever
// changes slot under a Theorem 1 schedule, so the repair fields keep
// the shape of the service's disruption report and are always zero.
type Disruption struct {
	// Events is the number of events applied (the whole batch unless an
	// event errored).
	Events int
	// Joined and Departed count sensors activated and deactivated.
	Joined, Departed int
	// Reassigned counts live sensors whose slot changed: always 0.
	Reassigned int
	// FullRecolor and Compacted are always false: nothing is recolored
	// and there is no graph to compact.
	FullRecolor, Compacted bool
}

// Options configures a Mutator. The zero value is ready to use.
type Options struct {
	// Residues is ignored: the live set needs no conflict graph, so no
	// periodic one either. The field stays for callers that set it.
	Residues *tiling.Residues
}

// Mutator applies deployment mutations to a live set whose every sensor
// holds its Theorem 1 slot. Single-writer: see the package comment.
type Mutator struct {
	dep  schedule.Deployment
	seed *schedule.Theorem1
	live map[string]lattice.Point // Point.Key() → position
}

// NewMutator builds a mutator over the deployment with a sensor at every
// window position. seed gives each sensor, in the window or out, its
// slot; a nil seed is an error. Verify checks seed against dep.
func NewMutator(dep schedule.Deployment, w lattice.Window, seed *schedule.Theorem1, _ Options) (*Mutator, error) {
	if seed == nil {
		return nil, fmt.Errorf("%w: no seed schedule", ErrDynamic)
	}
	dim := seed.Tiling().Tile().Dim()
	if dep.Dim() != dim || w.Dim() != dim {
		return nil, fmt.Errorf("%w: deployment dimension %d and window dimension %d, seed dimension %d",
			ErrDynamic, dep.Dim(), w.Dim(), dim)
	}
	n, err := w.SizeChecked()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDynamic, err)
	}
	m := &Mutator{dep: dep, seed: seed, live: make(map[string]lattice.Point, n)}
	w.Each(func(p lattice.Point) bool {
		m.live[p.Key()] = p.Clone()
		return true
	})
	return m, nil
}

// Slots returns the seed's slot count m; every slot is in [0, m).
func (m *Mutator) Slots() int { return m.seed.Slots() }

// AliveCount returns the number of live sensors.
func (m *Mutator) AliveCount() int { return len(m.live) }

// SlotOf returns the slot of the live sensor at p, or an error if none.
func (m *Mutator) SlotOf(p lattice.Point) (int, error) {
	if _, ok := m.live[p.Key()]; !ok {
		return 0, fmt.Errorf("%w: no sensor at %v", ErrDynamic, p)
	}
	return m.slot(p), nil
}

// slot is the seed's slot for a point of the mutator's dimension.
func (m *Mutator) slot(p lattice.Point) int {
	s, _ := m.seed.SlotOf(p)
	return s
}

// EachAssignment calls f with every live sensor's position and slot, in
// no particular order, until f returns false — the full-resync form of
// the set. The point is the mutator's own: do not modify it.
func (m *Mutator) EachAssignment(f func(p lattice.Point, slot int) bool) {
	for _, p := range m.live {
		if !f(p, m.slot(p)) {
			return
		}
	}
}

// Apply runs a batch of events in order. Each event either fully applies
// or fails; on failure the batch stops with the events so far applied,
// the partial disruption and changes, and the error. Changes report the
// post-batch slot of every touched position (−1 for departures), each
// position once, in no particular order.
func (m *Mutator) Apply(events []Event) (Disruption, []SlotChange, error) {
	var d Disruption
	touched := map[string]lattice.Point{}
	var err error
	for _, ev := range events {
		if err = m.applyOne(ev, &d, touched); err != nil {
			break
		}
		d.Events++
	}
	changes := make([]SlotChange, 0, len(touched))
	for k, p := range touched {
		ch := SlotChange{P: p.Clone(), Slot: -1}
		if _, ok := m.live[k]; ok {
			ch.Slot = m.slot(p)
		}
		changes = append(changes, ch)
	}
	return d, changes, err
}

// applyOne applies a single event, or none of it, and records the
// positions it touched by key. A Move checks its destination before it
// removes the source.
func (m *Mutator) applyOne(ev Event, d *Disruption, touched map[string]lattice.Point) error {
	dim := m.dep.Dim()
	if ev.Kind == Move && ev.To.Dim() != dim {
		return fmt.Errorf("%w: move to %v: dimension %d, want %d", ErrDynamic, ev.To, ev.To.Dim(), dim)
	}
	if ev.P.Dim() != dim {
		return fmt.Errorf("%w: %v: dimension %d, want %d", ErrDynamic, ev.P, ev.P.Dim(), dim)
	}
	k := ev.P.Key()
	p, live := m.live[k]
	switch ev.Kind {
	case Join:
		if live {
			return fmt.Errorf("%w: join %v: position already hosts a sensor", ErrDynamic, ev.P)
		}
		p = ev.P.Clone()
		m.live[k] = p
		d.Joined++
	case Leave, Fail:
		if !live {
			return fmt.Errorf("%w: leave %v: no sensor at this position", ErrDynamic, ev.P)
		}
		delete(m.live, k)
		d.Departed++
	case Move:
		if _, taken := m.live[ev.To.Key()]; taken && !ev.To.Equal(ev.P) {
			return fmt.Errorf("%w: move to %v: position already hosts a sensor", ErrDynamic, ev.To)
		}
		if err := m.applyOne(Event{Kind: Leave, P: ev.P}, d, touched); err != nil {
			return err
		}
		return m.applyOne(Event{Kind: Join, P: ev.To}, d, touched)
	default:
		return fmt.Errorf("%w: unknown event kind %d", ErrDynamic, ev.Kind)
	}
	touched[k] = p
	return nil
}

// Verify checks the live assignment by brute force against the
// deployment the mutator was built with. It buckets live sensors by
// slot and, within a bucket, tests every pair at Chebyshev distance at
// most 2·reach (sensors farther apart cannot share a neighborhood
// point) with schedule.Conflict. A nil return means collision-free; a
// collision returns the pair as a schedule.CollisionWitness.
func (m *Mutator) Verify() error {
	buckets := make([][]lattice.Point, m.Slots())
	for _, p := range m.live {
		s := m.slot(p)
		buckets[s] = append(buckets[s], p)
	}
	r := 2 * m.dep.Reach()
	for s, pts := range buckets {
		// Sorted lexicographically, a point's partners within r follow
		// it until the first coordinate differs by more than r.
		slices.SortFunc(pts, slices.Compare[lattice.Point])
		for i, p := range pts {
			for _, q := range pts[i+1:] {
				if q[0]-p[0] > r {
					break
				}
				if q.Sub(p).ChebyshevNorm() <= r && schedule.Conflict(m.dep, p, q) {
					return schedule.CollisionWitness{P: p.Clone(), Q: q.Clone(), Slot: s}
				}
			}
		}
	}
	return nil
}
