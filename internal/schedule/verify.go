package schedule

import (
	"fmt"
	"slices"

	"tilingsched/internal/lattice"
)

// Conflict reports whether two sensors may not share a slot: their
// interference neighborhoods intersect. This is the paper's condition
// "(s+N) ∩ (t+N) ≠ ∅"; note p conflicts with itself (p ∈ p+N). Both
// neighborhoods are sorted lexicographically and merged, with no set or
// string key; a translate of a sorted tile is already sorted.
func Conflict(dep Deployment, p, q lattice.Point) bool {
	np, nq := dep.NeighborhoodOf(p), dep.NeighborhoodOf(q)
	slices.SortFunc(np, slices.Compare[lattice.Point])
	slices.SortFunc(nq, slices.Compare[lattice.Point])
	for len(np) > 0 && len(nq) > 0 {
		switch c := slices.Compare(np[0], nq[0]); {
		case c < 0:
			np = np[1:]
		case c > 0:
			nq = nq[1:]
		default:
			return true
		}
	}
	return false
}

// CollisionWitness is a pair of same-slot sensors with intersecting
// neighborhoods, proving a schedule is not collision-free.
type CollisionWitness struct {
	P, Q lattice.Point
	Slot int
}

// Error renders the witness as the verification error message.
func (cw CollisionWitness) Error() string {
	return fmt.Sprintf("schedule: collision in slot %d between %s and %s", cw.Slot, cw.P, cw.Q)
}

// VerifyCollisionFree checks that no two sensors inside the window that
// share a slot have intersecting neighborhoods. Sensor pairs farther apart
// than twice the deployment reach cannot conflict and are skipped; within
// that radius the neighborhoods are compared exactly. A nil return means
// the schedule restricted to the window is collision-free.
func VerifyCollisionFree(s Schedule, dep Deployment, w lattice.Window) error {
	if w.Dim() != dep.Dim() {
		return fmt.Errorf("%w: window dimension %d ≠ deployment dimension %d",
			ErrSchedule, w.Dim(), dep.Dim())
	}
	size, err := w.SizeChecked()
	if err != nil {
		return fmt.Errorf("%w: verification window too large: %v", ErrSchedule, err)
	}
	pts := w.Points()
	slots := make([]int32, size)
	for i, p := range pts {
		k, err := s.SlotOf(p)
		if err != nil {
			return fmt.Errorf("schedule: verifying %v: %w", p, err)
		}
		if k < 0 || k >= s.Slots() {
			return fmt.Errorf("%w: slot %d of %v outside [0, %d)", ErrSchedule, k, p, s.Slots())
		}
		slots[i] = int32(k)
	}
	reach := dep.Reach()
	var witness *CollisionWitness
	for i, p := range pts {
		kp := slots[i]
		// Scan the forward half-neighborhood to test each pair once.
		eachNeighborWithin(p, 2*reach, w, func(q lattice.Point) bool {
			if !p.Less(q) {
				return true
			}
			j, _ := w.IndexOf(q)
			if slots[j] != kp {
				return true
			}
			if Conflict(dep, p, q) {
				witness = &CollisionWitness{P: p, Q: q.Clone(), Slot: int(kp)}
				return false
			}
			return true
		})
		if witness != nil {
			return *witness
		}
	}
	return nil
}

// eachNeighborWithin visits the window points within Chebyshev distance r
// of p, excluding p itself, until f returns false. The point passed to f
// is a reused buffer (see Window.Each).
func eachNeighborWithin(p lattice.Point, r int, w lattice.Window, f func(q lattice.Point) bool) {
	lo := p.Clone()
	hi := p.Clone()
	for i := range lo {
		lo[i] -= r
		hi[i] += r
		if lo[i] < w.Lo[i] {
			lo[i] = w.Lo[i]
		}
		if hi[i] > w.Hi[i] {
			hi[i] = w.Hi[i]
		}
	}
	box, err := lattice.NewWindow(lo, hi)
	if err != nil {
		return
	}
	box.Each(func(q lattice.Point) bool {
		if q.Equal(p) {
			return true
		}
		return f(q)
	})
}

// SlotHistogram counts how many window sensors use each slot — useful for
// fairness/utilization reporting in the experiment harness.
func SlotHistogram(s Schedule, w lattice.Window) ([]int, error) {
	hist := make([]int, s.Slots())
	var herr error
	w.Each(func(p lattice.Point) bool {
		k, err := s.SlotOf(p)
		if err != nil {
			herr = err
			return false
		}
		if k < 0 || k >= len(hist) {
			herr = fmt.Errorf("%w: slot %d outside [0, %d)", ErrSchedule, k, len(hist))
			return false
		}
		hist[k]++
		return true
	})
	if herr != nil {
		return nil, herr
	}
	return hist, nil
}
