package schedule

import (
	"errors"
	"math/rand/v2"
	"testing"

	"tilingsched/internal/lattice"
	"tilingsched/internal/prototile"
	"tilingsched/internal/tiling"
)

func mustTiling(t *testing.T, ti *prototile.Tile) *tiling.LatticeTiling {
	t.Helper()
	lt, ok := tiling.FindLatticeTiling(ti)
	if !ok {
		t.Fatalf("no lattice tiling for %s", ti.Name())
	}
	return lt
}

func TestTheorem1CollisionFree(t *testing.T) {
	// The headline result: for every exact prototile in the catalog, the
	// Theorem 1 schedule is collision-free with exactly |N| slots.
	tiles := []*prototile.Tile{
		prototile.Directional(), // Figure 3's 8-slot schedule
		prototile.Cross(2, 1),
		prototile.ChebyshevBall(2, 1),
		prototile.MustTetromino("S"),
		prototile.MustTetromino("T"),
		prototile.LTromino(),
	}
	for _, ti := range tiles {
		lt := mustTiling(t, ti)
		s := FromLatticeTiling(lt)
		if s.Slots() != ti.Size() {
			t.Errorf("%s: slots = %d, want |N| = %d", ti.Name(), s.Slots(), ti.Size())
		}
		dep := s.Deployment()
		if err := VerifyCollisionFree(s, dep, lattice.CenteredWindow(2, 6)); err != nil {
			t.Errorf("%s: %v", ti.Name(), err)
		}
		if s.LowerBound() != ti.Size() {
			t.Errorf("%s: lower bound = %d, want %d", ti.Name(), s.LowerBound(), ti.Size())
		}
	}
}

func TestTheorem1SlotShiftProperty(t *testing.T) {
	// Figure 3's observation: the sensors broadcasting in any fixed slot
	// k are exactly n_k + T, so their neighborhoods tile the lattice —
	// equivalently, the slot-k broadcasters are one coset of T.
	ti := prototile.Directional()
	lt := mustTiling(t, ti)
	s := FromLatticeTiling(lt)
	w := lattice.CenteredWindow(2, 8)
	byslot := make(map[int][]lattice.Point)
	for _, p := range w.Points() {
		k, err := s.SlotOf(p)
		if err != nil {
			t.Fatalf("SlotOf: %v", err)
		}
		byslot[k] = append(byslot[k], p)
	}
	if len(byslot) != 8 {
		t.Fatalf("window uses %d slots, want 8", len(byslot))
	}
	pts := ti.Points()
	for k, sensors := range byslot {
		for _, p := range sensors {
			tr := p.Sub(pts[k])
			in, err := lt.InTranslateSet(tr)
			if err != nil {
				t.Fatalf("InTranslateSet: %v", err)
			}
			if !in {
				t.Fatalf("slot-%d sensor %v is not n_k + T", k, p)
			}
		}
	}
}

func TestPlainTDMACollisionFree(t *testing.T) {
	w := lattice.CenteredWindow(2, 2)
	s := PlainTDMA(w)
	if s.Slots() != w.Size() {
		t.Errorf("TDMA slots = %d, want %d", s.Slots(), w.Size())
	}
	dep := NewHomogeneous(prototile.ChebyshevBall(2, 1))
	if err := VerifyCollisionFree(s, dep, w); err != nil {
		t.Errorf("plain TDMA not collision-free: %v", err)
	}
}

func TestVerifyDetectsCollision(t *testing.T) {
	// All-same-slot schedule must produce a witness for any nontrivial
	// neighborhood.
	w := lattice.CenteredWindow(2, 2)
	pts := w.Points()
	assign := make([]int, len(pts))
	s, err := NewMapSchedule(1, pts, assign)
	if err != nil {
		t.Fatalf("NewMapSchedule: %v", err)
	}
	dep := NewHomogeneous(prototile.Cross(2, 1))
	err = VerifyCollisionFree(s, dep, w)
	if err == nil {
		t.Fatal("collision not detected")
	}
	var cw CollisionWitness
	if !errors.As(err, &cw) {
		t.Fatalf("error is %T, want CollisionWitness", err)
	}
	if cw.Slot != 0 {
		t.Errorf("witness slot = %d, want 0", cw.Slot)
	}
	if !Conflict(dep, cw.P, cw.Q) {
		t.Error("witness pair does not actually conflict")
	}
}

func TestVerifyRejectsUnknownPoints(t *testing.T) {
	s, _ := NewMapSchedule(1, nil, nil)
	dep := NewHomogeneous(prototile.Cross(2, 1))
	if err := VerifyCollisionFree(s, dep, lattice.CenteredWindow(2, 1)); err == nil {
		t.Error("schedule with missing points accepted")
	}
}

func TestVerifyDimensionMismatch(t *testing.T) {
	lt := mustTiling(t, prototile.Cross(2, 1))
	s := FromLatticeTiling(lt)
	if err := VerifyCollisionFree(s, s.Deployment(), lattice.CenteredWindow(3, 1)); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

func TestMapScheduleValidation(t *testing.T) {
	if _, err := NewMapSchedule(0, nil, nil); err == nil {
		t.Error("0 slots accepted")
	}
	if _, err := NewMapSchedule(2, []lattice.Point{lattice.Pt(0, 0)}, []int{5}); err == nil {
		t.Error("out-of-range slot accepted")
	}
	if _, err := NewMapSchedule(2, []lattice.Point{lattice.Pt(0, 0)}, []int{1, 0}); err == nil {
		t.Error("mismatched point/slot lengths accepted")
	}
	if _, err := NewMapSchedule(2, []lattice.Point{lattice.Pt(0, 0), lattice.Pt(0, 0)}, []int{0, 1}); err == nil {
		t.Error("duplicate point accepted")
	}
	s, err := NewMapSchedule(2, []lattice.Point{lattice.Pt(0, 0)}, []int{1})
	if err != nil {
		t.Fatalf("NewMapSchedule: %v", err)
	}
	if _, err := s.SlotOf(lattice.Pt(9, 9)); err == nil {
		t.Error("unknown point accepted")
	}
	k, err := s.SlotOf(lattice.Pt(0, 0))
	if err != nil || k != 1 {
		t.Errorf("SlotOf = %d, %v", k, err)
	}
}

func TestConflictSymmetricAndSelf(t *testing.T) {
	dep := NewHomogeneous(prototile.Cross(2, 1))
	p, q := lattice.Pt(0, 0), lattice.Pt(1, 1)
	if Conflict(dep, p, q) != Conflict(dep, q, p) {
		t.Error("Conflict not symmetric")
	}
	if !Conflict(dep, p, p) {
		t.Error("point should conflict with itself")
	}
	far := lattice.Pt(10, 10)
	if Conflict(dep, p, far) {
		t.Error("distant points conflict")
	}
}

// conflictBySet is the set-based definition of Conflict: p's
// neighborhood in a string-keyed set, probed with each point of q's.
func conflictBySet(dep Deployment, p, q lattice.Point) bool {
	np := lattice.NewSet(dep.NeighborhoodOf(p)...)
	for _, x := range dep.NeighborhoodOf(q) {
		if np.Contains(x) {
			return true
		}
	}
	return false
}

// TestConflictMatchesSetDefinition compares Conflict with its set-based
// definition on random pairs up to one past twice the reach apart, for homogeneous
// deployments (two 512-point tiles among them, one of them sparse) and
// for D1 deployments over two-prototile torus tilings.
func TestConflictMatchesSetDefinition(t *testing.T) {
	rng := rand.New(rand.NewPCG(27, 0))
	sparse := []lattice.Point{lattice.Origin(3)}
	for seen := lattice.NewSet(sparse[0]); len(sparse) < 512; {
		p := lattice.Pt(rng.IntN(15)-7, rng.IntN(15)-7, rng.IntN(15)-7)
		if !seen.Contains(p) {
			seen.Add(p)
			sparse = append(sparse, p)
		}
	}
	rots, err := prototile.LTromino().Rotations()
	if err != nil {
		t.Fatal(err)
	}
	trominoes, err := tiling.SolveTorus([]int{3, 4}, []*prototile.Tile{rots[0], rots[2]}, tiling.SolveOptions{MaxSolutions: 1})
	if err != nil || len(trominoes) == 0 {
		t.Fatalf("SolveTorus: %v (%d solutions)", err, len(trominoes))
	}
	deps := []struct {
		name string
		dep  Deployment
	}{
		{"cross-2-1", NewHomogeneous(prototile.Cross(2, 1))},
		{"chebyshev-3-1", NewHomogeneous(prototile.ChebyshevBall(3, 1))},
		{"rect-16x32", NewHomogeneous(prototile.Rect(16, 32))},
		{"sparse-512", NewHomogeneous(prototile.MustNew("sparse", sparse...))},
		{"d1-domino", NewD1(respectableDominoTiling(t))},
		{"d1-trominoes", NewD1(trominoes[0])},
	}
	const pairs = 500
	for _, d := range deps {
		dim, r := d.dep.Dim(), 2*d.dep.Reach()+1
		conflicts := 0
		for i := 0; i < pairs; i++ {
			p, q := make(lattice.Point, dim), make(lattice.Point, dim)
			for a := range p {
				p[a] = rng.IntN(41) - 20
				q[a] = p[a] + rng.IntN(2*r+1) - r
			}
			got, want := Conflict(d.dep, p, q), conflictBySet(d.dep, p, q)
			if got != want {
				t.Fatalf("%s: Conflict(%v, %v) = %v, set definition %v", d.name, p, q, got, want)
			}
			if want {
				conflicts++
			}
		}
		if conflicts == 0 || conflicts == pairs {
			t.Errorf("%s: %d of %d pairs conflict; both answers must occur", d.name, conflicts, pairs)
		}
	}
}

func TestHomogeneousReach(t *testing.T) {
	if r := NewHomogeneous(prototile.ChebyshevBall(2, 2)).Reach(); r != 2 {
		t.Errorf("Reach = %d, want 2", r)
	}
	if r := NewHomogeneous(prototile.Directional()).Reach(); r != 3 {
		t.Errorf("Reach = %d, want 3 (2x4 block)", r)
	}
}

func TestSlotHistogram(t *testing.T) {
	lt := mustTiling(t, prototile.MustTetromino("O"))
	s := FromLatticeTiling(lt)
	w, err := lattice.BoxWindow(4, 4)
	if err != nil {
		t.Fatalf("BoxWindow: %v", err)
	}
	hist, err := SlotHistogram(s, w)
	if err != nil {
		t.Fatalf("SlotHistogram: %v", err)
	}
	// A 4x4 box aligned with a 2x2 tiling gives perfectly fair slots.
	for k, c := range hist {
		if c != 4 {
			t.Errorf("slot %d has %d sensors, want 4", k, c)
		}
	}
}
