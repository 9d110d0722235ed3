package dynamic

import (
	"errors"
	"testing"

	"tilingsched/internal/lattice"
	"tilingsched/internal/prototile"
	"tilingsched/internal/schedule"
	"tilingsched/internal/tiling"
)

func crossMutator(t *testing.T, w lattice.Window, opts Options) (*Mutator, *schedule.Theorem1) {
	t.Helper()
	tile := prototile.Cross(2, 1)
	lt, ok := tiling.FindLatticeTiling(tile)
	if !ok {
		t.Fatal("no tiling for cross")
	}
	plan := schedule.FromLatticeTiling(lt)
	m, err := NewMutator(schedule.NewHomogeneous(tile), w, plan, opts)
	if err != nil {
		t.Fatalf("NewMutator: %v", err)
	}
	return m, plan
}

// TestZeroDisruptionRejoin: with the Theorem 1 seed, leave/rejoin churn
// inside the window never reassigns an existing sensor — the tiling
// schedule is closed under removal, so the freed slot is always free
// again at rejoin time.
func TestZeroDisruptionRejoin(t *testing.T) {
	w := lattice.CenteredWindow(2, 6)
	m, _ := crossMutator(t, w, Options{})
	pts := []lattice.Point{lattice.Pt(0, 0), lattice.Pt(3, -2), lattice.Pt(-6, 6), lattice.Pt(1, 1)}
	for round := 0; round < 3; round++ {
		for _, p := range pts {
			d, changed, err := m.Apply([]Event{{Kind: Leave, P: p}})
			if err != nil {
				t.Fatalf("leave %v: %v", p, err)
			}
			if d.Reassigned != 0 || d.Departed != 1 || len(changed) != 1 || changed[0].Slot != -1 {
				t.Fatalf("leave %v: disruption %+v changes %v", p, d, changed)
			}
			d, changed, err = m.Apply([]Event{{Kind: Join, P: p}})
			if err != nil {
				t.Fatalf("rejoin %v: %v", p, err)
			}
			if d.Reassigned != 0 || d.Joined != 1 || d.FullRecolor {
				t.Fatalf("rejoin %v disrupted: %+v", p, d)
			}
			if len(changed) != 1 || changed[0].Slot < 0 || !changed[0].P.Equal(p) {
				t.Fatalf("rejoin %v changes %v", p, changed)
			}
		}
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	if m.Slots() != 5 {
		t.Fatalf("palette grew to %d under pure rejoin churn", m.Slots())
	}
}

// TestBoundedDisruptionLargeWindow is the acceptance property at scale:
// one join just outside a 10k-sensor deployment takes its plan slot and
// reassigns no one.
func TestBoundedDisruptionLargeWindow(t *testing.T) {
	w, err := lattice.BoxWindow(100, 100)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := crossMutator(t, w, Options{Residues: tiling.IdentityResidues(2)})
	n := m.AliveCount()
	if n != 10000 {
		t.Fatalf("alive = %d", n)
	}
	p := lattice.Pt(100, 50)
	d, _, err := m.Apply([]Event{{Kind: Join, P: p}})
	if err != nil {
		t.Fatal(err)
	}
	if d.Reassigned != 0 || d.FullRecolor || d.Joined != 1 {
		t.Fatalf("join disruption %+v (n = %d)", d, n)
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestEventErrors pins the failure contract: bad events error without
// corrupting state, and a failed batch reports the prefix it applied.
func TestEventErrors(t *testing.T) {
	w := lattice.CenteredWindow(2, 2)
	m, _ := crossMutator(t, w, Options{})
	cases := []struct {
		name string
		ev   Event
	}{
		{"join occupied", Event{Kind: Join, P: lattice.Pt(0, 0)}},
		{"leave missing", Event{Kind: Leave, P: lattice.Pt(9, 9)}},
		{"fail missing", Event{Kind: Fail, P: lattice.Pt(9, 9)}},
		{"move from missing", Event{Kind: Move, P: lattice.Pt(9, 9), To: lattice.Pt(10, 10)}},
		{"move onto occupied", Event{Kind: Move, P: lattice.Pt(0, 0), To: lattice.Pt(1, 1)}},
		{"move to wrong dimension", Event{Kind: Move, P: lattice.Pt(0, 0), To: lattice.Pt(1, 2, 3)}},
		{"wrong dimension", Event{Kind: Join, P: lattice.Pt(1, 2, 3)}},
	}
	for _, c := range cases {
		if _, _, err := m.Apply([]Event{c.ev}); !errors.Is(err, ErrDynamic) {
			t.Errorf("%s: err = %v, want ErrDynamic", c.name, err)
		}
		if err := m.Verify(); err != nil {
			t.Errorf("%s corrupted state: %v", c.name, err)
		}
	}
	// A failed Move is a full no-op: the source sensor must still be
	// scheduled (the half-applied leave would silently drop it).
	if _, err := m.SlotOf(lattice.Pt(0, 0)); err != nil {
		t.Fatalf("failed moves dropped the source sensor: %v", err)
	}
	// Batch stops at the failing event, keeping the applied prefix.
	d, changed, err := m.Apply([]Event{
		{Kind: Leave, P: lattice.Pt(0, 0)},
		{Kind: Join, P: lattice.Pt(0, 0)},
		{Kind: Join, P: lattice.Pt(0, 0)}, // occupied again: fails
	})
	if !errors.Is(err, ErrDynamic) || d.Events != 2 {
		t.Fatalf("partial batch: events=%d err=%v", d.Events, err)
	}
	if len(changed) != 1 || changed[0].Slot < 0 {
		t.Fatalf("partial batch changes %v", changed)
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchDeltaMerging: a position touched several times in one batch
// appears once in the deltas, with its final state.
func TestBatchDeltaMerging(t *testing.T) {
	w := lattice.CenteredWindow(2, 3)
	m, _ := crossMutator(t, w, Options{})
	p, q := lattice.Pt(0, 0), lattice.Pt(4, 0) // q outside the window
	d, changed, err := m.Apply([]Event{
		{Kind: Leave, P: p},
		{Kind: Join, P: p}, // rejoin: departure canceled
		{Kind: Join, P: q},
		{Kind: Leave, P: q}, // added then gone: only the departure remains
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Events != 4 || d.Joined != 2 || d.Departed != 2 {
		t.Fatalf("disruption %+v", d)
	}
	got := map[string]int{}
	for _, ch := range changed {
		if _, dup := got[ch.P.Key()]; dup {
			t.Fatalf("position %v appears twice in %v", ch.P, changed)
		}
		got[ch.P.Key()] = ch.Slot
	}
	if s, ok := got[p.Key()]; !ok || s < 0 {
		t.Fatalf("rejoined %v missing or departed in deltas: %v", p, changed)
	}
	if s, ok := got[q.Key()]; !ok || s != -1 {
		t.Fatalf("departed %v missing or live in deltas: %v", q, changed)
	}
}

// TestMoveAtomicity: a move is one event — source freed, destination on
// its plan slot, one departure and one join in the disruption.
func TestMoveAtomicity(t *testing.T) {
	w := lattice.CenteredWindow(2, 3)
	m, plan := crossMutator(t, w, Options{})
	from, to := lattice.Pt(2, 2), lattice.Pt(5, 5)
	d, _, err := m.Apply([]Event{{Kind: Move, P: from, To: to}})
	if err != nil {
		t.Fatal(err)
	}
	if d.Joined != 1 || d.Departed != 1 {
		t.Fatalf("move disruption %+v", d)
	}
	if _, err := m.SlotOf(from); err == nil {
		t.Fatal("source still scheduled after move")
	}
	if s, err := m.SlotOf(to); err != nil {
		t.Fatalf("destination unscheduled after move: %v", err)
	} else if want, _ := plan.SlotOf(to); s != want {
		t.Fatalf("destination holds slot %d, plan slot %d", s, want)
	}
}

// TestEachAssignment walks every live sensor exactly once with its
// current slot.
func TestEachAssignment(t *testing.T) {
	w := lattice.CenteredWindow(2, 2)
	m, plan := crossMutator(t, w, Options{})
	if _, _, err := m.Apply([]Event{
		{Kind: Leave, P: lattice.Pt(0, 0)},
		{Kind: Join, P: lattice.Pt(3, 3)},
	}); err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	m.EachAssignment(func(p lattice.Point, slot int) bool {
		if _, dup := seen[p.Key()]; dup {
			t.Fatalf("%v visited twice", p)
		}
		seen[p.Key()] = slot
		return true
	})
	if len(seen) != m.AliveCount() {
		t.Fatalf("visited %d, alive %d", len(seen), m.AliveCount())
	}
	if _, ok := seen[lattice.Pt(0, 0).Key()]; ok {
		t.Fatal("departed sensor visited")
	}
	if s, ok := seen[lattice.Pt(1, 1).Key()]; !ok {
		t.Fatal("untouched sensor missing")
	} else if want, _ := plan.SlotOf(lattice.Pt(1, 1)); s != want {
		t.Fatalf("untouched sensor drifted: %d ≠ %d", s, want)
	}
}

// TestVerifyFindsCollision: Verify checks the seed against the
// deployment, so the cross's schedule over a Moore deployment, whose
// neighborhoods the cross does not tile, reports a colliding pair.
func TestVerifyFindsCollision(t *testing.T) {
	w := lattice.CenteredWindow(2, 3)
	m, plan := crossMutator(t, w, Options{})
	if err := m.Verify(); err != nil {
		t.Fatalf("cross seed over its own deployment: %v", err)
	}
	moore := schedule.NewHomogeneous(prototile.ChebyshevBall(2, 1))
	bad, err := NewMutator(moore, w, plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var cw schedule.CollisionWitness
	if err := bad.Verify(); !errors.As(err, &cw) {
		t.Fatalf("Verify = %v, want a schedule.CollisionWitness", err)
	}
	sp, _ := plan.SlotOf(cw.P)
	sq, _ := plan.SlotOf(cw.Q)
	if sp != cw.Slot || sq != cw.Slot || !schedule.Conflict(moore, cw.P, cw.Q) {
		t.Fatalf("witness %v: slots %d, %d and conflict %v", cw, sp, sq, schedule.Conflict(moore, cw.P, cw.Q))
	}
}

// TestNilSeed: a mutator needs a Theorem 1 seed; nil is refused.
func TestNilSeed(t *testing.T) {
	dep := schedule.NewHomogeneous(prototile.Cross(2, 1))
	if _, err := NewMutator(dep, lattice.CenteredWindow(2, 2), nil, Options{}); !errors.Is(err, ErrDynamic) {
		t.Fatalf("NewMutator(nil seed) err = %v, want ErrDynamic", err)
	}
}
