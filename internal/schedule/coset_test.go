package schedule

import (
	"testing"

	"tilingsched/internal/lattice"
	"tilingsched/internal/prototile"
	"tilingsched/internal/tiling"
)

func TestCosetScheduleOverPeriodicTiling(t *testing.T) {
	// The Theorem 1 schedule serves non-lattice periodic tilings too: the
	// gap cluster {0, 2} gets a 2-slot collision-free schedule via
	// T = {0, 1} + 4Z.
	gap := prototile.MustNew("gap", lattice.Pt(0), lattice.Pt(2))
	pt, ok := tiling.FindPeriodicTiling(gap, 3)
	if !ok {
		t.Fatal("no periodic tiling for the gap cluster")
	}
	s := FromLatticeTiling(pt)
	if s.Slots() != 2 {
		t.Errorf("slots = %d, want 2", s.Slots())
	}
	if err := VerifyCollisionFree(s, s.Deployment(), lattice.CenteredWindow(1, 15)); err != nil {
		t.Errorf("periodic-tiling schedule collides: %v", err)
	}
}

func TestCosetScheduleOptimalFor2DGap(t *testing.T) {
	// {(0,0), (2,0)}: 2 slots, collision-free in 2 dimensions.
	gap := prototile.MustNew("gap2", lattice.Pt(0, 0), lattice.Pt(2, 0))
	pt, ok := tiling.FindPeriodicTiling(gap, 2)
	if !ok {
		t.Fatal("no periodic tiling")
	}
	s := FromLatticeTiling(pt)
	if s.Slots() != 2 {
		t.Errorf("slots = %d, want 2", s.Slots())
	}
	if err := VerifyCollisionFree(s, s.Deployment(), lattice.CenteredWindow(2, 6)); err != nil {
		t.Errorf("schedule collides: %v", err)
	}
}
