package service

import (
	"testing"

	"tilingsched/internal/lattice"
	"tilingsched/internal/prototile"
)

// TestQuerySlotsParity checks the batch engine against point-at-a-time
// Plan.SlotOf over a window, for both the explicit-points and the
// window-shorthand paths.
func TestQuerySlotsParity(t *testing.T) {
	plan := mustPlan(t, prototile.Cross(2, 1))
	w := lattice.CenteredWindow(2, 6)
	pts := w.Points()

	batch, err := QuerySlots(plan, pts, nil)
	if err != nil {
		t.Fatalf("QuerySlots: %v", err)
	}
	win, err := QueryWindowSlots(plan, w, nil)
	if err != nil {
		t.Fatalf("QueryWindowSlots: %v", err)
	}
	if len(batch) != len(pts) || len(win) != len(pts) {
		t.Fatalf("lengths %d, %d, want %d", len(batch), len(win), len(pts))
	}
	for i, p := range pts {
		want, err := plan.SlotOf(p)
		if err != nil {
			t.Fatal(err)
		}
		if int(batch[i]) != want {
			t.Errorf("batch slot of %v = %d, want %d", p, batch[i], want)
		}
		if int(win[i]) != want {
			t.Errorf("window slot at index %d (%v) = %d, want %d", i, p, win[i], want)
		}
	}
}

func TestQueryMayBroadcastParity(t *testing.T) {
	plan := mustPlan(t, prototile.ChebyshevBall(2, 1))
	w := lattice.CenteredWindow(2, 4)
	pts := w.Points()
	for _, tm := range []int64{0, 3, 8, -1, -9, 1 << 40} {
		batch, err := QueryMayBroadcast(plan, pts, tm, nil)
		if err != nil {
			t.Fatalf("QueryMayBroadcast(t=%d): %v", tm, err)
		}
		win, err := QueryWindowMayBroadcast(plan, w, tm, nil)
		if err != nil {
			t.Fatalf("QueryWindowMayBroadcast(t=%d): %v", tm, err)
		}
		for i, p := range pts {
			want, err := plan.MayBroadcast(p, tm)
			if err != nil {
				t.Fatal(err)
			}
			if batch[i] != want || win[i] != want {
				t.Errorf("may(%v, t=%d): batch %v window %v, want %v", p, tm, batch[i], win[i], want)
			}
		}
	}
}

func TestQueryErrors(t *testing.T) {
	plan := mustPlan(t, prototile.Cross(2, 1))
	if _, err := QuerySlots(plan, []lattice.Point{lattice.Pt(1, 2, 3)}, nil); err == nil {
		t.Error("QuerySlots accepted a 3-d point against a 2-d plan")
	}
	if _, err := QueryWindowSlots(plan, lattice.CenteredWindow(3, 1), nil); err == nil {
		t.Error("QueryWindowSlots accepted a 3-d window against a 2-d plan")
	}
	if _, err := QueryMayBroadcast(plan, []lattice.Point{lattice.Pt(1)}, 0, nil); err == nil {
		t.Error("QueryMayBroadcast accepted a 1-d point against a 2-d plan")
	}
	if _, err := QueryWindowMayBroadcast(plan, lattice.CenteredWindow(1, 1), 0, nil); err == nil {
		t.Error("QueryWindowMayBroadcast accepted a 1-d window against a 2-d plan")
	}
}

// TestQueryZeroAlloc pins the steady-state contract: with a reused
// destination slice, batch queries allocate nothing.
func TestQueryZeroAlloc(t *testing.T) {
	plan := mustPlan(t, prototile.Cross(2, 1))
	w := lattice.CenteredWindow(2, 8)
	pts := w.Points()
	slots := make([]int32, 0, len(pts))
	may := make([]bool, 0, len(pts))

	if n := testing.AllocsPerRun(10, func() {
		var err error
		slots, err = QuerySlots(plan, pts, slots[:0])
		if err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("QuerySlots allocates %.1f per batch, want 0", n)
	}
	if n := testing.AllocsPerRun(10, func() {
		var err error
		slots, err = QueryWindowSlots(plan, w, slots[:0])
		if err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		// Window iteration clones one cursor point per batch.
		t.Errorf("QueryWindowSlots allocates %.1f per batch, want ≤ 1", n)
	}
	if n := testing.AllocsPerRun(10, func() {
		var err error
		may, err = QueryMayBroadcast(plan, pts, 42, may[:0])
		if err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("QueryMayBroadcast allocates %.1f per batch, want 0", n)
	}
}

// TestAnswerWindowRunReused pins the pooled answer run: a warm window
// answer reuses the run the previous request grew, so it allocates only
// the window cursor clone TestQueryZeroAlloc allows.
func TestAnswerWindowRunReused(t *testing.T) {
	plan := mustPlan(t, prototile.Cross(2, 1))
	req := BinBatch{Window: lattice.CenteredWindow(2, 63), UseWindow: true, T: 3} // 127² answers
	var buf queryBuf
	answer := func() {
		if err := answerSlots(plan, &req, binChunkPoints, &buf, func([]int32) bool { return true }); err != nil {
			t.Fatal(err)
		}
	}
	answer()
	if n := testing.AllocsPerRun(10, answer); n > 1 {
		t.Errorf("warm window answerSlots allocates %.1f per call, want ≤ 1", n)
	}
}
