package core

import (
	"errors"
	"strings"
	"testing"

	"tilingsched/internal/intmat"
	"tilingsched/internal/lattice"
	"tilingsched/internal/prototile"
)

func TestNewPlanCross(t *testing.T) {
	plan, err := NewPlan(lattice.Square(), prototile.Cross(2, 1))
	if err != nil {
		t.Fatalf("NewPlan: %v", err)
	}
	if plan.Slots() != 5 {
		t.Errorf("Slots = %d, want 5", plan.Slots())
	}
	if err := plan.Verify(lattice.CenteredWindow(2, 5)); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

func TestNewPlanRejectsNonExact(t *testing.T) {
	// The U pentomino (3x2 rect minus top-middle) is not exact.
	s := lattice.NewSet(
		lattice.Pt(0, 0), lattice.Pt(1, 0), lattice.Pt(2, 0),
		lattice.Pt(0, 1), lattice.Pt(2, 1),
	)
	u, err := prototile.FromSet("U", s)
	if err != nil {
		t.Fatalf("FromSet: %v", err)
	}
	_, err = NewPlan(lattice.Square(), u)
	if !errors.Is(err, ErrNotExact) {
		t.Errorf("error = %v, want ErrNotExact", err)
	}
}

func TestNewPlanDimensionMismatch(t *testing.T) {
	if _, err := NewPlan(lattice.Cubic(3), prototile.Cross(2, 1)); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if _, err := NewPlanWithPeriod(lattice.Cubic(3), prototile.Cross(2, 1), intmat.Identity(2)); err == nil {
		t.Error("dimension mismatch accepted (explicit period)")
	}
}

func TestNewPlanWithPeriod(t *testing.T) {
	period := intmat.MustFromRows([][]int64{{1, 2}, {2, -1}})
	plan, err := NewPlanWithPeriod(lattice.Square(), prototile.Cross(2, 1), period)
	if err != nil {
		t.Fatalf("NewPlanWithPeriod: %v", err)
	}
	if err := plan.Verify(lattice.CenteredWindow(2, 4)); err != nil {
		t.Errorf("Verify: %v", err)
	}
	// A wrong period must be rejected.
	if _, err := NewPlanWithPeriod(lattice.Square(), prototile.Cross(2, 1),
		intmat.MustFromRows([][]int64{{5, 0}, {0, 1}})); err == nil {
		t.Error("non-transversal period accepted")
	}
}

// TestPlanSignatureCached pins the cached signature to the free
// function's bytes for both constructors: persisted session file IDs
// hash it.
func TestPlanSignatureCached(t *testing.T) {
	tile := prototile.Cross(2, 1)
	p1, err := NewPlan(lattice.Square(), tile)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewPlanWithPeriod(lattice.Square(), tile, intmat.MustFromRows([][]int64{{1, 2}, {2, -1}}))
	if err != nil {
		t.Fatal(err)
	}
	const want = "square/2:-1,0;0,-1;0,0;0,1;1,0"
	for _, p := range []*Plan{p1, p2} {
		if got := p.Signature(); got != want || got != Signature(p.Lattice(), p.Tile()) {
			t.Fatalf("Signature() = %q, want %q", got, want)
		}
	}
}

func TestMayBroadcast(t *testing.T) {
	plan, err := NewPlan(lattice.Square(), prototile.MustTetromino("O"))
	if err != nil {
		t.Fatalf("NewPlan: %v", err)
	}
	pt := lattice.Pt(3, -2)
	k, err := plan.SlotOf(pt)
	if err != nil {
		t.Fatalf("SlotOf: %v", err)
	}
	m := int64(plan.Slots())
	for dt := int64(0); dt < 3*m; dt++ {
		ok, err := plan.MayBroadcast(pt, dt)
		if err != nil {
			t.Fatalf("MayBroadcast: %v", err)
		}
		want := dt%m == int64(k)
		if ok != want {
			t.Errorf("MayBroadcast(t=%d) = %v, want %v", dt, ok, want)
		}
	}
	// Negative times follow the same periodicity.
	ok, err := plan.MayBroadcast(pt, int64(k)-m)
	if err != nil {
		t.Fatalf("MayBroadcast: %v", err)
	}
	if !ok {
		t.Error("negative-time broadcast window wrong")
	}
}

func TestOptimalityReport(t *testing.T) {
	plan, err := NewPlan(lattice.Square(), prototile.Cross(2, 1))
	if err != nil {
		t.Fatalf("NewPlan: %v", err)
	}
	// Window large enough to contain N+N: the schedule is provably
	// optimal there.
	rep, err := plan.Optimality(lattice.CenteredWindow(2, 4), 2_000_000)
	if err != nil {
		t.Fatalf("Optimality: %v", err)
	}
	if !rep.WindowCoversNPlusN {
		t.Error("window should cover N+N")
	}
	if !rep.Proven {
		t.Error("chromatic search not proven on small window")
	}
	if rep.Chromatic != 5 || rep.Slots != 5 || !rep.Optimal {
		t.Errorf("report = %+v, want chromatic 5 = slots 5", rep)
	}
	if rep.CliqueBound != 5 {
		t.Errorf("clique bound = %d, want 5", rep.CliqueBound)
	}
}

func TestOptimalityTinyWindow(t *testing.T) {
	// A window too small for N+N can need fewer slots than m; the
	// report must flag that the Conclusions' condition fails.
	plan, err := NewPlan(lattice.Square(), prototile.Cross(2, 1))
	if err != nil {
		t.Fatalf("NewPlan: %v", err)
	}
	w, err := lattice.BoxWindow(2, 1)
	if err != nil {
		t.Fatalf("BoxWindow: %v", err)
	}
	rep, err := plan.Optimality(w, 1_000_000)
	if err != nil {
		t.Fatalf("Optimality: %v", err)
	}
	if rep.WindowCoversNPlusN {
		t.Error("2x1 window cannot cover N+N of the cross")
	}
	if rep.Chromatic > rep.Slots {
		t.Errorf("restricted chromatic %d exceeds slots %d", rep.Chromatic, rep.Slots)
	}
	if rep.Chromatic == rep.Slots {
		t.Errorf("tiny window should need fewer than %d slots", rep.Slots)
	}
}

func TestExplainExactness(t *testing.T) {
	ok, ev, err := ExplainExactness(prototile.MustTetromino("S"))
	if err != nil {
		t.Fatalf("ExplainExactness: %v", err)
	}
	if !ok || !strings.Contains(ev, "Beauquier") {
		t.Errorf("S: ok=%v evidence=%q", ok, ev)
	}
	// Disconnected cluster {0, 2} ⊂ Z: it is a transversal of no
	// index-2 sublattice (only 2Z exists, and 0 ≡ 2 mod 2Z), yet it
	// tiles Z with the non-lattice translate set T = {0, 1} + 4Z. The
	// periodic-tiling fallback must find that.
	two := prototile.MustNew("gap", lattice.Pt(0), lattice.Pt(2))
	ok, ev, err = ExplainExactness(two)
	if err != nil {
		t.Fatalf("ExplainExactness: %v", err)
	}
	if !ok {
		t.Errorf("gap cluster not recognized as exact: %q", ev)
	}
	if !strings.Contains(ev, "coset") {
		t.Errorf("evidence should mention coset translates: %q", ev)
	}
	// A genuinely non-exact cluster: {0, 1, 3} ⊂ Z cannot tile Z with
	// few cosets (its residues block every small period).
	bad := prototile.MustNew("bad", lattice.Pt(0), lattice.Pt(1), lattice.Pt(3))
	ok, ev, err = ExplainExactness(bad)
	if err != nil {
		t.Fatalf("ExplainExactness: %v", err)
	}
	if ok {
		t.Errorf("cluster {0,1,3} reported exact: %q", ev)
	}
	// 3D brick goes through the lattice-search path.
	brick := prototile.MustNew("brick", lattice.Pt(0, 0, 0), lattice.Pt(1, 0, 0))
	ok, ev, err = ExplainExactness(brick)
	if err != nil {
		t.Fatalf("ExplainExactness: %v", err)
	}
	if !ok || !strings.Contains(ev, "period") {
		t.Errorf("brick: ok=%v evidence=%q", ok, ev)
	}
}
