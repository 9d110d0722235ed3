package tiling

import (
	"testing"

	"tilingsched/internal/intmat"
	"tilingsched/internal/lattice"
	"tilingsched/internal/prototile"
)

func TestFindPeriodicTilingGapCluster(t *testing.T) {
	// {0, 2} ⊂ Z admits no lattice tiling but tiles with T = {0,1}+4Z.
	gap := prototile.MustNew("gap", lattice.Pt(0), lattice.Pt(2))
	if _, ok := FindLatticeTiling(gap); ok {
		t.Fatal("gap cluster should have no lattice tiling")
	}
	pt, ok := FindPeriodicTiling(gap, 3)
	if !ok {
		t.Fatal("gap cluster should have a periodic tiling with ≤ 3 cosets")
	}
	if got := len(pt.Offsets()); got != 2 {
		t.Errorf("offsets = %d, want 2", got)
	}
	idx, err := intmat.Index(pt.Period())
	if err != nil {
		t.Fatalf("Index: %v", err)
	}
	if idx != 4 {
		t.Errorf("period index = %d, want 4", idx)
	}
	if err := pt.VerifyWindow(lattice.CenteredWindow(1, 12)); err != nil {
		t.Errorf("VerifyWindow: %v", err)
	}
}

func TestFindPeriodicTiling2DGap(t *testing.T) {
	// {(0,0), (2,0)} ⊂ Z² likewise needs two cosets.
	gap := prototile.MustNew("gap2", lattice.Pt(0, 0), lattice.Pt(2, 0))
	if _, ok := FindLatticeTiling(gap); ok {
		t.Fatal("2-D gap cluster should have no lattice tiling")
	}
	pt, ok := FindPeriodicTiling(gap, 2)
	if !ok {
		t.Fatal("2-D gap cluster should tile with 2 cosets")
	}
	if err := pt.VerifyWindow(lattice.CenteredWindow(2, 5)); err != nil {
		t.Errorf("VerifyWindow: %v", err)
	}
}

func TestFindPeriodicTilingReducesToLattice(t *testing.T) {
	// The one-coset pass is the lattice search: for every catalog tile it
	// finds the same period, with offset 0, so every point gets the same
	// Theorem 1 slot.
	for _, ti := range catalogTiles(t) {
		lt, ok := FindLatticeTiling(ti)
		if !ok {
			t.Fatalf("no lattice tiling for %s", ti.Name())
		}
		pt, ok := FindPeriodicTiling(ti, 1)
		if !ok {
			t.Fatalf("%s should tile with one coset", ti.Name())
		}
		if !pt.Period().Equal(lt.Period()) {
			t.Fatalf("%s: period %s, lattice search found %s", ti.Name(), pt.Period(), lt.Period())
		}
		if offs := pt.Offsets(); len(offs) != 1 || !offs[0].Equal(lattice.Origin(ti.Dim())) {
			t.Fatalf("%s: offsets %v, want the origin alone", ti.Name(), offs)
		}
		side := 4
		if ti.Dim() > 2 {
			side = 2
		}
		w := lattice.CenteredWindow(ti.Dim(), side)
		w.Each(func(p lattice.Point) bool {
			got, err := pt.CosetIndex(p)
			if err != nil {
				t.Fatalf("%s: CosetIndex(%v): %v", ti.Name(), p, err)
			}
			if want, _ := lt.CosetIndex(p); got != want {
				t.Fatalf("%s: CosetIndex(%v) = %d, lattice tiling says %d", ti.Name(), p, got, want)
			}
			return true
		})
		if err := pt.VerifyWindow(w); err != nil {
			t.Errorf("%s: VerifyWindow: %v", ti.Name(), err)
		}
	}
}

func TestFindPeriodicTilingRejectsNonTiler(t *testing.T) {
	// {0, 1, 3} does not tile Z at all.
	bad := prototile.MustNew("bad", lattice.Pt(0), lattice.Pt(1), lattice.Pt(3))
	if _, ok := FindPeriodicTiling(bad, 4); ok {
		t.Error("non-tiling cluster accepted")
	}
}

func TestPeriodicCosetIndexPartition(t *testing.T) {
	gap := prototile.MustNew("gap", lattice.Pt(0), lattice.Pt(2))
	pt, ok := FindPeriodicTiling(gap, 3)
	if !ok {
		t.Fatal("no periodic tiling")
	}
	// Every integer gets a slot in {0, 1}; slots must alternate so that
	// same-slot sensors are at distance ≥ ... simply: each slot class,
	// translated by the tile, partitions Z.
	counts := make([]int, gap.Size())
	for x := -20; x <= 20; x++ {
		k, err := pt.CosetIndex(lattice.Pt(x))
		if err != nil {
			t.Fatalf("CosetIndex(%d): %v", x, err)
		}
		if k < 0 || k >= gap.Size() {
			t.Fatalf("slot %d out of range", k)
		}
		counts[k]++
	}
	for k, c := range counts {
		if c == 0 {
			t.Errorf("slot %d unused", k)
		}
	}
}

func TestNewPeriodicTilingValidation(t *testing.T) {
	gap := prototile.MustNew("gap", lattice.Pt(0), lattice.Pt(2))
	fourZ := intmat.MustFromRows([][]int64{{4}})
	// Correct: offsets {0, 1}.
	pt, err := NewPeriodicTiling(gap, fourZ, []lattice.Point{lattice.Pt(0), lattice.Pt(1)})
	if err != nil {
		t.Fatalf("valid periodic tiling rejected: %v", err)
	}
	if err := pt.VerifyWindow(lattice.CenteredWindow(1, 10)); err != nil {
		t.Errorf("VerifyWindow: %v", err)
	}
	// Overlapping: offsets {0, 2} — 2 ≡ 0+2 covers residue 2 twice.
	if _, err := NewPeriodicTiling(gap, fourZ, []lattice.Point{lattice.Pt(0), lattice.Pt(2)}); err == nil {
		t.Error("overlapping offsets accepted")
	}
	// Wrong index.
	if _, err := NewPeriodicTiling(gap, intmat.MustFromRows([][]int64{{6}}),
		[]lattice.Point{lattice.Pt(0), lattice.Pt(1)}); err == nil {
		t.Error("wrong period index accepted")
	}
	// No offsets.
	if _, err := NewPeriodicTiling(gap, fourZ, nil); err == nil {
		t.Error("empty offsets accepted")
	}
	// Non-canonical offsets must be reduced, not rejected.
	pt2, err := NewPeriodicTiling(gap, fourZ, []lattice.Point{lattice.Pt(4), lattice.Pt(5)})
	if err != nil {
		t.Fatalf("non-canonical offsets rejected: %v", err)
	}
	if err := pt2.VerifyWindow(lattice.CenteredWindow(1, 8)); err != nil {
		t.Errorf("VerifyWindow after canonicalization: %v", err)
	}
}
