package tiling

import (
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"tilingsched/internal/boundary"
	"tilingsched/internal/intmat"
	"tilingsched/internal/lattice"
	"tilingsched/internal/prototile"
)

func TestNewLatticeTilingRect(t *testing.T) {
	r := prototile.Rect(2, 4)
	period := intmat.MustFromRows([][]int64{{2, 0}, {0, 4}})
	lt, err := NewLatticeTiling(r, period)
	if err != nil {
		t.Fatalf("NewLatticeTiling: %v", err)
	}
	if lt.Tile() != r {
		t.Error("Tile() not the input tile")
	}
	if err := lt.VerifyWindow(lattice.CenteredWindow(2, 6)); err != nil {
		t.Errorf("VerifyWindow: %v", err)
	}
}

func TestNewLatticeTilingRejectsWrongIndex(t *testing.T) {
	r := prototile.Rect(2, 4)
	if _, err := NewLatticeTiling(r, intmat.MustFromRows([][]int64{{2, 0}, {0, 2}})); err == nil {
		t.Error("index-4 sublattice accepted for 8-point tile")
	}
}

func TestNewLatticeTilingRejectsNonTransversal(t *testing.T) {
	// The 1x2 domino with period 2Z x Z: both cells lie in the same
	// coset of ⟨(2,0),(0,1)⟩? No — (0,0) and (1,0) differ by (1,0) ∉ L,
	// so that IS a transversal. Use ⟨(1,0),(0,2)⟩ instead: (0,0) and
	// (1,0) differ by (1,0) ∈ L.
	d := prototile.MustNew("domino", lattice.Pt(0, 0), lattice.Pt(1, 0))
	_, err := NewLatticeTiling(d, intmat.MustFromRows([][]int64{{1, 0}, {0, 2}}))
	const want = "tiling: invalid tiling: tile points (0, 0) and (1, 0) are congruent mod T"
	if err == nil || !errors.Is(err, ErrTiling) || err.Error() != want {
		t.Errorf("non-transversal: error %v, want %q", err, want)
	}
	if _, err := NewLatticeTiling(d, intmat.MustFromRows([][]int64{{2, 0}, {0, 1}})); err != nil {
		t.Errorf("valid domino tiling rejected: %v", err)
	}
}

func TestNewLatticeTilingRejectsSingular(t *testing.T) {
	d := prototile.MustNew("domino", lattice.Pt(0, 0), lattice.Pt(1, 0))
	if _, err := NewLatticeTiling(d, intmat.MustFromRows([][]int64{{1, 1}, {1, 1}})); err == nil {
		t.Error("singular period accepted")
	}
	if _, err := NewLatticeTiling(d, intmat.MustFromRows([][]int64{{2}})); err == nil {
		t.Error("wrong-shape period accepted")
	}
}

func TestFindLatticeTilingCatalog(t *testing.T) {
	// All tetrominoes, the cross, the Moore ball and the paper's
	// directional tile admit lattice tilings.
	tiles := []*prototile.Tile{
		prototile.MustTetromino("I"), prototile.MustTetromino("O"),
		prototile.MustTetromino("T"), prototile.MustTetromino("S"),
		prototile.MustTetromino("Z"), prototile.MustTetromino("L"),
		prototile.MustTetromino("J"),
		prototile.Cross(2, 1),
		prototile.ChebyshevBall(2, 1),
		prototile.Directional(),
		prototile.LTromino(),
	}
	for _, ti := range tiles {
		lt, ok := FindLatticeTiling(ti)
		if !ok {
			t.Errorf("FindLatticeTiling(%s) found nothing", ti.Name())
			continue
		}
		if err := lt.VerifyWindow(lattice.CenteredWindow(2, 5)); err != nil {
			t.Errorf("%s: window verification failed: %v", ti.Name(), err)
		}
	}
}

func TestCrossLeeSphereTiling(t *testing.T) {
	// The 5-point cross tiles by the lattice generated by (1,2), (2,-1):
	// the classic diagonal (Lee-sphere) tiling. Verify this specific
	// period is accepted.
	cross := prototile.Cross(2, 1)
	lt, err := NewLatticeTiling(cross, intmat.MustFromRows([][]int64{{1, 2}, {2, -1}}))
	if err != nil {
		t.Fatalf("Lee sphere period rejected: %v", err)
	}
	if err := lt.VerifyWindow(lattice.CenteredWindow(2, 4)); err != nil {
		t.Errorf("VerifyWindow: %v", err)
	}
}

func TestFindAgreesWithBeauquierNivat(t *testing.T) {
	// Cross-validation of two independent exactness deciders: the
	// sublattice-transversal search and the boundary-word criterion must
	// agree on every simply connected polyomino tried (exact polyominoes
	// always admit a lattice-periodic tiling).
	rng := rand.New(rand.NewSource(17))
	checked := 0
	for trial := 0; trial < 80; trial++ {
		ti := boundary.RandomSimplePolyomino(rng, 2+rng.Intn(7))
		bn, _, err := boundary.IsExactPolyomino(ti)
		if err != nil {
			t.Fatalf("IsExactPolyomino: %v", err)
		}
		_, viaLattice := FindLatticeTiling(ti)
		if bn != viaLattice {
			t.Fatalf("disagreement on tile\n%s\nBN=%v lattice-search=%v", ti.ASCII(), bn, viaLattice)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no polyominoes checked")
	}
}

func TestFindFailsForNonExact(t *testing.T) {
	u, err := boundary.NotchedRect(3, 2) // the U pentomino
	if err != nil {
		t.Fatalf("NotchedRect: %v", err)
	}
	if _, ok := FindLatticeTiling(u); ok {
		t.Error("U pentomino admitted a lattice tiling")
	}
}

func TestCosetIndexPartition(t *testing.T) {
	// For a lattice tiling (S) and for the two-coset gap tilings of Z and
	// Z², every point must resolve to a slot, lie in the translate
	// TranslateOf(p) + N at that slot's tile point, with the translate in
	// T, and every slot must be used.
	s, ok := FindLatticeTiling(prototile.MustTetromino("S"))
	if !ok {
		t.Fatal("no tiling for S")
	}
	tilings := []*PeriodicTiling{s}
	for _, gap := range []*prototile.Tile{
		prototile.MustNew("gap", lattice.Pt(0), lattice.Pt(2)),
		prototile.MustNew("gap2", lattice.Pt(0, 0), lattice.Pt(2, 0)),
	} {
		pt, ok := FindPeriodicTiling(gap, 2)
		if !ok || len(pt.Offsets()) != 2 {
			t.Fatalf("%s: want a two-coset tiling, got %v", gap.Name(), pt)
		}
		tilings = append(tilings, pt)
	}
	for _, tl := range tilings {
		ti := tl.Tile()
		countByIdx := make([]int, ti.Size())
		for _, p := range lattice.CenteredWindow(ti.Dim(), 6).Points() {
			k, err := tl.CosetIndex(p)
			if err != nil {
				t.Fatalf("%s: CosetIndex(%v): %v", ti.Name(), p, err)
			}
			if k < 0 || k >= ti.Size() {
				t.Fatalf("%s: CosetIndex(%v) = %d out of range", ti.Name(), p, k)
			}
			countByIdx[k]++
			// p must equal translate + n_k with translate in T.
			tr, err := tl.TranslateOf(p)
			if err != nil {
				t.Fatalf("%s: TranslateOf: %v", ti.Name(), err)
			}
			in, err := tl.InTranslateSet(tr)
			if err != nil {
				t.Fatalf("%s: InTranslateSet: %v", ti.Name(), err)
			}
			if !in {
				t.Fatalf("%s: TranslateOf(%v) = %v not in T", ti.Name(), p, tr)
			}
			if n := p.Sub(tr); !n.Equal(ti.Points()[k]) {
				t.Fatalf("%s: p - TranslateOf(p) = %v at %v, want tile point %v", ti.Name(), n, p, ti.Points()[k])
			}
		}
		for k, c := range countByIdx {
			if c == 0 {
				t.Errorf("%s: coset %d unused in window", ti.Name(), k)
			}
		}
	}
}

func TestCosetIndexConstantOnCosets(t *testing.T) {
	lt, ok := FindLatticeTiling(prototile.Cross(2, 1))
	if !ok {
		t.Fatal("no tiling for cross")
	}
	period := lt.Period()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		p := lattice.Pt(rng.Intn(21)-10, rng.Intn(21)-10)
		k1, err := lt.CosetIndex(p)
		if err != nil {
			t.Fatalf("CosetIndex: %v", err)
		}
		// Shift by a random lattice combination of the period rows.
		a, b := rng.Intn(7)-3, rng.Intn(7)-3
		shift := lattice.Pt(
			a*int(period.At(0, 0))+b*int(period.At(1, 0)),
			a*int(period.At(0, 1))+b*int(period.At(1, 1)),
		)
		k2, err := lt.CosetIndex(p.Add(shift))
		if err != nil {
			t.Fatalf("CosetIndex: %v", err)
		}
		if k1 != k2 {
			t.Fatalf("coset index not T-invariant: %d vs %d at %v + %v", k1, k2, p, shift)
		}
	}
}

func TestAllLatticeTilingsRect(t *testing.T) {
	// The 2x2 square has multiple period lattices (e.g. straight grid
	// and brick-like shifts).
	o := prototile.MustTetromino("O")
	all := AllLatticeTilings(o)
	if len(all) < 2 {
		t.Errorf("O tetromino has %d lattice tilings, want ≥ 2", len(all))
	}
	for _, lt := range all {
		if err := lt.VerifyWindow(lattice.CenteredWindow(2, 4)); err != nil {
			t.Errorf("tiling %s failed verification: %v", lt, err)
		}
	}
}

func TestVerifyWindowDimMismatch(t *testing.T) {
	lt, ok := FindLatticeTiling(prototile.MustTetromino("O"))
	if !ok {
		t.Fatal("no tiling for O")
	}
	if err := lt.VerifyWindow(lattice.CenteredWindow(3, 2)); err == nil {
		t.Error("dimension-mismatched window accepted")
	}
}

func Test1DTiling(t *testing.T) {
	// Segments tile Z trivially; check the machinery works in d=1.
	seg := prototile.MustNew("seg3", lattice.Pt(0), lattice.Pt(1), lattice.Pt(2))
	lt, ok := FindLatticeTiling(seg)
	if !ok {
		t.Fatal("no tiling for 1-dim segment")
	}
	if err := lt.VerifyWindow(lattice.CenteredWindow(1, 9)); err != nil {
		t.Errorf("VerifyWindow: %v", err)
	}
}

func Test3DTiling(t *testing.T) {
	// A 2x1x1 brick tiles Z^3.
	brick := prototile.MustNew("brick", lattice.Pt(0, 0, 0), lattice.Pt(1, 0, 0))
	lt, ok := FindLatticeTiling(brick)
	if !ok {
		t.Fatal("no tiling for 3-dim brick")
	}
	if err := lt.VerifyWindow(lattice.CenteredWindow(3, 3)); err != nil {
		t.Errorf("VerifyWindow: %v", err)
	}
}

// raceEnabled reports a -race build (race_test.go).
var raceEnabled bool

// TestFindLatticeTilingMemory bounds the bytes the search allocates for
// the 4-D Chebyshev ball, 81 points, whose hit is the 20,440th of the
// 925,771 sublattices of index 81: candidates are generated one at a
// time and rejected without an error value, so the search allocates
// about 24 MB, where listing every candidate first took about 235 MB.
func TestFindLatticeTilingMemory(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations distort the count")
	}
	tile := prototile.ChebyshevBall(4, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	lt, ok := FindLatticeTiling(tile)
	runtime.ReadMemStats(&after)
	if !ok {
		t.Fatal("no lattice tiling found")
	}
	want := intmat.MustFromRows([][]int64{{1, 0, 0, 3}, {0, 1, 0, 9}, {0, 0, 1, 27}, {0, 0, 0, 81}})
	if !lt.Period().Equal(want) {
		t.Errorf("period %s, want %s", lt.Period(), want)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 64<<20 {
		t.Errorf("FindLatticeTiling(%s) allocated %d MB, want ≤ 64 MB", tile.Name(), n>>20)
	}
}
