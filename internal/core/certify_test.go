package core

import (
	"errors"
	"math/rand"
	"testing"

	"tilingsched/internal/intmat"
	"tilingsched/internal/lattice"
	"tilingsched/internal/prototile"
)

// certPlans are the plans the certificate tests compile: the paper's
// cross, the hexagonal ball, the 3-D cross, tetromino:T (cyclic, HNF
// diagonal not (1,…,1,m)) and the non-cyclic 2Z×2Z period of the 2×2
// square.
func certPlans(t *testing.T) map[string]*Plan {
	t.Helper()
	hex := lattice.Hexagonal()
	plans := map[string]*Plan{}
	add := func(name string, p *Plan, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		plans[name] = p
	}
	p, err := NewPlan(lattice.Square(), prototile.Cross(2, 1))
	add("cross:2:1", p, err)
	p, err = NewPlan(hex, prototile.EuclideanBall(hex, 1))
	add("hexagonal ball:1", p, err)
	p, err = NewPlan(lattice.Cubic(3), prototile.Cross(3, 1))
	add("cubic:3 cross:3:1", p, err)
	p, err = NewPlan(lattice.Square(), prototile.MustTetromino("T"))
	add("tetromino:T", p, err)
	p, err = NewPlanWithPeriod(lattice.Square(), prototile.Rect(2, 2), intmat.MustFromRows([][]int64{{2, 0}, {0, 2}}))
	add("rect:2:2 over 2Z×2Z", p, err)
	return plans
}

// TestCertificateChecks pins the proof's size on each plan: one HNF
// reduction per tile point, one range check per box representative, one
// check per period row and one label check per tile point.
func TestCertificateChecks(t *testing.T) {
	for name, p := range certPlans(t) {
		m, d := p.Slots(), p.Tile().Dim()
		got, err := certify(p.Tile(), p.Tiling().Period(), p.SlotOf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := 3*m + d; got != want {
			t.Errorf("%s: certify ran %d checks, want %d", name, got, want)
		}
	}
}

// TestCertificateLinearInSparseTile compiles the largest tile the service
// accepts in a sparse form: 512 points of Z, one per residue mod 512,
// spread over [0, 2^29) so that nearly all of its m(m − 1) = 261,632
// nonzero differences are distinct. The proof stays at 3m + d checks; it
// never enumerates N − N.
func TestCertificateLinearInSparseTile(t *testing.T) {
	const m = 512
	rng := rand.New(rand.NewSource(1))
	pts := make([]lattice.Point, m)
	for k := range pts {
		a := 0
		if k > 0 {
			a = rng.Intn(1 << 20)
		}
		pts[k] = lattice.Pt(k + m*a)
	}
	tile, err := prototile.New("sparse-512", pts...)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlan(lattice.Cubic(1), tile)
	if err != nil {
		t.Fatal(err)
	}
	got, err := certify(tile, p.Tiling().Period(), p.SlotOf)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3*m + 1; got != want {
		t.Errorf("certify ran %d checks, want %d", got, want)
	}
}

// TestCertifyRefusesBrokenSlotFunctions feeds certify slot functions
// broken the ways an engine bug would break them, each through the
// plan's own served function, and expects ErrUncertified every time.
func TestCertifyRefusesBrokenSlotFunctions(t *testing.T) {
	for name, p := range certPlans(t) {
		s, m, h := p.SlotOf, p.Slots(), p.Tiling().Period()
		broken := map[string]func(lattice.Point) (int, error){
			// One table entry off by one residue: two cosets share a slot.
			"table entry off by one": func(q lattice.Point) (int, error) {
				k, err := s(q)
				if k == 0 {
					k = 1
				}
				return k, err
			},
			// One wrong index coefficient: the coefficient of p_0 is off
			// by the index of the last unit vector e, i.e. s(p + p_0·e).
			"wrong coefficient": func(q lattice.Point) (int, error) {
				r := q.Clone()
				r[len(r)-1] += q[0]
				return s(r)
			},
			// A collision-free relabelling that is not Theorem 1's.
			"shifted labels": func(q lattice.Point) (int, error) {
				k, err := s(q)
				return (k + 1) % m, err
			},
			"out of range": func(q lattice.Point) (int, error) {
				k, err := s(q)
				if k == m-1 {
					k = m
				}
				return k, err
			},
		}
		for what, f := range broken {
			if _, err := certify(p.Tile(), h, f); !errors.Is(err, ErrUncertified) {
				t.Errorf("%s, %s: certify = %v, want ErrUncertified", name, what, err)
			}
		}
		if _, err := certify(p.Tile(), h, s); err != nil {
			t.Errorf("%s: the served function itself: %v", name, err)
		}
	}
}

// TestCertifyRefusesNonTransversal checks the slot-independent leg: a
// period lattice that contains a difference of two tile points fails
// before any slot is read.
func TestCertifyRefusesNonTransversal(t *testing.T) {
	cross := prototile.Cross(2, 1)
	called := false
	slot := func(lattice.Point) (int, error) { called = true; return 0, nil }
	// Z × 5Z contains (1, 0) = (1, 0) − (0, 0), a difference of two cross
	// points.
	h := intmat.MustFromRows([][]int64{{1, 0}, {0, 5}})
	if _, err := certify(cross, h, slot); !errors.Is(err, ErrUncertified) {
		t.Fatalf("certify = %v, want ErrUncertified", err)
	}
	if called {
		t.Error("certify read a slot before refusing the period")
	}
}
