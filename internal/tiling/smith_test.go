package tiling

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"tilingsched/internal/intmat"
	"tilingsched/internal/lattice"
	"tilingsched/internal/prototile"
)

// catalogTiles returns the exact catalog prototiles the service can name:
// every tetromino (T included: it tiles with the non-(1,…,1,m) period
// [[2,1],[0,2]]), the P pentomino, the L tromino, the directional block,
// crosses and Chebyshev balls in d ≤ 4, rectangles up to 6×6, and the
// square and hexagonal Euclidean balls.
func catalogTiles(t *testing.T) []*prototile.Tile {
	t.Helper()
	var tiles []*prototile.Tile
	for _, n := range []string{"I", "O", "T", "S", "Z", "L", "J"} {
		tiles = append(tiles, prototile.MustTetromino(n))
	}
	p, err := prototile.Pentomino("P")
	if err != nil {
		t.Fatal(err)
	}
	tiles = append(tiles, p, prototile.LTromino(), prototile.Directional())
	for d := 1; d <= 4; d++ {
		tiles = append(tiles, prototile.Cross(d, 1))
		if d <= 3 {
			tiles = append(tiles, prototile.ChebyshevBall(d, 1))
		}
	}
	tiles = append(tiles, prototile.Cross(2, 2), prototile.Cross(2, 3), prototile.ChebyshevBall(2, 2))
	for w := 1; w <= 6; w++ {
		for h := 1; h <= 6; h++ {
			tiles = append(tiles, prototile.Rect(w, h))
		}
	}
	for _, r := range []float64{1, 2} {
		tiles = append(tiles, prototile.EuclideanBall(lattice.Square(), r), prototile.EuclideanBall(lattice.Hexagonal(), r))
	}
	return tiles
}

// hnfSlot is the reference the Smith index replaced: reduce p to its HNF
// box representative and read the slot of the tile point with the same
// representative.
type hnfSlot struct {
	h   *intmat.Matrix
	ref map[string]int
}

func newHNFSlot(t *testing.T, h *intmat.Matrix, pts []lattice.Point) hnfSlot {
	t.Helper()
	r := hnfSlot{h: h, ref: make(map[string]int, len(pts))}
	for i, p := range pts {
		r.ref[r.rep(t, p).Key()] = i
	}
	return r
}

func (r hnfSlot) rep(t *testing.T, p lattice.Point) lattice.Point {
	t.Helper()
	v, err := intmat.Reduce(r.h, p.Int64())
	if err != nil {
		t.Fatal(err)
	}
	return lattice.FromInt64(v)
}

func (r hnfSlot) slot(t *testing.T, p lattice.Point) int {
	t.Helper()
	k, ok := r.ref[r.rep(t, p).Key()]
	if !ok {
		t.Fatalf("HNF reference has no slot for %v", p)
	}
	return k
}

// randPoint draws a point with every |coordinate| ≤ 2^31.
func randPoint(rng *rand.Rand, dim int) lattice.Point {
	p := make(lattice.Point, dim)
	for i := range p {
		p[i] = int(rng.Int63n(1<<32+1) - 1<<31)
	}
	return p
}

// TestSmithIndexMatchesHNFReduction is the differential test of the
// closed-form index against the HNF reduction it replaced, over random
// points with |coordinates| ≤ 2^31 and over windows (origin-centred and
// far away), for every catalog tile and the non-cyclic 2Z×2Z period.
func TestSmithIndexMatchesHNFReduction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var tilings []*LatticeTiling
	for _, ti := range catalogTiles(t) {
		lt, ok := FindLatticeTiling(ti)
		if !ok {
			t.Fatalf("no lattice tiling for %s", ti.Name())
		}
		tilings = append(tilings, lt)
	}
	square, err := NewLatticeTiling(prototile.Rect(2, 2), intmat.MustFromRows([][]int64{{2, 0}, {0, 2}}))
	if err != nil {
		t.Fatal(err)
	}
	if len(square.ct.mods) != 2 {
		t.Fatalf("2Z×2Z: invariant factors %v, want two", square.ct.mods)
	}
	tilings = append(tilings, square)
	cyclicT := false
	for _, lt := range tilings {
		ti := lt.Tile()
		ref := newHNFSlot(t, lt.period, ti.Points())
		if ti.Name() == "tetromino-T" && len(lt.ct.mods) == 1 && lt.period.At(0, 0) == 2 {
			cyclicT = true
		}
		check := func(p lattice.Point) {
			got, err := lt.CosetIndex(p)
			if err != nil {
				t.Fatalf("%s: CosetIndex(%v): %v", ti.Name(), p, err)
			}
			if want := ref.slot(t, p); got != want {
				t.Fatalf("%s (period %v): CosetIndex(%v) = %d, HNF reduction says %d", ti.Name(), lt.period, p, got, want)
			}
		}
		for i := 0; i < 300; i++ {
			check(randPoint(rng, ti.Dim()))
		}
		side := 9
		if ti.Dim() > 2 {
			side = 4
		}
		for _, lo := range []lattice.Point{lattice.Origin(ti.Dim()), randPoint(rng, ti.Dim())} {
			hi := lo.Clone()
			for i := range hi {
				hi[i] += side - 1
			}
			w, err := lattice.NewWindow(lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			w.Each(func(p lattice.Point) bool { check(p); return true })
		}
	}
	if !cyclicT {
		t.Error("tetromino:T did not compile to the cyclic [[2,1],[0,2]] period")
	}
}

// TestSmithIndexPeriodicAndResidues runs the same differential check
// through the other two users of the index: a PeriodicTiling (a union of
// cosets) and a Residues classifier on a non-cyclic, non-diagonal period.
func TestSmithIndexPeriodicAndResidues(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pair, err := prototile.New("pair", lattice.Pt(0), lattice.Pt(2))
	if err != nil {
		t.Fatal(err)
	}
	pt, ok := FindPeriodicTiling(pair, 2)
	if !ok {
		t.Fatal("{0, 2} has no periodic tiling")
	}
	// {0, 2} tiles Z as {0, 1} + 4Z: the slot is p's tile point, so p mod 4
	// decides it.
	for i := 0; i < 200; i++ {
		p := randPoint(rng, 1)
		got, err := pt.CosetIndex(p)
		if err != nil {
			t.Fatal(err)
		}
		if want := int(intmat.Mod(int64(p[0]), 4) / 2); got != want {
			t.Fatalf("CosetIndex(%v) = %d, want %d", p, got, want)
		}
	}
	h := intmat.MustFromRows([][]int64{{2, 1, 0}, {0, 2, 0}, {0, 0, 6}})
	res, err := NewResidues(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ct.mods) < 2 {
		t.Fatalf("invariant factors %v, want a non-cyclic quotient", res.ct.mods)
	}
	for i := 0; i < 500; i++ {
		p, q := randPoint(rng, 3), randPoint(rng, 3)
		cp, _ := res.ClassOf(p)
		cq, _ := res.ClassOf(q)
		rp, _ := intmat.Reduce(h, p.Int64())
		rq, _ := intmat.Reduce(h, q.Int64())
		same := lattice.FromInt64(rp).Equal(lattice.FromInt64(rq))
		if (cp == cq) != same {
			t.Fatalf("ClassOf(%v) = %d, ClassOf(%v) = %d, but HNF representatives equal: %v", p, cp, q, cq, same)
		}
		if !res.Representative(cp).Equal(lattice.FromInt64(rp)) {
			t.Fatalf("Representative(ClassOf(%v)) = %v, want the box point %v", p, res.Representative(cp), rp)
		}
	}
}

// bigRep reduces p modulo the row lattice of the HNF h in math/big
// arithmetic: the same algorithm as intmat.Reduce, immune to overflow.
func bigRep(h *intmat.Matrix, p lattice.Point) lattice.Point {
	n := h.Rows()
	v := make([]*big.Int, n)
	for i, c := range p {
		v[i] = big.NewInt(int64(c))
	}
	q, m := new(big.Int), new(big.Int)
	for i := 0; i < n; i++ {
		d := big.NewInt(h.At(i, i))
		q.DivMod(v[i], d, m) // Euclidean: m ∈ [0, d) for d > 0
		for j := i; j < n; j++ {
			v[j].Sub(v[j], new(big.Int).Mul(q, big.NewInt(h.At(i, j))))
		}
	}
	out := make(lattice.Point, n)
	for i, x := range v {
		out[i] = int(x.Int64())
	}
	return out
}

// TestSmithIndexExtremeCoordinates checks points near ±2^62 and at the
// ends of the int range, where the HNF arithmetic wraps, against a
// math/big reduction: p and its big-integer box representative must
// share a residue index.
func TestSmithIndexExtremeCoordinates(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	periods := []*intmat.Matrix{
		intmat.MustFromRows([][]int64{{1, 2}, {0, 5}}), // cross:2:1
		intmat.MustFromRows([][]int64{{2, 1}, {0, 2}}), // tetromino:T
		intmat.MustFromRows([][]int64{{2, 0}, {0, 2}}), // 2Z×2Z
		intmat.MustFromRows([][]int64{{1, 0, 3}, {0, 1, 2}, {0, 0, 7}}),
		intmat.MustFromRows([][]int64{{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 9, 4}, {0, 0, 0, 9}}),
	}
	edges := []int{math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1, 1 << 62, -(1 << 62)}
	for _, h := range periods {
		ct, err := newCosetTable(h)
		if err != nil {
			t.Fatal(err)
		}
		dim := h.Rows()
		for i := 0; i < 2000; i++ {
			p := make(lattice.Point, dim)
			for a := range p {
				switch rng.Intn(3) {
				case 0:
					p[a] = edges[rng.Intn(len(edges))]
				case 1:
					p[a] = int(rng.Int63n(1<<20)) - 1<<19 + (1<<62)*(2*rng.Intn(2)-1)
				default:
					p[a] = rng.Intn(2001) - 1000
				}
			}
			rep := bigRep(h, p)
			got, _ := ct.residueIndex(p)
			want, _ := ct.residueIndex(rep)
			if got != want {
				t.Fatalf("H = %v: index(%v) = %d, index of its box representative %v = %d", h, p, got, rep, want)
			}
		}
	}
}

// TestSmithIndexLimit pins the int64 guard: lim is the largest
// coordinate magnitude whose dot products cannot wrap, and a coordinate
// one past it takes the reduce-first path with the same answer.
func TestSmithIndexLimit(t *testing.T) {
	h := intmat.MustFromRows([][]int64{{1, 2}, {0, 5}})
	ct, err := newCosetTable(h)
	if err != nil {
		t.Fatal(err)
	}
	if ct.lim < 1<<31 {
		t.Fatalf("lim = %d, want ≥ 2^31 for cross:2:1", ct.lim)
	}
	for _, x := range []int64{ct.lim, ct.lim + 1, -ct.lim, -ct.lim - 1} {
		p := lattice.Pt(int(x), int(x))
		got, _ := ct.residueIndex(p)
		if want, _ := ct.residueIndex(bigRep(h, p)); got != want {
			t.Fatalf("index(%v) = %d, want %d", p, got, want)
		}
		if want := ct.wideIndex(p); got != want {
			t.Fatalf("index(%v) = %d, wideIndex = %d", p, got, want)
		}
	}
}
