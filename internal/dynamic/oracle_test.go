package dynamic

// Differential oracle: after every mutation batch the overlay graph must
// be edge-identical to a from-scratch ConflictGraph rebuild of the same
// mutated deployment, and the repaired slot assignment must verify
// Theorem-1-valid through graph.VerifySchedule on the rebuilt graph.
// The streams are randomized and run across all three base adjacency
// modes (bitset, CSR, periodic) so any future divergence between the
// incremental and batch paths trips here first — the dynamic twin of
// internal/graph/parity_test.go.

import (
	"fmt"
	"math/rand"
	"testing"

	"tilingsched/internal/graph"
	"tilingsched/internal/intmat"
	"tilingsched/internal/lattice"
	"tilingsched/internal/prototile"
	"tilingsched/internal/schedule"
	"tilingsched/internal/tiling"
)

// oracleCheck rebuilds the mutated deployment from scratch and compares:
// every pair of live positions must agree on adjacency with the overlay,
// and the maintained coloring must pass graph.VerifySchedule on the
// rebuilt graph. Dead positions of the rebuild window are padded with
// unique slots beyond the palette, so only live-live edges constrain.
func oracleCheck(t *testing.T, m *Mutator, dep schedule.Deployment) {
	t.Helper()
	ov := m.Overlay()
	var live []lattice.Point
	liveID := map[string]int{}
	for v := 0; v < ov.NumVertices(); v++ {
		if ov.Alive(v) {
			p := ov.PointOf(v).Clone()
			live = append(live, p)
			liveID[p.Key()] = v
		}
	}
	if len(live) == 0 {
		return
	}
	// Bounding window of the mutated deployment.
	lo, hi := live[0].Clone(), live[0].Clone()
	for _, p := range live[1:] {
		for a := range p {
			if p[a] < lo[a] {
				lo[a] = p[a]
			}
			if p[a] > hi[a] {
				hi[a] = p[a]
			}
		}
	}
	w, err := lattice.NewWindow(lo, hi)
	if err != nil {
		t.Fatalf("oracle window: %v", err)
	}
	rebuilt, pts, err := graph.ConflictGraph(dep, w)
	if err != nil {
		t.Fatalf("oracle rebuild: %v", err)
	}
	// Edge parity over every live pair.
	for i, p := range live {
		pi, _ := w.IndexOf(p)
		for _, q := range live[i+1:] {
			qi, _ := w.IndexOf(q)
			want := rebuilt.HasEdge(pi, qi)
			got := ov.HasEdge(liveID[p.Key()], liveID[q.Key()])
			if want != got {
				t.Fatalf("edge parity: %v–%v overlay=%v rebuild=%v (base %v, %d live)",
					p, q, got, want, ov.BaseMode(), len(live))
			}
		}
	}
	// Schedule validity through graph.VerifySchedule: live positions keep
	// their maintained slot, dead window positions get unique padding
	// slots ≥ the palette (they collide with nothing).
	assign := make([]int, len(pts))
	next := m.Slots()
	for i, p := range pts {
		if v, ok := liveID[p.Key()]; ok {
			assign[i] = int(m.colors[v])
			continue
		}
		assign[i] = next
		next++
	}
	ms, err := schedule.NewMapSchedule(next, pts, assign)
	if err != nil {
		t.Fatalf("oracle schedule: %v", err)
	}
	if err := graph.VerifySchedule(rebuilt, w, ms); err != nil {
		t.Fatalf("repaired schedule invalid against rebuild: %v (base %v)", err, ov.BaseMode())
	}
}

// driveStream feeds random single- and multi-event batches from a point
// pool through the mutator, oracle-checking after every batch.
func driveStream(t *testing.T, m *Mutator, dep schedule.Deployment, pool []lattice.Point, events int, rng *rand.Rand, maxRepair int) {
	t.Helper()
	active := func(p lattice.Point) bool {
		id, ok := m.Overlay().IndexOf(p)
		return ok && m.Overlay().Alive(id)
	}
	applied := 0
	for applied < events {
		var evs []Event
		p := pool[rng.Intn(len(pool))]
		switch {
		case !active(p):
			evs = append(evs, Event{Kind: Join, P: p})
		case rng.Intn(4) == 0:
			q := pool[rng.Intn(len(pool))]
			if !active(q) && !q.Equal(p) {
				evs = append(evs, Event{Kind: Move, P: p, To: q})
			} else {
				evs = append(evs, Event{Kind: Fail, P: p})
			}
		default:
			evs = append(evs, Event{Kind: Leave, P: p})
		}
		d, changed, err := m.Apply(evs)
		if err != nil {
			t.Fatalf("Apply(%v): %v", evs, err)
		}
		applied += d.Events
		// Bounded disruption: outside the full-recolor fallback, a repair
		// may touch only the damage region — the joining vertex's
		// neighborhood, whose size is bounded by the deployment's maximum
		// conflict degree.
		if !d.FullRecolor && d.Reassigned > maxRepair {
			t.Fatalf("repair disruption unbounded: %d reassigned (> %d) for %v", d.Reassigned, maxRepair, evs)
		}
		// Deltas must reflect reality: every reported change matches the
		// mutator's current answer.
		for _, ch := range changed {
			got, err := m.SlotOf(ch.P)
			if ch.Slot < 0 {
				if err == nil {
					t.Fatalf("delta says %v departed but SlotOf answers %d", ch.P, got)
				}
				continue
			}
			if err != nil || got != ch.Slot {
				t.Fatalf("delta %v=%d but SlotOf says (%d, %v)", ch.P, ch.Slot, got, err)
			}
		}
		if err := m.Verify(); err != nil {
			t.Fatalf("Verify after %v: %v", evs, err)
		}
		oracleCheck(t, m, dep)
	}
}

// poolWindow returns the points of the base window expanded by margin on
// every side — in-window churn plus out-of-window growth.
func poolWindow(t *testing.T, w lattice.Window, margin int) []lattice.Point {
	t.Helper()
	lo, hi := w.Lo.Clone(), w.Hi.Clone()
	for a := range lo {
		lo[a] -= margin
		hi[a] += margin
	}
	ext, err := lattice.NewWindow(lo, hi)
	if err != nil {
		t.Fatalf("pool window: %v", err)
	}
	return ext.Points()
}

// TestOracleHomogeneous runs randomized event streams over the cross
// deployment against every base mode, with seeds and budgets chosen so
// the fast path, the DSATUR-repair path, and the full-recolor fallback
// all fire.
func TestOracleHomogeneous(t *testing.T) {
	tile := prototile.Cross(2, 1)
	dep := schedule.NewHomogeneous(tile)
	lt, ok := tiling.FindLatticeTiling(tile)
	if !ok {
		t.Fatal("no tiling for cross")
	}
	plan := schedule.FromLatticeTiling(lt)
	w, err := lattice.BoxWindow(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		init schedule.Schedule
		opts Options
	}{
		{"bitset/tiling-seed", plan, Options{BaseMode: graph.Bitset}},
		{"csr/dsatur-seed/tight-budget", nil, Options{BaseMode: graph.CSR, ColorBudget: 3}},
		{"periodic/tiling-seed", plan, Options{Residues: tiling.IdentityResidues(2), ColorBudget: 4}},
		{"auto/compacting", nil, Options{CompactThreshold: 3}},
	}
	var repairs, fulls, compactions int64
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, err := NewMutator(dep, w, c.init, c.opts)
			if err != nil {
				t.Fatalf("NewMutator: %v", err)
			}
			rng := rand.New(rand.NewSource(int64(1000 + i)))
			driveStream(t, m, dep, poolWindow(t, w, 2), 150, rng, 12)
			s := m.Stats()
			repairs += s.Repairs
			fulls += s.FullRecolors
			compactions += s.Compactions
		})
	}
	if repairs == 0 {
		t.Error("no stream exercised the DSATUR-repair path")
	}
	if fulls == 0 {
		t.Error("no stream exercised the full-recolor fallback")
	}
	if compactions == 0 {
		t.Error("no stream exercised compaction")
	}
}

// TestOracleD1Periodic runs the multi-class stencil path: a D1
// deployment over a 2×2 torus tiling, periodic modulo diag(2, 2), with
// the overlay on an implicit periodic base.
func TestOracleD1Periodic(t *testing.T) {
	domino := prototile.MustNew("domino", lattice.Pt(0, 0), lattice.Pt(1, 0))
	mono := prototile.MustNew("mono", lattice.Pt(0, 0))
	tt, err := tiling.NewTorusTiling([]int{2, 2},
		[]*prototile.Tile{domino, mono},
		[]tiling.Placement{
			{TileIndex: 0, Offset: lattice.Pt(0, 0)},
			{TileIndex: 1, Offset: lattice.Pt(0, 1)},
			{TileIndex: 1, Offset: lattice.Pt(1, 1)},
		})
	if err != nil {
		t.Fatalf("NewTorusTiling: %v", err)
	}
	dep := schedule.NewD1(tt)
	res, err := tiling.NewResidues(intmat.MustFromRows([][]int64{{2, 0}, {0, 2}}))
	if err != nil {
		t.Fatalf("NewResidues: %v", err)
	}
	w, err := lattice.BoxWindow(5, 4)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 3; seed++ {
		m, err := NewMutator(dep, w, nil, Options{Residues: res})
		if err != nil {
			t.Fatalf("NewMutator: %v", err)
		}
		rng := rand.New(rand.NewSource(2000 + seed))
		driveStream(t, m, dep, poolWindow(t, w, 2), 100, rng, 30)
	}
}

// TestOracleCompactionParity forces frequent compactions and checks the
// re-frozen overlay still answers identically (positions survive the id
// renumbering).
func TestOracleCompactionParity(t *testing.T) {
	tile := prototile.ChebyshevBall(2, 1)
	dep := schedule.NewHomogeneous(tile)
	w, err := lattice.BoxWindow(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMutator(dep, w, nil, Options{CompactThreshold: 2})
	if err != nil {
		t.Fatalf("NewMutator: %v", err)
	}
	rng := rand.New(rand.NewSource(7))
	driveStream(t, m, dep, poolWindow(t, w, 3), 120, rng, 24)
	if m.Stats().Compactions == 0 {
		t.Fatal("threshold 2 never compacted")
	}
}

// ringPool returns the points of the margin-expanded window that lie
// strictly outside the base window — the out-of-window destinations a
// periodic base must patch by stencil translation rather than by
// scanning.
func ringPool(t *testing.T, w lattice.Window, margin int) []lattice.Point {
	t.Helper()
	var out []lattice.Point
	for _, p := range poolWindow(t, w, margin) {
		if !w.Contains(p) {
			out = append(out, p)
		}
	}
	return out
}

// driveMoves shuttles sensors across the window boundary: the stream is
// dominated by Move events alternating inner→outer and outer→inner, so
// on a periodic base every batch runs the ConflictOffsets translation
// fast path — for base-window vertices, for far-outside added vertices,
// and for rejoins of previously tombstoned added positions.
func driveMoves(t *testing.T, m *Mutator, dep schedule.Deployment, inner, outer []lattice.Point, steps int, rng *rand.Rand) {
	t.Helper()
	ov := m.Overlay()
	active := func(p lattice.Point) bool {
		id, ok := ov.IndexOf(p)
		return ok && ov.Alive(id)
	}
	pick := func(pool []lattice.Point, want bool) (lattice.Point, bool) {
		for tries := 0; tries < 64; tries++ {
			p := pool[rng.Intn(len(pool))]
			if active(p) == want {
				return p, true
			}
		}
		return nil, false
	}
	moves := 0
	for s := 0; s < steps; s++ {
		from, to := inner, outer
		if s%2 == 1 {
			from, to = outer, inner
		}
		p, okP := pick(from, true)
		q, okQ := pick(to, false)
		var evs []Event
		switch {
		case okP && okQ:
			evs = []Event{{Kind: Move, P: p, To: q}}
			moves++
		case okQ:
			evs = []Event{{Kind: Join, P: q}}
		case okP:
			evs = []Event{{Kind: Leave, P: p}}
		default:
			continue
		}
		if _, _, err := m.Apply(evs); err != nil {
			t.Fatalf("Apply(%v): %v", evs, err)
		}
		if err := m.Verify(); err != nil {
			t.Fatalf("Verify after %v: %v", evs, err)
		}
		oracleCheck(t, m, dep)
	}
	if moves < steps/3 {
		t.Fatalf("stream degenerated: only %d/%d steps were moves", moves, steps)
	}
}

// TestOraclePeriodicMoveHeavy stresses the periodic join/Move fast path
// against the from-scratch oracle: on a periodic base, joins (and the
// join half of every Move) patch conflict edges by translating the
// residue class's stencil row instead of probing neighborhoods with a
// SiteScanner — including for destinations outside the base window,
// where no vertex existed at freeze time. Runs both the single-class
// homogeneous case and the multi-class D1 torus case.
func TestOraclePeriodicMoveHeavy(t *testing.T) {
	t.Run("homogeneous", func(t *testing.T) {
		tile := prototile.Cross(2, 1)
		dep := schedule.NewHomogeneous(tile)
		w, err := lattice.BoxWindow(4, 4)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMutator(dep, w, nil, Options{Residues: tiling.IdentityResidues(2)})
		if err != nil {
			t.Fatalf("NewMutator: %v", err)
		}
		if m.Overlay().BaseMode() != graph.Periodic {
			t.Fatalf("base mode %v, want Periodic", m.Overlay().BaseMode())
		}
		rng := rand.New(rand.NewSource(41))
		driveMoves(t, m, dep, w.Points(), ringPool(t, w, 3), 120, rng)
	})
	t.Run("d1-torus", func(t *testing.T) {
		domino := prototile.MustNew("domino", lattice.Pt(0, 0), lattice.Pt(1, 0))
		mono := prototile.MustNew("mono", lattice.Pt(0, 0))
		tt, err := tiling.NewTorusTiling([]int{2, 2},
			[]*prototile.Tile{domino, mono},
			[]tiling.Placement{
				{TileIndex: 0, Offset: lattice.Pt(0, 0)},
				{TileIndex: 1, Offset: lattice.Pt(0, 1)},
				{TileIndex: 1, Offset: lattice.Pt(1, 1)},
			})
		if err != nil {
			t.Fatalf("NewTorusTiling: %v", err)
		}
		dep := schedule.NewD1(tt)
		res, err := tiling.NewResidues(intmat.MustFromRows([][]int64{{2, 0}, {0, 2}}))
		if err != nil {
			t.Fatalf("NewResidues: %v", err)
		}
		w, err := lattice.BoxWindow(5, 4)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMutator(dep, w, nil, Options{Residues: res})
		if err != nil {
			t.Fatalf("NewMutator: %v", err)
		}
		if m.Overlay().BaseMode() != graph.Periodic {
			t.Fatalf("base mode %v, want Periodic", m.Overlay().BaseMode())
		}
		rng := rand.New(rand.NewSource(43))
		driveMoves(t, m, dep, w.Points(), ringPool(t, w, 3), 120, rng)
	})
}

// TestOracleTheorem1Stream pins the seed-first join: seeded with the
// plan's Theorem 1 schedule, a mutator keeps every live sensor on its
// seed slot through joins and moves inside the window and out, so no
// batch repairs, recolors, or grows the palette past m. Runs over the
// implicit periodic base and an explicit one.
func TestOracleTheorem1Stream(t *testing.T) {
	tile := prototile.Cross(2, 1)
	dep := schedule.NewHomogeneous(tile)
	lt, ok := tiling.FindLatticeTiling(tile)
	if !ok {
		t.Fatal("no tiling for cross")
	}
	plan := schedule.FromLatticeTiling(lt)
	w, err := lattice.BoxWindow(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		opts Options
	}{
		{"periodic", Options{Residues: tiling.IdentityResidues(2)}},
		{"bitset", Options{BaseMode: graph.Bitset}},
	} {
		t.Run(c.name, func(t *testing.T) {
			m, err := NewMutator(dep, w, plan, c.opts)
			if err != nil {
				t.Fatalf("NewMutator: %v", err)
			}
			if m.Slots() != plan.Slots() {
				t.Fatalf("seeded palette %d, want m = %d", m.Slots(), plan.Slots())
			}
			ov := m.Overlay()
			active := func(p lattice.Point) bool {
				id, ok := ov.IndexOf(p)
				return ok && ov.Alive(id)
			}
			pool := poolWindow(t, w, 4)
			rng := rand.New(rand.NewSource(77))
			outside := 0
			for batch := 0; batch < 400; batch++ {
				p := pool[rng.Intn(len(pool))]
				q := pool[rng.Intn(len(pool))]
				var ev Event
				switch {
				case !active(p):
					ev = Event{Kind: Join, P: p}
				case !active(q) && rng.Intn(2) == 0:
					ev = Event{Kind: Move, P: p, To: q}
				case rng.Intn(2) == 0:
					ev = Event{Kind: Fail, P: p}
				default:
					ev = Event{Kind: Leave, P: p}
				}
				if (ev.Kind == Join && !w.Contains(ev.P)) || (ev.Kind == Move && !w.Contains(ev.To)) {
					outside++
				}
				d, _, err := m.Apply([]Event{ev})
				if err != nil {
					t.Fatalf("Apply(%v): %v", ev, err)
				}
				if d.FullRecolor || d.Reassigned != 0 || m.Stats().Repairs != 0 {
					t.Fatalf("batch %d (%v) left the seed: %+v, %d repairs", batch, ev, d, m.Stats().Repairs)
				}
				if m.Slots() != plan.Slots() {
					t.Fatalf("batch %d (%v): palette %d, want m = %d", batch, ev, m.Slots(), plan.Slots())
				}
				m.EachAssignment(func(p lattice.Point, slot int) bool {
					if want, _ := plan.SlotOf(p); slot != want {
						t.Fatalf("batch %d (%v): %v holds slot %d, seed slot %d", batch, ev, p, slot, want)
					}
					return true
				})
			}
			if outside == 0 {
				t.Fatal("stream never joined or moved outside the window")
			}
			if err := m.Verify(); err != nil {
				t.Fatal(err)
			}
			oracleCheck(t, m, dep)
		})
	}
}

// TestOracleManyStreams fuzzes wider: several seeds over a Moore
// deployment with default options, ensuring no stream ever diverges.
func TestOracleManyStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized stream sweep")
	}
	tile := prototile.ChebyshevBall(2, 1)
	dep := schedule.NewHomogeneous(tile)
	lt, ok := tiling.FindLatticeTiling(tile)
	if !ok {
		t.Fatal("no tiling for Moore ball")
	}
	plan := schedule.FromLatticeTiling(lt)
	w, err := lattice.BoxWindow(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			m, err := NewMutator(dep, w, plan, Options{})
			if err != nil {
				t.Fatalf("NewMutator: %v", err)
			}
			rng := rand.New(rand.NewSource(3000 + seed))
			driveStream(t, m, dep, poolWindow(t, w, 2), 120, rng, 24)
		})
	}
}
