package dynamic

// Differential oracle: a mutator seeded with a plan's Theorem 1 schedule
// runs randomized join, leave, fail and move streams, inside its window
// and out. After every batch each live sensor must hold its plan slot,
// Verify must pass, and the assignment must pass graph.VerifySchedule on
// a from-scratch graph.ConflictGraph of the live bounding window — a
// check through other code than Verify's pairwise scan.

import (
	"fmt"
	"math/rand"
	"testing"

	"tilingsched/internal/graph"
	"tilingsched/internal/lattice"
	"tilingsched/internal/prototile"
	"tilingsched/internal/schedule"
	"tilingsched/internal/tiling"
)

// oracleCheck checks the mutator's live assignment three ways: against
// the plan's slots, through Verify, and through graph.VerifySchedule on
// a rebuilt conflict graph of the live points' bounding window. base
// picks the rebuild: Periodic builds the implicit stencil graph
// (graph.HomogeneousConflictGraph), any other mode the explicit one
// (graph.ConflictGraph), which must resolve to base unless base is Auto.
// Dead positions of that window are padded with unique slots beyond m,
// so only live-live edges constrain.
func oracleCheck(t *testing.T, m *Mutator, dep *schedule.Homogeneous, plan *schedule.Theorem1, base graph.Mode) {
	t.Helper()
	slot := map[string]int{}
	var lo, hi lattice.Point
	m.EachAssignment(func(p lattice.Point, s int) bool {
		if want, _ := plan.SlotOf(p); s != want {
			t.Fatalf("%v holds slot %d, plan slot %d", p, s, want)
		}
		slot[p.Key()] = s
		if lo == nil {
			lo, hi = p.Clone(), p.Clone()
		}
		for a := range p {
			lo[a], hi[a] = min(lo[a], p[a]), max(hi[a], p[a])
		}
		return true
	})
	if len(slot) != m.AliveCount() {
		t.Fatalf("EachAssignment visited %d sensors, AliveCount %d", len(slot), m.AliveCount())
	}
	if err := m.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if lo == nil {
		return
	}
	w, err := lattice.NewWindow(lo, hi)
	if err != nil {
		t.Fatalf("oracle window: %v", err)
	}
	var rebuilt *graph.Graph
	if base == graph.Periodic {
		rebuilt, err = graph.HomogeneousConflictGraph(dep, w)
	} else {
		rebuilt, _, err = graph.ConflictGraph(dep, w)
	}
	if err != nil {
		t.Fatalf("oracle rebuild: %v", err)
	}
	if base != graph.Auto && rebuilt.Mode() != base {
		t.Fatalf("oracle rebuild in mode %v, want %v", rebuilt.Mode(), base)
	}
	pts := w.Points()
	assign := make([]int, len(pts))
	next := m.Slots()
	for i, p := range pts {
		if s, ok := slot[p.Key()]; ok {
			assign[i] = s
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
		t.Fatalf("schedule invalid against rebuild: %v", err)
	}
}

// poolWindow returns the points of the window expanded by margin on
// every side: in-window churn plus out-of-window growth.
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

// stream is one randomized churn stream: a Theorem 1 seeded mutator
// over a tile's homogeneous deployment and a box window, fed single
// events from the window grown by margin on every side.
type stream struct {
	tile    *prototile.Tile
	sides   []int
	margin  int
	batches int
	seed    int64
	opts    Options
	base    graph.Mode // oracleCheck's rebuild
}

// run drives the stream and oracle-checks the mutator after every batch.
// No batch may reassign a sensor, every reported change must match the
// mutator's own answer, and some join or move must land outside the
// window.
func (c stream) run(t *testing.T) {
	t.Helper()
	lt, ok := tiling.FindLatticeTiling(c.tile)
	if !ok {
		t.Fatalf("no lattice tiling for %s", c.tile.Name())
	}
	plan := schedule.FromLatticeTiling(lt)
	dep := schedule.NewHomogeneous(c.tile)
	w, err := lattice.BoxWindow(c.sides...)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMutator(dep, w, plan, c.opts)
	if err != nil {
		t.Fatalf("NewMutator: %v", err)
	}
	if m.Slots() != plan.Slots() || m.AliveCount() != w.Size() {
		t.Fatalf("seeded %d slots, %d alive; want %d, %d", m.Slots(), m.AliveCount(), plan.Slots(), w.Size())
	}
	oracleCheck(t, m, dep, plan, c.base)
	active := func(p lattice.Point) bool {
		_, err := m.SlotOf(p)
		return err == nil
	}
	pool := poolWindow(t, w, c.margin)
	rng := rand.New(rand.NewSource(c.seed))
	outside := 0
	for batch := 0; batch < c.batches; batch++ {
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
		d, changed, err := m.Apply([]Event{ev})
		if err != nil {
			t.Fatalf("batch %d: Apply(%v): %v", batch, ev, err)
		}
		if d.Events != 1 || d.Reassigned != 0 || d.FullRecolor || d.Compacted {
			t.Fatalf("batch %d (%v): disruption %+v", batch, ev, d)
		}
		for _, ch := range changed {
			got, err := m.SlotOf(ch.P)
			if ch.Slot < 0 {
				if err == nil {
					t.Fatalf("batch %d: delta says %v departed but SlotOf answers %d", batch, ch.P, got)
				}
				continue
			}
			if err != nil || got != ch.Slot {
				t.Fatalf("batch %d: delta %v=%d but SlotOf says (%d, %v)", batch, ch.P, ch.Slot, got, err)
			}
		}
		oracleCheck(t, m, dep, plan, c.base)
	}
	if outside == 0 {
		t.Fatal("stream never joined or moved outside the window")
	}
}

// TestOracleTheorem1Stream runs one randomized stream per tile — a 2-D
// cross, a tile whose period is not cyclic, and a 3-D cross — and
// oracle-checks it after every batch. The 2-D cross runs twice, its
// rebuild once the implicit periodic graph (with the ignored
// Options.Residues set, as callers may still set it) and once the
// explicit bitset graph.
func TestOracleTheorem1Stream(t *testing.T) {
	for _, c := range []struct {
		name string
		stream
	}{
		{"periodic", stream{prototile.Cross(2, 1), []int{6, 6}, 4, 400, 77, Options{Residues: tiling.IdentityResidues(2)}, graph.Periodic}},
		{"bitset", stream{prototile.Cross(2, 1), []int{6, 6}, 4, 400, 77, Options{}, graph.Bitset}},
		{"tetromino-T", stream{prototile.MustTetromino("T"), []int{6, 5}, 3, 400, 41, Options{}, graph.Auto}},
		{"cross-3-1", stream{prototile.Cross(3, 1), []int{3, 3, 3}, 2, 300, 43, Options{}, graph.Auto}},
	} {
		t.Run(c.name, c.run)
	}
}

// TestOracleManyStreams runs the stream over a Moore deployment under
// several seeds.
func TestOracleManyStreams(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		c := stream{prototile.ChebyshevBall(2, 1), []int{5, 5}, 2, 120, 3000 + seed, Options{}, graph.Auto}
		t.Run(fmt.Sprintf("seed=%d", seed), c.run)
	}
}
