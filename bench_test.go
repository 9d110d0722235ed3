// Benchmarks regenerating every figure and table of the reproduction (see
// DESIGN.md §4 for the experiment index) plus micro-benchmarks of the
// hot paths. Run with:
//
//	go test -bench=. -benchmem
package tilingsched_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"tilingsched/internal/boundary"
	"tilingsched/internal/core"
	"tilingsched/internal/experiments"
	"tilingsched/internal/graph"
	"tilingsched/internal/intmat"
	"tilingsched/internal/lattice"
	"tilingsched/internal/prototile"
	"tilingsched/internal/schedule"
	"tilingsched/internal/service"
	"tilingsched/internal/service/binwire"
	"tilingsched/internal/tiling"
	"tilingsched/internal/wsn"
)

func requirePass(b *testing.B, r *experiments.Result, err error) {
	b.Helper()
	if err != nil {
		b.Fatalf("experiment error: %v", err)
	}
	if !r.Passed() {
		b.Fatalf("experiment failed:\n%s", r.Render())
	}
}

// --- Paper figures -------------------------------------------------------

func BenchmarkFigure1Lattices(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure1Lattices()
		requirePass(b, r, err)
	}
}

func BenchmarkFigure2Neighborhoods(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure2Neighborhoods()
		requirePass(b, r, err)
	}
}

func BenchmarkFigure3Schedule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure3Schedule()
		requirePass(b, r, err)
	}
}

func BenchmarkFigure4Voronoi(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure4Voronoi()
		requirePass(b, r, err)
	}
}

func BenchmarkFigure5NonRespectable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure5NonRespectable()
		requirePass(b, r, err)
	}
}

// --- Theorems ------------------------------------------------------------

func BenchmarkTheorem1Verify(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Theorem1Verification()
		requirePass(b, r, err)
	}
}

func BenchmarkTheorem2Verify(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Theorem2Verification()
		requirePass(b, r, err)
	}
}

// --- Derived evaluation tables E1–E6 --------------------------------------

func BenchmarkTableSlotCounts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.TableSlotCounts(1)
		requirePass(b, r, err)
	}
}

func BenchmarkTableSimulator(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.TableSimulator(1)
		requirePass(b, r, err)
	}
}

func BenchmarkTableScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.TableScaling()
		requirePass(b, r, err)
	}
}

func BenchmarkTableExactness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.TableExactness()
		requirePass(b, r, err)
	}
}

func BenchmarkTableRestriction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.TableRestriction()
		requirePass(b, r, err)
	}
}

func BenchmarkTableMobile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.TableMobile(3)
		requirePass(b, r, err)
	}
}

func BenchmarkTableDimensions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.TableDimensions()
		requirePass(b, r, err)
	}
}

func BenchmarkTableEnergy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.TableEnergy(1)
		requirePass(b, r, err)
	}
}

func BenchmarkTableClockSkew(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.TableClockSkew(1)
		requirePass(b, r, err)
	}
}

func BenchmarkTableConvergecast(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.TableConvergecast(1)
		requirePass(b, r, err)
	}
}

// --- Micro-benchmarks of the hot paths ------------------------------------

// BenchmarkSlotAssignment measures the per-sensor cost of the Theorem 1
// schedule (one HNF coset reduction), the paper's O(1) claim.
func BenchmarkSlotAssignment(b *testing.B) {
	lt, ok := tiling.FindLatticeTiling(prototile.Cross(2, 1))
	if !ok {
		b.Fatal("no tiling")
	}
	s := schedule.FromLatticeTiling(lt)
	pts := lattice.CenteredWindow(2, 20).Points()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pts[i%len(pts)]
		if _, err := s.SlotOf(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSlotAssignmentTable is the ablation partner of
// BenchmarkSlotAssignment: the same lookup through a precomputed table
// (MapSchedule) instead of the algebraic coset reduction. The algebraic
// form needs no per-deployment precomputation and covers the infinite
// lattice; the table is bounded to its window.
func BenchmarkSlotAssignmentTable(b *testing.B) {
	lt, ok := tiling.FindLatticeTiling(prototile.Cross(2, 1))
	if !ok {
		b.Fatal("no tiling")
	}
	s := schedule.FromLatticeTiling(lt)
	w := lattice.CenteredWindow(2, 20)
	ms, err := schedule.Restrict(s, w)
	if err != nil {
		b.Fatal(err)
	}
	pts := w.Points()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pts[i%len(pts)]
		if _, err := ms.SlotOf(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPerClassCompile measures the Figure 5 constraint compiler on
// one S/Z torus tiling.
func BenchmarkPerClassCompile(b *testing.B) {
	s := prototile.MustTetromino("S")
	z := prototile.MustTetromino("Z")
	sols, err := tiling.SolveTorus([]int{4, 4}, []*prototile.Tile{s, z},
		tiling.SolveOptions{MaxSolutions: 1, Accept: func(c []int) bool { return c[1] > 0 }})
	if err != nil || len(sols) == 0 {
		b.Fatalf("SolveTorus: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc, err := schedule.CompilePatternConstraints(sols[0])
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := pc.MinSlots(16); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFindPeriodicTiling measures the generalized (coset) tiling
// search on the gap cluster that lattice search cannot handle.
func BenchmarkFindPeriodicTiling(b *testing.B) {
	gap := prototile.MustNew("gap", lattice.Pt(0, 0), lattice.Pt(2, 0))
	for i := 0; i < b.N; i++ {
		if _, ok := tiling.FindPeriodicTiling(gap, 2); !ok {
			b.Fatal("no periodic tiling")
		}
	}
}

// BenchmarkConvergecast measures the multi-hop harness end to end.
func BenchmarkConvergecast(b *testing.B) {
	lt, ok := tiling.FindLatticeTiling(prototile.Cross(2, 1))
	if !ok {
		b.Fatal("no tiling")
	}
	s := schedule.FromLatticeTiling(lt)
	for i := 0; i < b.N; i++ {
		m, err := wsn.RunConvergecast(wsn.ConvergecastConfig{
			Window:     lattice.CenteredWindow(2, 4),
			Deployment: s.Deployment(),
			Protocol:   wsn.NewScheduleMAC("tiling", s),
			Sink:       lattice.Pt(0, 0),
			SourceRate: 0.002,
			Slots:      500,
			Seed:       1,
		})
		if err != nil || m.FailedForwards != 0 {
			b.Fatalf("convergecast: %v (failed %d)", err, m.FailedForwards)
		}
	}
}

// BenchmarkHNFReduce measures one coset reduction.
func BenchmarkHNFReduce(b *testing.B) {
	h := intmat.MustFromRows([][]int64{{1, 2}, {0, 5}})
	hh, _ := intmat.HNF(h)
	v := []int64{123, -456}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := intmat.Reduce(hh, v); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFindLatticeTiling measures the exactness search over
// sublattices: the 9-point Moore neighborhood, the 4-D Chebyshev ball
// (81 points; its hit is the 20,440th of 925,771 candidates) and the
// 6×6 square.
func BenchmarkFindLatticeTiling(b *testing.B) {
	for _, c := range []struct {
		name string
		tile *prototile.Tile
	}{
		{"chebyshev-2-1", prototile.ChebyshevBall(2, 1)},
		{"chebyshev-4-1", prototile.ChebyshevBall(4, 1)},
		{"rect-6x6", prototile.Rect(6, 6)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := tiling.FindLatticeTiling(c.tile); !ok {
					b.Fatal("no tiling")
				}
			}
		})
	}
}

// BenchmarkFactorize compares the naive and accelerated Beauquier–Nivat
// searches on a boundary word of moderate length.
func BenchmarkFactorizeNaive(b *testing.B) {
	word, err := boundary.ContourWord(boundary.Staircase(8))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := boundary.FactorizeNaive(word); !ok {
			b.Fatal("staircase should factorize")
		}
	}
}

func BenchmarkFactorizeFast(b *testing.B) {
	word, err := boundary.ContourWord(boundary.Staircase(8))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := boundary.FactorizeFast(word); !ok {
			b.Fatal("staircase should factorize")
		}
	}
}

// BenchmarkDSATUR measures the main coloring baseline on a 9×9 window.
func BenchmarkDSATUR(b *testing.B) {
	dep := schedule.NewHomogeneous(prototile.Cross(2, 1))
	g, _, err := graph.ConflictGraph(dep, lattice.CenteredWindow(2, 4))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.DSATUR(g)
	}
}

// BenchmarkConflictGraphLarge measures conflict-graph construction as the
// window grows to 100k vertices — the scale the old n×n bool matrix made
// unreachable (100489² bools ≈ 10.1 GB before any edge existed). CSR
// adjacency keeps B/op at O(n + m); the crossover keeps small windows on
// the bitset path.
func BenchmarkConflictGraphLarge(b *testing.B) {
	dep := schedule.NewHomogeneous(prototile.Cross(2, 1))
	for _, r := range []int{49, 100, 158} { // n = 9801, 40401, 100489
		w := lattice.CenteredWindow(2, r)
		b.Run(fmt.Sprintf("n=%d", w.Size()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g, _, err := graph.ConflictGraph(dep, w)
				if err != nil {
					b.Fatal(err)
				}
				if g.Edges() == 0 {
					b.Fatal("no edges")
				}
			}
		})
	}
}

// BenchmarkConflictGraphParallel measures the sharded explicit CSR build
// (DESIGN.md §8): shards=1 is the serial baseline, shards=4 the parallel
// path (its speedup is real only on multi-core hosts — the recorded
// single-core numbers measure sharding overhead, which must stay small).
// n=1002001 is the million-sensor window of the ROADMAP scaling goal;
// B/op records the O(n + m) cost of materializing every edge, the
// baseline the periodic mode is measured against.
func BenchmarkConflictGraphParallel(b *testing.B) {
	dep := schedule.NewHomogeneous(prototile.Cross(2, 1))
	for _, tc := range []struct{ r, shards int }{
		{158, 1}, // n = 100489
		{158, 4},
		{500, 1}, // n = 1002001
		{500, 4},
	} {
		w := lattice.CenteredWindow(2, tc.r)
		b.Run(fmt.Sprintf("n=%d/shards=%d", w.Size(), tc.shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g, _, err := graph.ConflictGraphShards(dep, w, tc.shards)
				if err != nil {
					b.Fatal(err)
				}
				if g.Edges() == 0 {
					b.Fatal("no edges")
				}
			}
		})
	}
}

// BenchmarkConflictGraphPeriodic measures the implicit periodic mode at
// the million-sensor scale (DESIGN.md §8): build extracts the stencil —
// O(det(H)·box·|N|) work and memory independent of the window, against
// the ~10⁸ B/op of the explicit CSR build at the same n — and the
// dsatur/verify cases color and verify the million-vertex graph through
// the implicit adjacency with no edge ever materialized.
func BenchmarkConflictGraphPeriodic(b *testing.B) {
	dep := schedule.NewHomogeneous(prototile.Cross(2, 1))
	for _, r := range []int{158, 500} { // n = 100489, 1002001
		w := lattice.CenteredWindow(2, r)
		b.Run(fmt.Sprintf("build/n=%d", w.Size()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g, err := graph.HomogeneousConflictGraph(dep, w)
				if err != nil {
					b.Fatal(err)
				}
				if g.N() != w.Size() {
					b.Fatal("bad vertex count")
				}
			}
		})
	}
	w := lattice.CenteredWindow(2, 500)
	g, err := graph.HomogeneousConflictGraph(dep, w)
	if err != nil {
		b.Fatal(err)
	}
	b.Run(fmt.Sprintf("dsatur/n=%d", w.Size()), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			colors, k := graph.DSATUR(g)
			if k < 5 || len(colors) != g.N() {
				b.Fatalf("DSATUR colors = %d", k)
			}
		}
	})
	lt, ok := tiling.FindLatticeTiling(prototile.Cross(2, 1))
	if !ok {
		b.Fatal("no tiling")
	}
	s := schedule.FromLatticeTiling(lt)
	b.Run(fmt.Sprintf("verify/n=%d", w.Size()), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := graph.VerifySchedule(g, w, s); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSimulatorSlot measures simulator throughput: cost per simulated
// slot on an 81-sensor network under the tiling schedule.
func BenchmarkSimulatorSlot(b *testing.B) {
	lt, ok := tiling.FindLatticeTiling(prototile.Cross(2, 1))
	if !ok {
		b.Fatal("no tiling")
	}
	s := schedule.FromLatticeTiling(lt)
	dep := s.Deployment()
	w := lattice.CenteredWindow(2, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := wsn.Run(wsn.Config{
			Window: w, Deployment: dep,
			Protocol: wsn.NewScheduleMAC("tiling", s),
			Traffic:  wsn.Saturated{}, Slots: 100, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- Service subsystem (internal/service, cmd/latticed) -------------------

// engineCase is one plan the engine benchmarks time, with its seeded
// query points and its window.
type engineCase struct {
	name string
	plan *core.Plan
	pts  []lattice.Point
	win  lattice.Window
}

// Engine benchmark shapes: a batch of engineBatch seeded points in
// [-engineCoord, engineCoord]^d, and a window engineSide×engineSide on
// its first two axes (one point deep on any others), at a seeded corner
// in the same range — perfbench's lookup script at go-test scale.
const (
	engineBatch = 4096
	engineCoord = 1000
	engineSide  = 128
)

// engineCases compiles the plans the engine benchmarks run over: the
// three perfbench lookup plans, tetromino:T (a cyclic quotient whose
// HNF diagonal is not (1,…,1,m)), and the non-cyclic 2Z×2Z period that
// NewPlanWithPeriod gives the 2×2 square.
func engineCases(b *testing.B) []engineCase {
	b.Helper()
	must := func(p *core.Plan, err error) *core.Plan {
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	hex, hexBall, err := service.PlanSpec{Lattice: "hexagonal", Tile: service.TileSpec{Name: "ball:1"}}.Resolve()
	if err != nil {
		b.Fatal(err)
	}
	plans := []struct {
		name string
		plan *core.Plan
	}{
		{"cross-2-1", must(core.NewPlan(lattice.Square(), prototile.Cross(2, 1)))},
		{"hex-ball-1", must(core.NewPlan(hex, hexBall))},
		{"cubic-cross-3-1", must(core.NewPlan(lattice.Cubic(3), prototile.Cross(3, 1)))},
		{"tetromino-T", must(core.NewPlan(lattice.Square(), prototile.MustTetromino("T")))},
		{"rect-2-2-period-2Zx2Z", must(core.NewPlanWithPeriod(lattice.Square(), prototile.Rect(2, 2),
			intmat.MustFromRows([][]int64{{2, 0}, {0, 2}})))},
	}
	rng := rand.New(rand.NewSource(1))
	coord := func() int { return rng.Intn(2*engineCoord+1) - engineCoord }
	cases := make([]engineCase, len(plans))
	for i, pl := range plans {
		dim := pl.plan.Tile().Dim()
		pts := make([]lattice.Point, engineBatch)
		for k := range pts {
			p := make(lattice.Point, dim)
			for a := range p {
				p[a] = coord()
			}
			pts[k] = p
		}
		lo, hi := make(lattice.Point, dim), make(lattice.Point, dim)
		for a := range lo {
			lo[a] = coord()
			hi[a] = lo[a]
			if a < 2 {
				hi[a] += engineSide - 1
			}
		}
		win, err := lattice.NewWindow(lo, hi)
		if err != nil {
			b.Fatal(err)
		}
		cases[i] = engineCase{name: pl.name, plan: pl.plan, pts: pts, win: win}
	}
	return cases
}

// BenchmarkServiceBatchSlots measures the steady-state batch query path,
// one sub-benchmark per engineCases plan: one op is a 4096-point
// QuerySlots batch of seeded points into a reused destination, so
// per-lookup cost is ns/op ÷ 4096. The path must report 0 allocs/op.
func BenchmarkServiceBatchSlots(b *testing.B) {
	for _, c := range engineCases(b) {
		b.Run(c.name, func(b *testing.B) {
			dst := make([]int32, 0, len(c.pts))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				dst, err = service.QuerySlots(c.plan, c.pts, dst[:0])
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServiceBatchSlotsInstrumented is BenchmarkServiceBatchSlots
// on its first plan (cross:2:1) plus the full per-batch telemetry record
// a served request pays (request counter, latency + engine-phase
// histograms, batch-size distribution, plan-traffic sketch). The delta
// against BenchmarkServiceBatchSlots/cross-2-1 is the instrumentation
// tax, which DESIGN.md §11 pins within noise of the engine contract —
// recording is a handful of atomic adds per batch, amortized over ~4k
// points.
func BenchmarkServiceBatchSlotsInstrumented(b *testing.B) {
	c := engineCases(b)[0]
	met := service.NewServer(service.NewRegistry(2), service.ServerOptions{}).Metrics()
	sig := c.plan.Signature()
	dst := make([]int32, 0, len(c.pts))
	met.ObserveBatch(sig, len(c.pts), time.Microsecond) // admit the signature to the sketch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		var err error
		dst, err = service.QuerySlots(c.plan, c.pts, dst[:0])
		if err != nil {
			b.Fatal(err)
		}
		met.ObserveBatch(sig, len(dst), time.Since(start))
	}
}

// BenchmarkServiceBatchMayBroadcast is the may-broadcast twin of
// BenchmarkServiceBatchSlots (same plans, points and contract).
func BenchmarkServiceBatchMayBroadcast(b *testing.B) {
	for _, c := range engineCases(b) {
		b.Run(c.name, func(b *testing.B) {
			dst := make([]bool, 0, len(c.pts))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				dst, err = service.QueryMayBroadcast(c.plan, c.pts, int64(i), dst[:0])
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServiceWindowSlots measures the window-shorthand path over
// each engineCases plan: a 128×128 window (128×128×1 in 3-D) at a seeded
// corner, queried as a rectangle without materialized points, so
// per-lookup cost is ns/op ÷ 16384.
func BenchmarkServiceWindowSlots(b *testing.B) {
	for _, c := range engineCases(b) {
		b.Run(c.name, func(b *testing.B) {
			dst := make([]int32, 0, c.win.Size())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				dst, err = service.QueryWindowSlots(c.plan, c.win, dst[:0])
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServiceRegistryHit measures a warm plan-registry lookup — the
// per-request overhead a long-running latticed pays before querying.
func BenchmarkServiceRegistryHit(b *testing.B) {
	reg := service.NewRegistry(8)
	spec := service.PlanSpec{Tile: service.TileSpec{Name: "cross:2:1"}}
	if _, err := reg.GetSpec(spec); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.GetSpec(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceHTTPBatch measures cmd/latticed's wire layer end to
// end: a 1024-point batch against an in-process server, client encode
// and decode included, as one sub-benchmark per endpoint (slots, may)
// and codec (json, bin). Both endpoints run the same slot walk; a may
// answer is encoded from it.
func BenchmarkServiceHTTPBatch(b *testing.B) {
	srv := httptest.NewServer(service.NewServer(service.NewRegistry(8), service.ServerOptions{}))
	defer srv.Close()
	rng := rand.New(rand.NewSource(1))
	points := make([][]int, 1024)
	for i := range points {
		points[i] = []int{rng.Intn(2001) - 1000, rng.Intn(2001) - 1000}
	}
	req := service.BatchRequest{
		Plan:   service.PlanSpec{Tile: service.TileSpec{Name: "cross:2:1"}},
		Points: points,
		T:      12345,
	}
	jsonBody, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	client := srv.Client()
	for _, ep := range []string{"slots", "may"} {
		may := ep == "may"
		url := srv.URL + "/v1/slots:batch"
		if may {
			url = srv.URL + "/v1/maybroadcast:batch"
		}
		e := binwire.Get()
		service.EncodeBatchBinary(e, req, may, "")
		binBody := bytes.Clone(e.Bytes())
		binwire.Put(e)
		for _, codec := range []string{"json", "bin"} {
			body, contentType := jsonBody, "application/json"
			if codec == "bin" {
				body, contentType = binBody, service.BinaryContentType
			}
			b.Run(ep+"-"+codec, func(b *testing.B) {
				var raw bytes.Buffer
				var slots service.SlotsResponse
				var flags service.MayResponse
				for i := 0; i < b.N; i++ {
					r, err := client.Post(url, contentType, bytes.NewReader(body))
					if err != nil {
						b.Fatal(err)
					}
					raw.Reset()
					_, err = raw.ReadFrom(r.Body)
					r.Body.Close()
					if err != nil || r.StatusCode != http.StatusOK {
						b.Fatalf("status %d: %v", r.StatusCode, err)
					}
					n := 0
					switch {
					case codec == "bin" && may:
						flags, err = service.DecodeMayStream(raw.Bytes())
						n = len(flags.May)
					case codec == "bin":
						slots, err = service.DecodeSlotsStream(raw.Bytes())
						n = len(slots.Slots)
					case may:
						flags.May = flags.May[:0]
						err = json.Unmarshal(raw.Bytes(), &flags)
						n = len(flags.May)
					default:
						slots.Slots = slots.Slots[:0]
						err = json.Unmarshal(raw.Bytes(), &slots)
						n = len(slots.Slots)
					}
					if err != nil || n != len(points) {
						b.Fatalf("%d answers (%v), want %d", n, err, len(points))
					}
				}
			})
		}
	}
}

// BenchmarkDynamicMutateHTTP measures the dynamic-deployment mutation
// path end to end: a leave + rejoin batch against an in-process
// latticed-equivalent server — session lookup, live-set apply, delta
// encoding, and JSON on both sides.
func BenchmarkDynamicMutateHTTP(b *testing.B) {
	srv := httptest.NewServer(service.NewServer(service.NewRegistry(8), service.ServerOptions{}))
	defer srv.Close()
	body, err := json.Marshal(service.MutateRequest{
		Plan:   service.PlanSpec{Tile: service.TileSpec{Name: "cross:2:1"}},
		Window: service.WindowSpec{Lo: []int{0, 0}, Hi: []int{99, 99}},
		Events: []service.EventSpec{
			{Op: "leave", P: []int{50, 50}},
			{Op: "join", P: []int{50, 50}},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	client := srv.Client()
	url := srv.URL + "/v1/plan:mutate"
	var resp service.MutateResponse
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		resp.Changed = resp.Changed[:0]
		if err := json.NewDecoder(r.Body).Decode(&resp); err != nil {
			b.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK || resp.Disruption.Events != 2 {
			b.Fatalf("status %d, disruption %+v", r.StatusCode, resp.Disruption)
		}
	}
}

// BenchmarkDynamicMutateHTTPPersist is BenchmarkDynamicMutateHTTP with
// durable sessions enabled (WAL append per batch, fsync off — the
// -data default): the delta over the plain benchmark is the full
// persistence overhead on the mutation hot path, pinned within 20% of
// the PR 5 baseline by BENCH_*_wal.json.
func BenchmarkDynamicMutateHTTPPersist(b *testing.B) {
	svc := service.NewServer(service.NewRegistry(8), service.ServerOptions{})
	if err := svc.EnablePersistence(service.PersistOptions{Dir: b.TempDir()}); err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(svc)
	defer srv.Close()
	body, err := json.Marshal(service.MutateRequest{
		Plan:   service.PlanSpec{Tile: service.TileSpec{Name: "cross:2:1"}},
		Window: service.WindowSpec{Lo: []int{0, 0}, Hi: []int{99, 99}},
		Events: []service.EventSpec{
			{Op: "leave", P: []int{50, 50}},
			{Op: "join", P: []int{50, 50}},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	client := srv.Client()
	url := srv.URL + "/v1/plan:mutate"
	var resp service.MutateResponse
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		resp.Changed = resp.Changed[:0]
		if err := json.NewDecoder(r.Body).Decode(&resp); err != nil {
			b.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK || resp.Disruption.Events != 2 {
			b.Fatalf("status %d, disruption %+v", r.StatusCode, resp.Disruption)
		}
	}
}

// BenchmarkSolveTorus measures the exact-cover tiler on the 4×4 torus with
// S and Z tetrominoes (64 solutions).
func BenchmarkSolveTorus(b *testing.B) {
	s := prototile.MustTetromino("S")
	z := prototile.MustTetromino("Z")
	for i := 0; i < b.N; i++ {
		sols, err := tiling.SolveTorus([]int{4, 4}, []*prototile.Tile{s, z}, tiling.SolveOptions{})
		if err != nil || len(sols) != 64 {
			b.Fatalf("got %d solutions, err %v", len(sols), err)
		}
	}
}

// BenchmarkAnnealColoring measures the Wang–Ansari-style baseline.
func BenchmarkAnnealColoring(b *testing.B) {
	dep := schedule.NewHomogeneous(prototile.Cross(2, 1))
	g, _, err := graph.ConflictGraph(dep, lattice.CenteredWindow(2, 3))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		graph.AnnealColoring(g, rng, graph.AnnealOptions{Iterations: 5000})
	}
}
