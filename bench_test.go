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

// BenchmarkFindLatticeTiling measures the full exactness search over
// sublattices for the 9-point Moore neighborhood.
func BenchmarkFindLatticeTiling(b *testing.B) {
	ti := prototile.ChebyshevBall(2, 1)
	for i := 0; i < b.N; i++ {
		if _, ok := tiling.FindLatticeTiling(ti); !ok {
			b.Fatal("no tiling")
		}
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

func servicePlan(b *testing.B) *core.Plan {
	b.Helper()
	plan, err := core.NewPlan(lattice.Square(), prototile.Cross(2, 1))
	if err != nil {
		b.Fatal(err)
	}
	return plan
}

// BenchmarkServiceBatchSlots measures the steady-state batch query path:
// one op is a 4096-point QuerySlots batch into a reused destination, so
// per-lookup cost is ns/op ÷ 4096 and the ≥1M lookups/sec target means
// staying under ~4.1 ms/op. The path must report 0 allocs/op.
func BenchmarkServiceBatchSlots(b *testing.B) {
	plan := servicePlan(b)
	pts := lattice.CenteredWindow(2, 31).Points() // 63×63 = 3969 ≈ 4k points
	dst := make([]int32, 0, len(pts))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = service.QuerySlots(plan, pts, dst[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceBatchSlotsInstrumented is BenchmarkServiceBatchSlots
// plus the full per-batch telemetry record a served request pays
// (request counter, latency + engine-phase histograms, batch-size
// distribution, plan-traffic sketch). The delta against the
// uninstrumented twin is the instrumentation tax, which DESIGN.md §11
// pins within noise of the engine contract — recording is a handful of
// atomic adds per batch, amortized over ~4k points.
func BenchmarkServiceBatchSlotsInstrumented(b *testing.B) {
	plan := servicePlan(b)
	met := service.NewServer(service.NewRegistry(2), service.ServerOptions{}).Metrics()
	sig := plan.Signature()
	pts := lattice.CenteredWindow(2, 31).Points()
	dst := make([]int32, 0, len(pts))
	met.ObserveBatch(sig, len(pts), time.Microsecond) // admit the signature to the sketch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		var err error
		dst, err = service.QuerySlots(plan, pts, dst[:0])
		if err != nil {
			b.Fatal(err)
		}
		met.ObserveBatch(sig, len(dst), time.Since(start))
	}
}

// BenchmarkServiceBatchMayBroadcast is the may-broadcast twin of
// BenchmarkServiceBatchSlots (same batch size, same contract).
func BenchmarkServiceBatchMayBroadcast(b *testing.B) {
	plan := servicePlan(b)
	pts := lattice.CenteredWindow(2, 31).Points()
	dst := make([]bool, 0, len(pts))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = service.QueryMayBroadcast(plan, pts, int64(i), dst[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceWindowSlots measures the window-shorthand path: the
// same 63×63 region queried as a rectangle, without materialized points.
func BenchmarkServiceWindowSlots(b *testing.B) {
	plan := servicePlan(b)
	w := lattice.CenteredWindow(2, 31)
	dst := make([]int32, 0, w.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = service.QueryWindowSlots(plan, w, dst[:0])
		if err != nil {
			b.Fatal(err)
		}
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
// end: a 1024-point slots:batch request against an in-process server,
// including JSON on both sides.
func BenchmarkServiceHTTPBatch(b *testing.B) {
	srv := httptest.NewServer(service.NewServer(service.NewRegistry(8), service.ServerOptions{}))
	defer srv.Close()
	rng := rand.New(rand.NewSource(1))
	points := make([][]int, 1024)
	for i := range points {
		points[i] = []int{rng.Intn(2001) - 1000, rng.Intn(2001) - 1000}
	}
	body, err := json.Marshal(service.BatchRequest{
		Plan:   service.PlanSpec{Tile: service.TileSpec{Name: "cross:2:1"}},
		Points: points,
	})
	if err != nil {
		b.Fatal(err)
	}
	client := srv.Client()
	url := srv.URL + "/v1/slots:batch"
	var resp service.SlotsResponse
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		resp.Slots = resp.Slots[:0]
		if err := json.NewDecoder(r.Body).Decode(&resp); err != nil {
			b.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK || len(resp.Slots) != len(points) {
			b.Fatalf("status %d, %d slots", r.StatusCode, len(resp.Slots))
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
