// Package tilingsched reproduces "Scheduling Sensors by Tiling Lattices"
// (Klappenecker, Lee, Welch; PODC 2008 / arXiv:0806.1271): deterministic,
// collision-free, provably optimal periodic broadcast schedules for
// sensors on lattice points, derived from tilings of the lattice by the
// sensors' interference neighborhoods.
//
// The implementation lives under internal/: see internal/core for the
// top-level Plan API, DESIGN.md for the system inventory, and
// internal/experiments (DESIGN.md §4) for the reproduced figures and
// tables. README.md is the quickstart. The benchmarks in
// bench_test.go regenerate every figure and derived table of the
// reproduction; scripts/bench.sh (cmd/bench) records them as
// BENCH_<date>.json summaries tracking the performance trajectory.
//
// # Indexing architecture
//
// Every hot path identifies lattice points by dense integers, never by
// strings:
//
//   - Finite regions index through lattice.Window.IndexOf / PointAt, an
//     allocation-free mixed-radix bijection between a window's points and
//     [0, Size()); Window.Each iterates with a reused buffer.
//   - Tilings resolve cosets through a flat residue table of size det(H)
//     indexed in closed form: with the Smith form U·H·V = D
//     (intmat.SmithForm), a point's residue is (p·V) mod D, one dot
//     product and one mod per invariant factor above 1 (internal/tiling's
//     cosetTable), so Theorem 1 slot assignment is O(d) integer
//     arithmetic with zero allocations. internal/core certifies the slot
//     function collision-free on all of Z^d before any plan is served.
//   - Simulators, conflict graphs, and explicit schedules hold per-point
//     state in flat []int / []int32 tables addressed by those indexes.
//   - Conflict-graph adjacency is three-mode (DESIGN.md §7–§8):
//     per-vertex bitset rows up to the ~4k-vertex crossover, sorted
//     compressed sparse rows (CSR) above it — built serially below
//     graph.ParallelThreshold and by sharded goroutines above, with a
//     bit-identical frozen CSR either way — and an implicit Periodic
//     mode for translation-periodic deployments that stores only a
//     per-residue-class conflict stencil (O(det(H)·|stencil|) memory)
//     and answers adjacency by translation, reaching million-vertex
//     windows in microseconds. A differential harness
//     (internal/graph/parity_test.go, periodic_test.go,
//     parallel_test.go) pins all modes to a map-of-sets oracle and to
//     shard-count invariance.
//
// lattice.Point.Key() remains only for cold paths — rendering, canonical
// form signatures, and tests. New code must not introduce string-keyed
// point maps on per-slot or per-lookup paths.
//
// # Serving architecture
//
// internal/service turns compiled plans into a serving subsystem
// (DESIGN.md §5), layered as registry → batch engine → wire:
//
//   - The plan registry is an LRU of compiled core.Plan values keyed by
//     the canonical core.Signature, with singleflight compilation:
//     concurrent requests for one signature compile it exactly once.
//   - The batch engine (service.QuerySlots, service.QueryMayBroadcast,
//     and window-shorthand variants) answers point batches through the
//     dense coset tables under a zero-alloc steady-state contract: with
//     a reused destination slice, a batch allocates nothing and each
//     lookup is one dot product, one mod and one table read for a cyclic
//     quotient. Plans are immutable, so any
//     number of goroutines may query one plan concurrently. The server
//     walks the engine once per batch, for slots, on both batch
//     endpoints: a may-broadcast flag is slot == t mod m, encoded from
//     the slot run.
//   - cmd/latticed exposes the engine over compact JSON/HTTP
//     (/v1/plan, /v1/slots:batch, /v1/maybroadcast:batch, /healthz);
//     cmd/bench -load is the matching load generator, and -debug serves
//     the pprof plane (/debug/pprof).
//   - The same endpoints also speak a binary wire protocol (DESIGN.md
//     §10), negotiated by Content-Type application/x-lattice-bin:
//     length-prefixed frames over internal/service/binwire varint
//     primitives, delta-encoded point batches, signature handles that
//     skip re-sending plan specs, and streamed chunk-frame responses.
//     One handler per endpoint serves both codecs, so they stay
//     semantically identical (parity tests pin it); the binary path
//     serves 6-10x the JSON codec's lookups/s end to end
//     (BENCH_<date>_wire.json; perfbench lookup-json vs lookup-bin).
//
// # Telemetry
//
// internal/obs is the stdlib-only telemetry plane (DESIGN.md §11):
// lock-free atomic counters, gauges, and fixed-bucket log2 latency
// histograms (Record is three atomic adds, 0 allocs), a bounded
// space-saving top-K traffic sketch, and Prometheus text exposition
// (v0.0.4) written without any client library. Every service.Server
// carries its own obs.Registry — no process globals, and no second
// counter store — recording per-endpoint × codec
// requests/errors/latency, decode/engine/encode phase splits,
// batch-size distributions, plan-cache and session traffic, applied
// events by op, and per-plan-signature point volume. One record per
// request holds its phase boundaries, one clock read each, and feeds the phase
// histograms, the span trace and the slow log alike. cmd/latticed
// always serves GET /metrics; -slow-ms samples requests past a
// threshold into the log with their phase split. The instrumentation
// tax is pinned by alloc guards and the instrumented-vs-bare engine
// benchmark (BENCH_<date>_obs.json).
//
// # Dynamic deployments
//
// internal/dynamic opens the churn axis (DESIGN.md §9): real sensor
// fields lose nodes, gain nodes, and duty-cycle, and a schedule that
// must be recompiled on every change wastes both the ~70 ms (100k
// vertices) conflict-graph rebuild and a full recolor's disruption.
//
//   - dynamic.Overlay maintains the conflict graph incrementally over a
//     frozen base graph of any adjacency mode: a tombstone bitset for
//     departures, added vertices for out-of-window joins, and explicit
//     edge patches computed by a graph.SiteScanner probe of the
//     p ± 2·reach bounding box (570 ns per join/leave round trip at
//     100k vertices vs 73 ms for the rebuild it replaces;
//     BENCH_<date>_dynamic.json). Compaction re-freezes the overlay
//     when the delta exceeds a threshold.
//   - dynamic.Mutator keeps the slot assignment valid: a join takes its
//     seed slot when no live neighbor holds it (with a Theorem 1 seed,
//     always); non-tiling seeds fall back to smallest-free-slot joins,
//     damage-region DSATUR-repair, then a full recolor. Every Apply
//     reports a Disruption and the changed slot assignments as deltas.
//   - The service layer exposes sessions over POST /v1/plan:mutate,
//     keyed by core.Signature + window and versioned by an epoch, so
//     latticed clients track churn from delta responses without
//     re-downloading schedules. A session is its live set, every slot
//     computed as plan.SlotOf(p). Sessions also push (DESIGN.md §13):
//     POST /v1/plan:subscribe streams one delta per applied batch in
//     either codec, catching stale subscribers up from the session WAL
//     when -data covers the gap and answering a full resync otherwise,
//     while slow consumers are dropped with a terminal "resync
//     required" element rather than ever blocking the mutate path. A
//     differential subscriber oracle pins every streamed copy
//     byte-identical to a full resync across reconnects, evictions,
//     and daemon restarts; wsn.Config.Churn scripts the same
//     events through the simulator (the tiling schedule needs no
//     rescheduling under churn — condition T2 is subset-closed), and
//     examples/churn walks the whole story. A differential oracle
//     (internal/dynamic/oracle_test.go) pins every mutation sequence
//     edge-identical and VerifySchedule-valid against from-scratch
//     rebuilds across all three base modes.
package tilingsched
