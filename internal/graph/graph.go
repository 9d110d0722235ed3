// Package graph provides the interference/conflict graphs of sensor
// deployments and the distance-2 coloring machinery the paper positions
// its tiling schedules against.
//
// The paper (Related Work) recalls that an optimal collision-free schedule
// corresponds to a distance-2 coloring of the interference digraph, a
// problem NP-complete in general (McCormick; Lloyd–Ramanathan). This
// package builds the equivalent undirected conflict graph — sensors s, t
// conflict when (s+N(s)) ∩ (t+N(t)) ≠ ∅ — and offers greedy, DSATUR,
// exact branch-and-bound, and simulated-annealing colorings (the last in
// the spirit of Wang–Ansari's annealing heuristic) as baselines for the
// tiling schedule.
//
// # Adjacency representation
//
// Graphs are stored in one of three modes (see Mode). The two explicit
// modes are chosen by vertex count: small graphs keep per-vertex bitset
// rows (an n×n bit matrix, O(1) AddEdge/HasEdge) next to append-order
// adjacency lists; large graphs buffer edges and freeze them into sorted
// compressed sparse rows (CSR), O(n + m) memory with binary-search
// HasEdge. The third, Periodic, never materializes an edge at all: for
// translation-periodic deployments it stores one conflict-offset stencil
// per residue class of the period lattice — O(det(H) · |stencil|) memory
// for a window of any size — and answers every query by translating the
// stencil (periodic.go). All modes answer the same API, so every
// coloring runs unchanged on explicit and implicit graphs alike.
//
// Explicit construction is sharded across goroutines at
// ParallelThreshold vertices (parallel.go); the frozen CSR is
// bit-identical for every shard count. Freeze-before-read rule: a
// CSR-mode graph is safe for concurrent readers only after Freeze — the
// package's constructors all return frozen graphs — and periodic graphs
// are born frozen (but see the Neighbors scratch-buffer contract).
package graph

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"

	"tilingsched/internal/lattice"
	"tilingsched/internal/schedule"
	"tilingsched/internal/tiling"
)

// ErrGraph indicates invalid graph construction or use.
var ErrGraph = errors.New("graph: invalid graph")

// Mode selects a Graph's adjacency representation.
type Mode uint8

const (
	// Auto picks Bitset for at most BitsetCrossover vertices and CSR
	// above it.
	Auto Mode = iota
	// Bitset keeps an n×n bit matrix plus append-order adjacency lists:
	// constant-time AddEdge and HasEdge at n²/8 bytes — the right trade
	// below the crossover, where the matrix stays within a couple of
	// megabytes.
	Bitset
	// CSR buffers edges during construction and Freeze compiles them
	// into sorted compressed sparse rows: O(n + m) memory and
	// O(log deg) HasEdge — the only representation that fits very large
	// windows (an n×n matrix at 20k vertices is already ~400 MB as
	// bools, 50 MB as bits; at 100k vertices neither fits a CI runner).
	CSR
	// Periodic is the implicit adjacency of translation-periodic
	// deployments (periodic.go): no edge is ever materialized — the
	// graph stores one conflict-offset stencil per residue class of the
	// deployment's period lattice and answers HasEdge/Neighbors by
	// translating the stencil to the queried vertex. Memory is
	// O(det(H) · |stencil|) instead of O(n + m). Periodic graphs are
	// built only by PeriodicConflictGraph / HomogeneousConflictGraph
	// (never NewMode), are immutable (AddEdge panics), and are always
	// frozen.
	Periodic
)

// String names the mode for tests and diagnostics.
func (m Mode) String() string {
	switch m {
	case Auto:
		return "auto"
	case Bitset:
		return "bitset"
	case CSR:
		return "csr"
	case Periodic:
		return "periodic"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// BitsetCrossover is the largest vertex count for which Auto keeps the
// bitset matrix: 4096 vertices cap the bit matrix at 2 MB (4096²/8
// bytes). One step above, the matrix grows quadratically while CSR stays
// linear in the edge count.
const BitsetCrossover = 4096

// Graph is a simple undirected graph on vertices 0..n-1, stored in one
// of three adjacency modes (see Mode). Explicit graphs are mutable via
// AddEdge; CSR-mode graphs are compiled by Freeze (called implicitly by
// the first read) and transparently reopened by a later AddEdge.
// Periodic-mode graphs are implicit and immutable.
//
// Concurrency: because CSR reads lazily freeze, a freshly built graph is
// NOT safe for concurrent readers until Freeze has been called once.
// Call Freeze after construction before sharing a graph across
// goroutines (the package's constructors — ConflictGraph,
// ConflictGraphShards, PeriodicConflictGraph, BroadcastConflictGraph —
// all return frozen graphs); after that, any number of goroutines may
// read concurrently as long as none calls AddEdge. The one exception is
// periodic-mode Neighbors, which fills a per-graph scratch buffer —
// concurrent periodic readers must use EachNeighbor/HasEdge/Degree.
type Graph struct {
	n    int
	mode Mode

	// Bitset mode.
	words int      // uint64 words per bit-matrix row
	bits  []uint64 // n×words bit matrix
	adj   [][]int  // append-order adjacency lists

	// CSR mode.
	buf    []csrEdge // pre-freeze edge buffer (u < v; may hold duplicates)
	rowPtr []int     // len n+1 once frozen; row u is col[rowPtr[u]:rowPtr[u+1]]
	col    []int     // concatenated sorted neighbor rows
	frozen bool

	// Periodic mode (periodic.go): vertex i is pw.PointAt(i); class c's
	// conflict offsets are stOff[stPtr[c]*dim : stPtr[c+1]*dim],
	// lex-sorted so translated rows come out in ascending index order.
	pw         lattice.Window
	res        *tiling.Residues
	stPtr      []int
	stOff      []int
	nbrScratch []int // Neighbors result buffer; see the Neighbors contract
}

// csrEdge is one buffered undirected edge, normalized u < v. int32
// endpoints keep the pre-freeze buffer at 8 bytes per AddEdge.
type csrEdge struct{ u, v int32 }

// New returns an empty graph on n vertices in the automatic mode: bitset
// up to BitsetCrossover vertices, CSR above.
func New(n int) *Graph { return NewMode(n, Auto) }

// NewDense returns an empty graph on n vertices forced into bitset mode,
// for callers that need constant-time HasEdge during construction and
// accept the n²/8-byte matrix.
func NewDense(n int) *Graph { return NewMode(n, Bitset) }

// NewMode returns an empty graph on n vertices in the given mode; Auto
// resolves by the crossover. Tests use explicit modes to exercise both
// representations on either side of the crossover. Periodic is not a
// constructible mode here — implicit graphs carry a stencil, not edges,
// and are built only by PeriodicConflictGraph / HomogeneousConflictGraph
// (passing Periodic panics).
func NewMode(n int, mode Mode) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: NewMode(%d)", n))
	}
	if mode == Auto {
		if n <= BitsetCrossover {
			mode = Bitset
		} else {
			mode = CSR
		}
	}
	g := &Graph{n: n, mode: mode}
	switch mode {
	case Bitset:
		g.words = (n + 63) / 64
		g.bits = make([]uint64, n*g.words)
		g.adj = make([][]int, n)
	case CSR:
		if n > math.MaxInt32 {
			panic(fmt.Sprintf("graph: NewMode(%d) exceeds CSR vertex limit", n))
		}
	default:
		panic(fmt.Sprintf("graph: NewMode(%d, %v)", n, mode))
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// Mode returns the resolved adjacency mode (never Auto).
func (g *Graph) Mode() Mode { return g.mode }

// AddEdge inserts the undirected edge {u, v}; self-loops, duplicates,
// and out-of-range endpoints are ignored. In CSR mode duplicates are
// buffered and removed by Freeze. Periodic-mode graphs are immutable —
// their edges are defined by the stencil, not stored — so AddEdge on
// one panics.
func (g *Graph) AddEdge(u, v int) {
	if g.mode == Periodic {
		panic("graph: AddEdge on an implicit periodic graph (immutable by construction)")
	}
	if u == v || u < 0 || v < 0 || u >= g.n || v >= g.n {
		return
	}
	if g.mode == Bitset {
		word, bit := g.words*u+v/64, uint64(1)<<(v%64)
		if g.bits[word]&bit != 0 {
			return
		}
		g.bits[word] |= bit
		g.bits[g.words*v+u/64] |= uint64(1) << (u % 64)
		g.adj[u] = append(g.adj[u], v)
		g.adj[v] = append(g.adj[v], u)
		return
	}
	if g.frozen {
		g.thaw()
	}
	if u > v {
		u, v = v, u
	}
	g.buf = append(g.buf, csrEdge{int32(u), int32(v)})
}

// Freeze compiles a CSR-mode graph's buffered edges into sorted rows via
// a two-pass counting construction (count degrees, prefix-sum, scatter),
// then sorts and deduplicates each row in place. It is idempotent, a
// no-op in the bitset and periodic modes (periodic graphs are born
// frozen), and called implicitly by the first read; callers that finish
// construction may call it eagerly to drop the edge buffer — and must
// call it before sharing a CSR graph across goroutines (the
// freeze-before-read rule).
func (g *Graph) Freeze() {
	if g.mode != CSR || g.frozen {
		g.frozen = true
		return
	}
	// Pass 1: per-vertex counts (duplicates included), shifted by one so
	// the prefix sum lands directly in rowPtr.
	rowPtr := make([]int, g.n+1)
	for _, e := range g.buf {
		rowPtr[e.u+1]++
		rowPtr[e.v+1]++
	}
	for i := 0; i < g.n; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	// Pass 2: scatter both directions.
	col := make([]int, rowPtr[g.n])
	next := make([]int, g.n)
	copy(next, rowPtr[:g.n])
	for _, e := range g.buf {
		col[next[e.u]] = int(e.v)
		next[e.u]++
		col[next[e.v]] = int(e.u)
		next[e.v]++
	}
	// Sort and deduplicate each row, compacting the column array. The
	// write cursor never passes the read cursor, so compaction is safe
	// in place.
	write, start := 0, 0
	for u := 0; u < g.n; u++ {
		end := rowPtr[u+1]
		row := col[start:end]
		slices.Sort(row)
		rowStart := write
		prev := -1
		for _, v := range row {
			if v != prev {
				col[write] = v
				write++
				prev = v
			}
		}
		start = end
		rowPtr[u] = rowStart
	}
	rowPtr[g.n] = write
	g.rowPtr, g.col = rowPtr, col[:write:write]
	g.buf = nil
	g.frozen = true
}

// thaw reopens a frozen CSR graph for mutation by spilling its rows back
// into the edge buffer. Amortized: an AddEdge/read interleaving pays one
// spill per alternation, and the package's constructors freeze exactly
// once at the end.
func (g *Graph) thaw() {
	buf := make([]csrEdge, 0, len(g.col)/2+1)
	for u := 0; u < g.n; u++ {
		for _, v := range g.col[g.rowPtr[u]:g.rowPtr[u+1]] {
			if v > u {
				buf = append(buf, csrEdge{int32(u), int32(v)})
			}
		}
	}
	g.buf, g.rowPtr, g.col, g.frozen = buf, nil, nil, false
}

// ensure makes CSR reads see the frozen rows.
func (g *Graph) ensure() {
	if g.mode == CSR && !g.frozen {
		g.Freeze()
	}
}

// HasEdge reports adjacency: O(1) in bitset mode, binary search of the
// shorter endpoint row in CSR mode, a stencil scan (O(|stencil| · dim),
// no memory touched beyond the stencil) in periodic mode.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= g.n || v >= g.n || u == v {
		return false
	}
	if g.mode == Bitset {
		return g.bits[g.words*u+v/64]&(uint64(1)<<(v%64)) != 0
	}
	if g.mode == Periodic {
		return g.periodicHasEdge(u, v)
	}
	g.ensure()
	if g.rowPtr[u+1]-g.rowPtr[u] > g.rowPtr[v+1]-g.rowPtr[v] {
		u, v = v, u
	}
	_, found := slices.BinarySearch(g.col[g.rowPtr[u]:g.rowPtr[u+1]], v)
	return found
}

// Degree returns the number of neighbors of u. In periodic mode it
// counts the in-window translates of u's stencil (stateless, safe for
// concurrent callers).
func (g *Graph) Degree(u int) int {
	if g.mode == Bitset {
		return len(g.adj[u])
	}
	if g.mode == Periodic {
		return g.periodicDegree(u)
	}
	g.ensure()
	return g.rowPtr[u+1] - g.rowPtr[u]
}

// Neighbors returns the adjacency row of u as a shared slice — callers
// must not mutate it. All modes answer without allocating: bitset mode
// returns the append-order list, CSR mode the sorted row, and periodic
// mode computes the row (ascending) into a single per-graph scratch
// buffer that the NEXT Neighbors call overwrites. Periodic-mode callers
// that read a graph from several goroutines, or that need two rows
// alive at once, must use EachNeighbor / HasEdge / Degree instead —
// those are stateless in every mode.
func (g *Graph) Neighbors(u int) []int {
	if g.mode == Bitset {
		return g.adj[u]
	}
	if g.mode == Periodic {
		return g.periodicNeighbors(u)
	}
	g.ensure()
	return g.col[g.rowPtr[u]:g.rowPtr[u+1]]
}

// EachNeighbor calls f for every neighbor of u until f returns false.
// Equivalent to ranging over Neighbors without exposing the shared
// slice; in periodic mode it iterates the stencil directly without
// touching the scratch buffer, so it is the concurrent-safe way to walk
// implicit rows.
func (g *Graph) EachNeighbor(u int, f func(v int) bool) {
	if g.mode == Periodic {
		g.periodicEachNeighbor(u, f)
		return
	}
	for _, v := range g.Neighbors(u) {
		if !f(v) {
			return
		}
	}
}

// Edges returns the number of edges. Explicit modes answer from stored
// adjacency; periodic mode sums window-clipped stencil degrees on every
// call — O(n · |stencil|), cheap enough at a million vertices but worth
// hoisting out of loops.
func (g *Graph) Edges() int {
	if g.mode == Bitset {
		total := 0
		for _, a := range g.adj {
			total += len(a)
		}
		return total / 2
	}
	if g.mode == Periodic {
		total := 0
		for u := 0; u < g.n; u++ {
			total += g.periodicDegree(u)
		}
		return total / 2
	}
	g.ensure()
	return len(g.col) / 2
}

// MaxDegree returns the maximum vertex degree (0 for the empty graph).
func (g *Graph) MaxDegree() int {
	d := 0
	for u := 0; u < g.n; u++ {
		if deg := g.Degree(u); deg > d {
			d = deg
		}
	}
	return d
}

// ValidColoring reports whether colors is a proper coloring: every vertex
// colored ≥ 0 and no edge monochromatic.
func (g *Graph) ValidColoring(colors []int) bool {
	if len(colors) != g.n {
		return false
	}
	for u := 0; u < g.n; u++ {
		if colors[u] < 0 {
			return false
		}
		for _, v := range g.Neighbors(u) {
			if colors[u] == colors[v] {
				return false
			}
		}
	}
	return true
}

// ColorsUsed returns the number of distinct colors in a coloring.
func ColorsUsed(colors []int) int {
	seen := map[int]bool{}
	for _, c := range colors {
		seen[c] = true
	}
	return len(seen)
}

// ConflictGraph builds the conflict graph of a deployment restricted to a
// window: one vertex per window point (in lexicographic order), an edge
// whenever the two sensors' interference neighborhoods intersect. A proper
// coloring of this graph is exactly a collision-free slot assignment, and
// its chromatic number is the minimal number of slots for the finite
// deployment. The graph's adjacency mode follows the crossover, so very
// large windows build into CSR with O(n + m) peak adjacency memory; at
// ParallelThreshold vertices and above, edge generation is sharded across
// GOMAXPROCS goroutines (see ConflictGraphShards). The returned graph is
// frozen and safe for concurrent readers.
func ConflictGraph(dep schedule.Deployment, w lattice.Window) (*Graph, []lattice.Point, error) {
	if w.Size() >= ParallelThreshold {
		if p := runtime.GOMAXPROCS(0); p > 1 {
			return conflictGraphShards(dep, w, Auto, p)
		}
	}
	return conflictGraph(dep, w, Auto)
}

// conflictGraph is ConflictGraph's serial path with an explicit adjacency
// mode, so the parity tests can build the same deployment into both
// explicit representations. Edge generation is one conflictScanner pass
// over the full vertex range (see scan.go for the cost model).
func conflictGraph(dep schedule.Deployment, w lattice.Window, mode Mode) (*Graph, []lattice.Point, error) {
	sc, err := newConflictScanner(dep, w, 1)
	if err != nil {
		return nil, nil, err
	}
	g := NewMode(len(sc.pts), mode)
	sc.scanRange(0, len(sc.pts), sc.newStamp(), g.AddEdge)
	g.Freeze()
	return g, sc.pts, nil
}

// OptimalSchedule constructs the minimal-slot collision-free schedule for
// a finite deployment by exact coloring of its conflict graph. The
// returned proven flag is true when the slot count is certified minimal
// (clique bound met or search exhausted within nodeBudget). This is the
// strongest finite-window baseline the tiling schedule competes against —
// and, per Theorem 1, matches it whenever the window contains N+N.
func OptimalSchedule(dep schedule.Deployment, w lattice.Window, nodeBudget int) (*schedule.MapSchedule, bool, error) {
	g, pts, err := ConflictGraph(dep, w)
	if err != nil {
		return nil, false, err
	}
	res := ChromaticNumber(g, nodeBudget)
	ms, err := schedule.NewMapSchedule(res.NumColors, pts, res.Colors)
	if err != nil {
		return nil, false, err
	}
	return ms, res.Proven, nil
}

// CliqueLowerBound finds a large clique greedily (best over all seed
// vertices, extending by highest-degree candidates) and returns its size —
// a certified lower bound on the chromatic number. For homogeneous
// deployments whose window contains the prototile, the clique recovers
// the paper's bound |N| (all sensors inside one neighborhood pairwise
// conflict).
func CliqueLowerBound(g *Graph) int {
	best := 0
	if g.n == 0 {
		return 0
	}
	order := make([]int, g.n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return g.Degree(order[a]) > g.Degree(order[b]) })
	var cand []int
	for _, seed := range order {
		clique := []int{seed}
		// Candidates: neighbors of everything in the clique.
		cand = append(cand[:0], g.Neighbors(seed)...)
		sort.Slice(cand, func(a, b int) bool { return g.Degree(cand[a]) > g.Degree(cand[b]) })
		for _, v := range cand {
			ok := true
			for _, u := range clique {
				if !g.HasEdge(u, v) {
					ok = false
					break
				}
			}
			if ok {
				clique = append(clique, v)
			}
		}
		if len(clique) > best {
			best = len(clique)
		}
	}
	return best
}
