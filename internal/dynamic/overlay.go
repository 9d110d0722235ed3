package dynamic

import (
	"fmt"

	"tilingsched/internal/graph"
	"tilingsched/internal/lattice"
	"tilingsched/internal/schedule"
	"tilingsched/internal/tiling"
)

// Overlay is the incremental conflict graph of a churning deployment: a
// frozen base graph (any adjacency mode of internal/graph — bitset, CSR,
// or implicit periodic) over a base window, plus a delta overlay that
// mutation events edit in place. The overlay has three parts:
//
//   - a tombstone bitset: every vertex is alive or dead; Leave/Fail clear
//     the bit, Join sets it. Dead vertices keep their base adjacency —
//     queries filter by liveness — so a departed sensor rejoins in O(1).
//   - added vertices: Join events outside the base window append fresh
//     vertices (ids ≥ the base vertex count) with explicit positions.
//   - edge patches: every edge incident to an added vertex is stored
//     explicitly in symmetric patch rows, computed at join time by a
//     graph.SiteScanner probe of the p ± 2·reach bounding box — the only
//     region a single join can change. Base–base edges never need a
//     patch: the base graph already encodes the conflict relation for
//     every pair of base-window positions (conflicts are determined by
//     position alone), including pairs involving dead vertices. In
//     periodic base mode this is exactly the issue's stencil demotion:
//     implicit stencil translation keeps answering every query outside
//     the damage region, and only the patch rows are explicit.
//
// The overlay therefore answers HasEdge / EachNeighbor for the current
// deployment exactly as a from-scratch rebuild would (the oracle tests
// pin this), while a single mutation costs O(box · |N|) instead of the
// full O(n · box · |N|) rebuild. Compact re-freezes the overlay into a
// fresh base when the added set exceeds a threshold.
//
// An Overlay is single-writer state: mutations (driven by Mutator) must
// be serialized, and readers must not run concurrently with them.
type Overlay struct {
	dep   schedule.Deployment
	res   *tiling.Residues // non-nil: compaction re-freezes periodic
	mode  graph.Mode       // explicit base-mode preference for compaction
	w     lattice.Window
	base  *graph.Graph
	baseN int

	alive      []uint64
	aliveCount int
	deadBase   int // dead base-window vertices (overlay-size input)

	added    []lattice.Point // ids baseN+k, positions outside w
	addedIdx map[string]int  // Point.Key() → id (event-rate cold path)

	patch      map[int][]int32 // symmetric rows; every edge touches an added vertex
	patchEdges int

	site *graph.SiteScanner
}

// newOverlay builds the overlay's base graph over the window in the
// requested mode (res non-nil selects the implicit periodic mode) with
// every window vertex alive.
func newOverlay(dep schedule.Deployment, w lattice.Window, mode graph.Mode, res *tiling.Residues) (*Overlay, error) {
	var base *graph.Graph
	var err error
	if res != nil {
		base, err = graph.PeriodicConflictGraph(dep, res, w)
	} else {
		base, _, err = graph.ConflictGraphMode(dep, w, mode)
	}
	if err != nil {
		return nil, err
	}
	site, err := graph.NewSiteScanner(dep)
	if err != nil {
		return nil, err
	}
	n := base.N()
	o := &Overlay{
		dep:      dep,
		res:      res,
		mode:     mode,
		w:        w,
		base:     base,
		baseN:    n,
		alive:    make([]uint64, (n+63)/64),
		addedIdx: make(map[string]int),
		patch:    make(map[int][]int32),
		site:     site,
	}
	for i := 0; i < n; i++ {
		o.alive[i/64] |= 1 << (i % 64)
	}
	o.aliveCount = n
	return o, nil
}

// NumVertices returns the overlay's vertex-id space size: base window
// points plus added vertices, dead or alive.
func (o *Overlay) NumVertices() int { return o.baseN + len(o.added) }

// AliveCount returns the number of live sensors.
func (o *Overlay) AliveCount() int { return o.aliveCount }

// BaseMode returns the adjacency mode of the current base graph.
func (o *Overlay) BaseMode() graph.Mode { return o.base.Mode() }

// Window returns the current base window (vertex i < baseN is its i-th
// point in lexicographic order). Compaction replaces it.
func (o *Overlay) Window() lattice.Window { return o.w }

// Alive reports whether vertex v currently hosts a sensor.
func (o *Overlay) Alive(v int) bool {
	if v < 0 || v >= o.baseN+len(o.added) {
		return false
	}
	return o.alive[v/64]&(1<<(v%64)) != 0
}

func (o *Overlay) setAlive(v int, up bool) {
	word, bit := v/64, uint64(1)<<(v%64)
	was := o.alive[word]&bit != 0
	if was == up {
		return
	}
	if up {
		o.alive[word] |= bit
		o.aliveCount++
		if v < o.baseN {
			o.deadBase--
		}
	} else {
		o.alive[word] &^= bit
		o.aliveCount--
		if v < o.baseN {
			o.deadBase++
		}
	}
}

// PointOf returns the position of vertex v (base vertices resolve
// through the window, added vertices through the overlay table).
func (o *Overlay) PointOf(v int) lattice.Point {
	if v < o.baseN {
		return o.w.PointAt(v)
	}
	return o.added[v-o.baseN]
}

// IndexOf returns the vertex id of position p: its dense window index
// inside the base window, or its added-vertex id outside. ok is false
// when p was never part of the deployment.
func (o *Overlay) IndexOf(p lattice.Point) (int, bool) {
	if i, ok := o.w.IndexOf(p); ok {
		return i, true
	}
	if id, ok := o.addedIdx[p.Key()]; ok {
		return id, true
	}
	return 0, false
}

// OverlaySize measures the delta the overlay carries on top of the
// frozen base: added vertices plus dead base vertices. Compaction
// triggers on it.
func (o *Overlay) OverlaySize() int { return len(o.added) + o.deadBase }

// HasEdge reports whether the live sensors at vertices u and v conflict:
// false unless both are alive, then the base answer for base–base pairs
// and a patch-row scan for pairs involving an added vertex.
func (o *Overlay) HasEdge(u, v int) bool {
	if u == v || !o.Alive(u) || !o.Alive(v) {
		return false
	}
	if u < o.baseN && v < o.baseN {
		return o.base.HasEdge(u, v)
	}
	// Scan the added endpoint's patch row (bounded by the join-time
	// bounding box plus its added-added partners).
	if u < o.baseN {
		u, v = v, u
	}
	for _, x := range o.patch[u] {
		if int(x) == v {
			return true
		}
	}
	return false
}

// EachNeighbor calls f with every live conflict partner of vertex u (in
// no particular order) until f returns false. Dead vertices have no
// neighbors. The base row comes first, then the patch row; the two are
// disjoint by construction (patch rows only hold edges incident to an
// added vertex).
func (o *Overlay) EachNeighbor(u int, f func(v int) bool) {
	if !o.Alive(u) {
		return
	}
	stopped := false
	if u < o.baseN {
		o.base.EachNeighbor(u, func(v int) bool {
			if o.Alive(v) && !f(v) {
				stopped = true
				return false
			}
			return true
		})
	}
	if stopped {
		return
	}
	for _, x := range o.patch[u] {
		if o.Alive(int(x)) && !f(int(x)) {
			return
		}
	}
}

// Degree returns the number of live conflict partners of vertex u.
func (o *Overlay) Degree(u int) int {
	d := 0
	o.EachNeighbor(u, func(int) bool { d++; return true })
	return d
}

// join activates a sensor at p, returning its vertex id. In-window
// joins and rejoins of previously-added positions revive the tombstoned
// vertex in O(1) (their edges are already known); a genuinely new
// outside position appends an added vertex and computes its patch rows.
//
// Patch-row cost depends on the base mode. Over a periodic base the
// conflict partners of p are exactly p + d for the stencil offsets d of
// p's residue class — valid outside the window too, since periodicity
// holds on the whole lattice — so the row is O(|stencil|) translations
// (the Move fast path: a departing-and-rejoining sensor never re-probes
// neighborhoods). Explicit bases fall back to a SiteScanner probe of
// the p ± 2·reach box, O(box · |N|).
func (o *Overlay) join(p lattice.Point) (int, error) {
	if p.Dim() != o.w.Dim() {
		return 0, fmt.Errorf("%w: join %v has dimension %d, want %d", ErrDynamic, p, p.Dim(), o.w.Dim())
	}
	if id, ok := o.IndexOf(p); ok {
		if o.Alive(id) {
			return 0, fmt.Errorf("%w: join %v: position already hosts a sensor", ErrDynamic, p)
		}
		o.setAlive(id, true)
		return id, nil
	}
	id := o.baseN + len(o.added)
	q := p.Clone()
	o.added = append(o.added, q)
	o.addedIdx[q.Key()] = id
	if id >= len(o.alive)*64 {
		o.alive = append(o.alive, 0)
	}
	o.setAlive(id, true)
	reach := o.site.Reach()
	dim := o.w.Dim()
	if row, ok := o.base.ConflictOffsets(q); ok {
		// Periodic fast path: translate the stencil row of q's residue
		// class. Base candidates are the translated offsets that land in
		// the window (dead ones get patch edges too, so a later rejoin
		// needs no rescan); added candidates check offset membership
		// behind a Chebyshev prefilter.
		c := make(lattice.Point, dim)
		for k := 0; k < len(row); k += dim {
			for a := 0; a < dim; a++ {
				c[a] = q[a] + row[k+a]
			}
			if j, ok := o.w.IndexOf(c); ok {
				o.addPatch(id, j)
			}
		}
		for k, a := range o.added {
			v := o.baseN + k
			if v == id {
				continue
			}
			if chebyshevDist(q, a) <= 2*reach && offsetInRow(row, q, a) {
				o.addPatch(id, v)
			}
		}
		return id, nil
	}
	if err := o.site.Reset(q); err != nil {
		return 0, err
	}
	// Base-window candidates: the bounding box p ± 2·reach clipped to the
	// window, probed point by point. Dead candidates get patch edges too,
	// so a later rejoin needs no rescan.
	boxLo := make(lattice.Point, dim)
	boxHi := make(lattice.Point, dim)
	empty := false
	for a := 0; a < dim; a++ {
		boxLo[a] = max(q[a]-2*reach, o.w.Lo[a])
		boxHi[a] = min(q[a]+2*reach, o.w.Hi[a])
		if boxLo[a] > boxHi[a] {
			empty = true
			break
		}
	}
	if !empty {
		box := lattice.Window{Lo: boxLo, Hi: boxHi}
		box.Each(func(c lattice.Point) bool {
			if o.site.Conflicts(c) {
				j, _ := o.w.IndexOf(c)
				o.addPatch(id, j)
			}
			return true
		})
	}
	// Added-vertex candidates: linear scan with a Chebyshev prefilter;
	// compaction bounds the added set, keeping this O(threshold).
	for k, a := range o.added {
		v := o.baseN + k
		if v == id {
			continue
		}
		if chebyshevDist(q, a) <= 2*reach && o.site.Conflicts(a) {
			o.addPatch(id, v)
		}
	}
	return id, nil
}

// addPatch records the undirected patch edge {u, v} in both rows.
func (o *Overlay) addPatch(u, v int) {
	o.patch[u] = append(o.patch[u], int32(v))
	o.patch[v] = append(o.patch[v], int32(u))
	o.patchEdges++
}

// leave deactivates the sensor at p, returning its vertex id. The
// vertex is tombstoned, not removed: adjacency stays intact for a later
// rejoin, and compaction reclaims the space.
func (o *Overlay) leave(p lattice.Point) (int, error) {
	id, ok := o.IndexOf(p)
	if !ok || !o.Alive(id) {
		return 0, fmt.Errorf("%w: leave %v: no sensor at this position", ErrDynamic, p)
	}
	o.setAlive(id, false)
	return id, nil
}

// offsetInRow reports whether the offset a − q appears in the
// flattened stencil row (dim = len(q) ints per offset).
func offsetInRow(row []int, q, a lattice.Point) bool {
	dim := len(q)
	for k := 0; k < len(row); k += dim {
		match := true
		for x := 0; x < dim; x++ {
			if a[x]-q[x] != row[k+x] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// chebyshevDist is the L∞ distance between same-dimension points.
func chebyshevDist(p, q lattice.Point) int {
	d := 0
	for i := range p {
		c := p[i] - q[i]
		if c < 0 {
			c = -c
		}
		if c > d {
			d = c
		}
	}
	return d
}

// compact re-freezes the overlay: a fresh base graph is built over the
// bounding window of all live sensors (in the overlay's preferred mode),
// tombstones are re-derived, and the added/patch tables are dropped.
// Vertex ids change; the returned remap slice maps every old id to its
// new id, or -1 for positions outside the new window (possible only for
// dead added vertices). A no-op returning nil when no sensor is alive.
func (o *Overlay) compact() ([]int32, error) {
	if o.aliveCount == 0 {
		return nil, nil
	}
	dim := o.w.Dim()
	var lo, hi lattice.Point
	oldN := o.NumVertices()
	for v := 0; v < oldN; v++ {
		if !o.Alive(v) {
			continue
		}
		p := o.PointOf(v)
		if lo == nil {
			lo, hi = p.Clone(), p.Clone()
			continue
		}
		for a := 0; a < dim; a++ {
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
		return nil, err
	}
	if _, err := w.SizeChecked(); err != nil {
		return nil, fmt.Errorf("%w: compaction window too large: %v", ErrDynamic, err)
	}
	fresh, err := newOverlay(o.dep, w, o.mode, o.res)
	if err != nil {
		return nil, err
	}
	// Re-derive tombstones: only previously-live positions stay alive.
	for i := 0; i < fresh.baseN; i++ {
		fresh.setAlive(i, false)
	}
	remap := make([]int32, oldN)
	for v := 0; v < oldN; v++ {
		remap[v] = -1
		if !o.Alive(v) {
			continue
		}
		j, ok := w.IndexOf(o.PointOf(v))
		if !ok {
			return nil, fmt.Errorf("%w: live vertex %d escaped its bounding window", ErrDynamic, v)
		}
		fresh.setAlive(j, true)
		remap[v] = int32(j)
	}
	*o = *fresh
	return remap, nil
}
