package graph

import (
	"fmt"
	"math"

	"tilingsched/internal/lattice"
	"tilingsched/internal/schedule"
)

// epochMarks is the shared deduplication primitive of the conflict-graph
// builders: a flat int32 array whose entries record the epoch in which
// they were last marked, so clearing between epochs is free. One array
// serves a whole build — ConflictGraph stamps neighborhood points with
// the scanning vertex as the epoch, BroadcastConflictGraph marks emitted
// partners the same way — and membership is a single integer compare.
//
// Epochs must be non-negative; a fresh array answers false for every
// (index, epoch) pair.
type epochMarks []int32

// newEpochMarks returns a mark array over n indexes with no epoch seen.
func newEpochMarks(n int) epochMarks {
	m := make(epochMarks, n)
	for i := range m {
		m[i] = -1
	}
	return m
}

// mark records index i as seen in the given epoch, reporting whether it
// was unseen before the call (the "emit exactly once" test).
func (m epochMarks) mark(i int, epoch int32) bool {
	if m[i] == epoch {
		return false
	}
	m[i] = epoch
	return true
}

// seen reports whether index i was marked in the given epoch.
func (m epochMarks) seen(i int, epoch int32) bool { return m[i] == epoch }

// conflictScanner is the single bounding-box neighborhood-scan
// implementation behind every explicit conflict-graph build — the serial
// ConflictGraph path and each shard of the parallel builder run the same
// scanRange code over different vertex ranges.
//
// Construction resolves every interference neighborhood exactly once
// into dense indexes of the reach-expanded window ext (a flat CSR-style
// int32 table, per the dense-indexing rule of DESIGN.md §3). A scan then
// stamps vertex i's neighborhood row into an epochMarks array over ext
// and enumerates candidate partners j > i from the bounding box
// p_i ± 2·reach clipped to the window — sensors further apart cannot
// share a neighborhood point — so the inner loop is pure integer
// compares: O(n · box · |N|) total instead of the all-pairs
// O(n² · |N|²) scan.
//
// The scanner itself is immutable after construction; concurrent
// scanRange calls are safe as long as each goroutine owns its stamp
// array (see newStamp), which is what makes the scan shardable.
type conflictScanner struct {
	w       lattice.Window
	pts     []lattice.Point
	ext     lattice.Window // w expanded by reach on every side
	extSize int
	reach   int
	dim     int
	// Neighborhood table in CSR layout: vertex i's interference points,
	// as ext indexes, are nbhIdx[nbhPtr[i]:nbhPtr[i+1]].
	nbhPtr []int
	nbhIdx []int32
}

// newConflictScanner validates the deployment/window pair and builds the
// neighborhood index tables, splitting the table construction across
// `workers` goroutines when workers > 1 (NeighborhoodOf must then be
// safe for concurrent calls, which both in-repo deployments are: they
// only read state cached at construction).
func newConflictScanner(dep schedule.Deployment, w lattice.Window, workers int) (*conflictScanner, error) {
	if w.Dim() != dep.Dim() {
		return nil, fmt.Errorf("%w: window dimension %d ≠ deployment dimension %d",
			ErrGraph, w.Dim(), dep.Dim())
	}
	reach := dep.Reach()
	extLo := w.Lo.Clone()
	extHi := w.Hi.Clone()
	for a := range extLo {
		extLo[a] -= reach
		extHi[a] += reach
	}
	ext, err := lattice.NewWindow(extLo, extHi)
	if err != nil {
		return nil, err
	}
	extSize, err := ext.SizeChecked()
	if err != nil {
		return nil, fmt.Errorf("%w: conflict window too large: %v", ErrGraph, err)
	}
	if extSize > math.MaxInt32 {
		return nil, fmt.Errorf("%w: conflict window too large: %d points", ErrGraph, extSize)
	}
	sc := &conflictScanner{
		w:       w,
		pts:     w.Points(),
		ext:     ext,
		extSize: extSize,
		reach:   reach,
		dim:     w.Dim(),
	}
	n := len(sc.pts)
	sc.nbhPtr = make([]int, n+1)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		// Serial table build. Points outside ext — possible only when a
		// deployment breaks its Reach contract — are skipped on both the
		// stamping and the scanning side, keeping the two consistent.
		sc.nbhIdx = make([]int32, 0, n)
		for i, p := range sc.pts {
			for _, x := range dep.NeighborhoodOf(p) {
				if xi, ok := ext.IndexOf(x); ok {
					sc.nbhIdx = append(sc.nbhIdx, int32(xi))
				}
			}
			sc.nbhPtr[i+1] = len(sc.nbhIdx)
		}
		return sc, nil
	}
	// Parallel table build: each worker resolves the neighborhoods of one
	// contiguous vertex range into a private buffer, recording per-row
	// lengths into its disjoint nbhPtr slots; a serial prefix sum plus
	// in-order concatenation then stitches the global CSR layout.
	parts := make([][]int32, workers)
	done := make(chan struct{}, workers)
	for s := 0; s < workers; s++ {
		lo, hi := shardRange(n, workers, s)
		go func(s, lo, hi int) {
			defer func() { done <- struct{}{} }()
			local := make([]int32, 0, hi-lo)
			for i := lo; i < hi; i++ {
				rowStart := len(local)
				for _, x := range dep.NeighborhoodOf(sc.pts[i]) {
					if xi, ok := ext.IndexOf(x); ok {
						local = append(local, int32(xi))
					}
				}
				sc.nbhPtr[i+1] = len(local) - rowStart // length; prefix-summed below
			}
			parts[s] = local
		}(s, lo, hi)
	}
	for s := 0; s < workers; s++ {
		<-done
	}
	for i := 0; i < n; i++ {
		sc.nbhPtr[i+1] += sc.nbhPtr[i]
	}
	sc.nbhIdx = make([]int32, 0, sc.nbhPtr[n])
	for _, part := range parts {
		sc.nbhIdx = append(sc.nbhIdx, part...)
	}
	return sc, nil
}

// shardRange splits [0, n) into `shards` near-equal contiguous ranges and
// returns the s-th as [lo, hi).
func shardRange(n, shards, s int) (lo, hi int) {
	lo = s * n / shards
	hi = (s + 1) * n / shards
	return lo, hi
}

// newStamp returns a fresh epoch-mark array sized for the scanner's
// expanded window; every concurrent scanRange caller must own one.
func (sc *conflictScanner) newStamp() epochMarks { return newEpochMarks(sc.extSize) }

// scanRange emits every conflict edge {i, j} with i in [lo, hi) and
// j > i, calling emit(i, j) exactly once per edge: vertex i's
// neighborhood row is stamped into the caller-owned mark array with
// epoch i, and each candidate j from the clipped bounding box joins i
// when one of its neighborhood points carries the stamp. Edges are
// owned by their smaller endpoint, so scans over disjoint ranges
// partition the edge set — the property the sharded builder relies on.
func (sc *conflictScanner) scanRange(lo, hi int, stamp epochMarks, emit func(u, v int)) {
	dim := sc.dim
	boxLo := make(lattice.Point, dim)
	boxHi := make(lattice.Point, dim)
	q := make(lattice.Point, dim)
	w := sc.w
	for i := lo; i < hi; i++ {
		p := sc.pts[i]
		epoch := int32(i)
		for _, xi := range sc.nbhIdx[sc.nbhPtr[i]:sc.nbhPtr[i+1]] {
			stamp.mark(int(xi), epoch)
		}
		// Bounding box of possible partners, clipped to the window.
		for a := 0; a < dim; a++ {
			boxLo[a] = max(p[a]-2*sc.reach, w.Lo[a])
			boxHi[a] = min(p[a]+2*sc.reach, w.Hi[a])
		}
		// Odometer over the box; every q is inside w by construction.
		copy(q, boxLo)
		for {
			j, _ := w.IndexOf(q)
			if j > i {
				for _, xi := range sc.nbhIdx[sc.nbhPtr[j]:sc.nbhPtr[j+1]] {
					if stamp.seen(int(xi), epoch) {
						emit(i, j)
						break
					}
				}
			}
			a := dim - 1
			for a >= 0 {
				q[a]++
				if q[a] <= boxHi[a] {
					break
				}
				q[a] = boxLo[a]
				a--
			}
			if a < 0 {
				break
			}
		}
	}
}
