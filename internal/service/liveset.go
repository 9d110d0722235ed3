package service

// A session's whole state (DESIGN.md §9): the set of points that hold a
// live sensor. By Theorem 1 every live sensor holds its coset slot
// plan.SlotOf(p), so slots are computed, never stored.

import (
	"fmt"
	"maps"
	"math/bits"
	"slices"

	"tilingsched/internal/core"
	"tilingsched/internal/dynamic"
	"tilingsched/internal/lattice"
)

// liveSet is the set of live sensor positions of one session: one bit
// per point of the declared window, in Window.IndexOf order, plus a map
// for live points outside it (the MutateMargin band). The map is keyed
// by Point.Key(): it is touched at event rate, a cold path. Not safe
// for concurrent use; the owning session's mutex guards it.
type liveSet struct {
	win   lattice.Window
	bits  []uint64
	band  map[string]lattice.Point
	alive int
}

// newLiveSet returns an empty set over the window, or — full — the seed
// state of a session, every window point live.
func newLiveSet(w lattice.Window, full bool) *liveSet {
	n := w.Size()
	ls := &liveSet{win: w, bits: make([]uint64, (n+63)/64), band: map[string]lattice.Point{}}
	if full {
		for i := range ls.bits {
			ls.bits[i] = ^uint64(0)
		}
		if r := n % 64; r != 0 {
			ls.bits[len(ls.bits)-1] = 1<<r - 1
		}
		ls.alive = n
	}
	return ls
}

// clone copies the set, so that it can be read without the session
// lock: the bit words, and the band map, whose points are never mutated
// once stored.
func (ls *liveSet) clone() *liveSet {
	return &liveSet{win: ls.win, bits: slices.Clone(ls.bits), band: maps.Clone(ls.band), alive: ls.alive}
}

// lookup returns p's window index (-1 outside the window) and whether a
// sensor is live there.
func (ls *liveSet) lookup(p lattice.Point) (int, bool) {
	if i, ok := ls.win.IndexOf(p); ok {
		return i, ls.bits[i/64]&(1<<(i%64)) != 0
	}
	_, ok := ls.band[p.Key()]
	return -1, ok
}

// set makes p (window index i, or -1) live or dead. The caller has
// checked that the state changes, so an in-window bit just flips.
func (ls *liveSet) set(i int, p lattice.Point, up bool) {
	switch {
	case i >= 0:
		ls.bits[i/64] ^= 1 << (i % 64)
	case up:
		ls.band[p.Key()] = p.Clone()
	default:
		delete(ls.band, p.Key())
	}
	if up {
		ls.alive++
	} else {
		ls.alive--
	}
}

// each calls f with every live point, window points in IndexOf order
// first, until f returns false. Window points arrive in a shared
// buffer: clone to retain.
func (ls *liveSet) each(f func(p lattice.Point) bool) {
	buf := make(lattice.Point, ls.win.Dim())
	for w, word := range ls.bits {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << b
			if !f(ls.win.PointAtInto(w*64+b, buf)) {
				return
			}
		}
	}
	for _, p := range ls.band {
		if !f(p) {
			return
		}
	}
}

// apply runs a batch with the contract of dynamic.Mutator.Apply: events
// apply in order, each fully or not at all; the batch stops at the
// first bad event with the applied prefix standing; a move checks its
// destination before it removes the source. It returns the disruption
// and every point the applied events touched (changes turns them into
// the batch's deltas).
func (ls *liveSet) apply(events []dynamic.Event) (DisruptionSpec, []lattice.Point, error) {
	var d DisruptionSpec
	touched := make([]lattice.Point, 0, len(events))
	for _, ev := range events {
		i, live := ls.lookup(ev.P)
		switch ev.Kind {
		case dynamic.Join:
			if live {
				return d, touched, fmt.Errorf("%w: join %v: position already hosts a sensor", dynamic.ErrDynamic, ev.P)
			}
			ls.set(i, ev.P, true)
			touched = append(touched, ev.P)
			d.Joined++
		case dynamic.Leave, dynamic.Fail:
			if !live {
				return d, touched, fmt.Errorf("%w: leave %v: no sensor at this position", dynamic.ErrDynamic, ev.P)
			}
			ls.set(i, ev.P, false)
			touched = append(touched, ev.P)
			d.Departed++
		case dynamic.Move:
			j, taken := ls.lookup(ev.To)
			if taken && !ev.To.Equal(ev.P) {
				return d, touched, fmt.Errorf("%w: move to %v: position already hosts a sensor", dynamic.ErrDynamic, ev.To)
			}
			if !live {
				return d, touched, fmt.Errorf("%w: leave %v: no sensor at this position", dynamic.ErrDynamic, ev.P)
			}
			ls.set(i, ev.P, false)
			ls.set(j, ev.To, true)
			touched = append(touched, ev.P, ev.To)
			d.Departed++
			d.Joined++
		default:
			return d, touched, fmt.Errorf("%w: unknown event kind %d", dynamic.ErrDynamic, ev.Kind)
		}
		d.Events++
	}
	return d, touched, nil
}

// revert undoes an applied event prefix, newest first: the state apply
// started from comes back when a batch must apply whole or not at all.
func (ls *liveSet) revert(applied []dynamic.Event) {
	for k := len(applied) - 1; k >= 0; k-- {
		ev := applied[k]
		if ev.Kind == dynamic.Move {
			j, _ := ls.lookup(ev.To)
			ls.set(j, ev.To, false)
		}
		i, live := ls.lookup(ev.P)
		ls.set(i, ev.P, !live)
	}
}

// changes turns a batch's touched points into its deltas: each point
// once, with its post-batch slot under plan, or -1 where no sensor is
// live. Sorting puts in-window points in window-index order (IndexOf is
// lexicographic), and deduping compares coordinates, so no point is
// ever keyed. The points alias the events' coordinates.
func (ls *liveSet) changes(plan *core.Plan, touched []lattice.Point) []ChangeSpec {
	slices.SortFunc(touched, func(a, b lattice.Point) int { return slices.Compare(a, b) })
	touched = slices.CompactFunc(touched, lattice.Point.Equal)
	out := make([]ChangeSpec, len(touched))
	for k, p := range touched {
		out[k] = ChangeSpec{P: p, Slot: -1}
		if _, live := ls.lookup(p); live {
			out[k].Slot = slotOf(plan, p)
		}
	}
	return out
}

// appendAssignment appends every live sensor with its slot under plan
// to dst — the full-resync form of the set. The points share one
// backing array.
func (ls *liveSet) appendAssignment(dst []ChangeSpec, plan *core.Plan) []ChangeSpec {
	coords := make([]int, 0, ls.alive*ls.win.Dim())
	ls.each(func(p lattice.Point) bool {
		off := len(coords)
		coords = append(coords, p...)
		dst = append(dst, ChangeSpec{P: coords[off:len(coords):len(coords)], Slot: slotOf(plan, p)})
		return true
	})
	return dst
}

// frame renders the set in the snapshot grammar: the bounding window of
// the live points (the declared window when none is live) and one slot
// per frame position in IndexOf order, -1 where no sensor is live.
func (ls *liveSet) frame(plan *core.Plan) (lattice.Window, []int32) {
	var lo, hi lattice.Point
	ls.each(func(p lattice.Point) bool {
		if lo == nil {
			lo, hi = p.Clone(), p.Clone()
			return true
		}
		for a := range p {
			lo[a], hi[a] = min(lo[a], p[a]), max(hi[a], p[a])
		}
		return true
	})
	fw := ls.win
	if lo != nil {
		fw = lattice.Window{Lo: lo, Hi: hi}
	}
	slots := make([]int32, fw.Size())
	for i := range slots {
		slots[i] = -1
	}
	ls.each(func(p lattice.Point) bool {
		i, _ := fw.IndexOf(p)
		slots[i] = int32(slotOf(plan, p))
		return true
	})
	return fw, slots
}

// foldFrame rebuilds a session's live set over the declared window w
// from a snapshot frame. stale reports a live slot that is not the
// plan's slot for its point — state written under another slot policy,
// which the caller must re-anchor rather than serve deltas against.
func foldFrame(plan *core.Plan, w lattice.Window, fw lattice.Window, slots []int32) (ls *liveSet, stale bool) {
	ls = newLiveSet(w, false)
	buf := make(lattice.Point, fw.Dim())
	for k, s := range slots {
		if s < 0 {
			continue
		}
		p := fw.PointAtInto(k, buf)
		i, live := ls.lookup(p)
		if !live {
			ls.set(i, p, true)
		}
		if int(s) != slotOf(plan, p) {
			stale = true
		}
	}
	return ls, stale
}

// slotOf is plan.SlotOf for a point whose dimension the decode funnels
// already checked against the plan's.
func slotOf(plan *core.Plan, p lattice.Point) int {
	s, _ := plan.SlotOf(p)
	return s
}
