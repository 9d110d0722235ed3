package service

import (
	"fmt"

	"tilingsched/internal/core"
	"tilingsched/internal/lattice"
)

// The batch engine answers many slot queries against one compiled plan.
// Results are appended to a caller-supplied destination slice (pass
// dst[:0] to reuse its backing array), so a warm caller performs zero
// allocations per query: each lookup is the closed-form Smith index —
// one dot product and one mod per invariant factor above 1, a single
// one of each for every cyclic quotient — plus one dense table read (see
// internal/tiling's cosetTable). The slot function served is the one
// core certified when the plan was compiled. Compiled plans are
// immutable after construction, making every function here safe for
// any number of concurrent readers of the same plan.
//
// The server walks the engine once per batch, for slots, whichever
// endpoint asked: a may-broadcast answer is a function of the slot
// answer (slot == t mod m, slotAt), so the codecs encode its flags from
// the slot run. QueryMayBroadcast and QueryWindowMayBroadcast answer
// the same question for library callers, and are the reference the
// server's may encoders are tested against.

// QuerySlots appends the slot of each point to dst and returns it.
// On error (a point of the wrong dimension) the partial dst is returned
// alongside the error; entries already appended remain valid.
func QuerySlots(p *core.Plan, pts []lattice.Point, dst []int32) ([]int32, error) {
	for _, pt := range pts {
		s, err := p.SlotOf(pt)
		if err != nil {
			return dst, err
		}
		dst = append(dst, int32(s))
	}
	return dst, nil
}

// QueryWindowSlots appends the slot of every window point, in the
// window's lexicographic point order (Window.IndexOf order), to dst.
func QueryWindowSlots(p *core.Plan, w lattice.Window, dst []int32) ([]int32, error) {
	if w.Dim() != p.Tile().Dim() {
		return dst, fmt.Errorf("service: window dimension %d ≠ plan dimension %d", w.Dim(), p.Tile().Dim())
	}
	var err error
	w.Each(func(pt lattice.Point) bool {
		var s int
		s, err = p.SlotOf(pt)
		if err != nil {
			return false
		}
		dst = append(dst, int32(s))
		return true
	})
	return dst, err
}

// QueryMayBroadcast appends, for each point, whether its sensor may
// broadcast at time t (t ≡ slot (mod m)) to dst and returns it.
func QueryMayBroadcast(p *core.Plan, pts []lattice.Point, t int64, dst []bool) ([]bool, error) {
	r := slotAt(p.Slots(), t)
	for _, pt := range pts {
		s, err := p.SlotOf(pt)
		if err != nil {
			return dst, err
		}
		dst = append(dst, int32(s) == r)
	}
	return dst, nil
}

// QueryWindowMayBroadcast is QueryMayBroadcast over every window point
// in lexicographic order.
func QueryWindowMayBroadcast(p *core.Plan, w lattice.Window, t int64, dst []bool) ([]bool, error) {
	if w.Dim() != p.Tile().Dim() {
		return dst, fmt.Errorf("service: window dimension %d ≠ plan dimension %d", w.Dim(), p.Tile().Dim())
	}
	r := slotAt(p.Slots(), t)
	var err error
	w.Each(func(pt lattice.Point) bool {
		var s int
		s, err = p.SlotOf(pt)
		if err != nil {
			return false
		}
		dst = append(dst, int32(s) == r)
		return true
	})
	return dst, err
}

// QueryWindowSlotsChunked answers a window slot query in runs of at
// most chunk values, invoking emit with each filled run in the
// window's lexicographic point order. The buf slice (grown to chunk
// capacity once) is reused for every run, so the answer to an
// arbitrarily large window never materializes in memory at once — the
// streaming backbone of the binary wire protocol's chunked responses.
// emit returning false abandons the query (e.g. the client hung up).
func QueryWindowSlotsChunked(p *core.Plan, w lattice.Window, chunk int, buf []int32, emit func([]int32) bool) error {
	if w.Dim() != p.Tile().Dim() {
		return fmt.Errorf("service: window dimension %d ≠ plan dimension %d", w.Dim(), p.Tile().Dim())
	}
	if chunk <= 0 {
		chunk = 1
	}
	buf = buf[:0]
	var err error
	w.Each(func(pt lattice.Point) bool {
		var s int
		s, err = p.SlotOf(pt)
		if err != nil {
			return false
		}
		buf = append(buf, int32(s))
		if len(buf) == chunk {
			if !emit(buf) {
				return false
			}
			buf = buf[:0]
		}
		return true
	})
	if err != nil {
		return err
	}
	if len(buf) > 0 {
		emit(buf)
	}
	return nil
}

// slotAt returns the active slot at time t under m slots: t mod m,
// normalized into [0, m). A sensor may broadcast at t exactly when its
// slot equals it.
func slotAt(m int, t int64) int32 {
	return int32(((t % int64(m)) + int64(m)) % int64(m))
}
