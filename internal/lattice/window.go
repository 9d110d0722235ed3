package lattice

import (
	"fmt"
	"math"
)

// Window is an axis-aligned box of coordinates, inclusive on both ends:
// {p : Lo_i ≤ p_i ≤ Hi_i}. Windows model the finite deployment regions D
// from the paper's Conclusions.
type Window struct {
	Lo, Hi Point
}

// NewWindow builds a window from inclusive corners, validating shape.
func NewWindow(lo, hi Point) (Window, error) {
	if len(lo) != len(hi) {
		return Window{}, fmt.Errorf("lattice: window corners have dimensions %d and %d", len(lo), len(hi))
	}
	if len(lo) == 0 {
		return Window{}, fmt.Errorf("lattice: zero-dimensional window")
	}
	for i := range lo {
		if lo[i] > hi[i] {
			return Window{}, fmt.Errorf("lattice: window corner %d inverted: %d > %d", i, lo[i], hi[i])
		}
	}
	return Window{Lo: lo.Clone(), Hi: hi.Clone()}, nil
}

// CenteredWindow returns the window [-r, r]^dim.
func CenteredWindow(dim, r int) Window {
	lo := make(Point, dim)
	hi := make(Point, dim)
	for i := range lo {
		lo[i], hi[i] = -r, r
	}
	return Window{Lo: lo, Hi: hi}
}

// BoxWindow returns the window [0, n_i-1] in each axis for side lengths n.
func BoxWindow(sides ...int) (Window, error) {
	lo := make(Point, len(sides))
	hi := make(Point, len(sides))
	for i, n := range sides {
		if n <= 0 {
			return Window{}, fmt.Errorf("lattice: window side %d is %d, want > 0", i, n)
		}
		hi[i] = n - 1
	}
	return NewWindow(lo, hi)
}

// Dim returns the window's dimension.
func (w Window) Dim() int { return len(w.Lo) }

// Size returns the number of lattice points in the window, saturating at
// math.MaxInt when the true count does not fit in an int. Callers that
// must distinguish a huge window from an unrepresentable one should use
// SizeChecked.
func (w Window) Size() int {
	n, err := w.SizeChecked()
	if err != nil {
		return math.MaxInt
	}
	return n
}

// SizeChecked returns the number of lattice points in the window, or an
// error when that count overflows an int (possible for large or
// high-dimensional windows, whose side product grows geometrically).
func (w Window) SizeChecked() (int, error) {
	n := 1
	for i := range w.Lo {
		side := w.Hi[i] - w.Lo[i] + 1
		if side <= 0 {
			// Hi - Lo itself overflowed (e.g. Lo near MinInt, Hi near
			// MaxInt); the true side length exceeds MaxInt.
			return 0, fmt.Errorf("lattice: window side %d overflows int", i)
		}
		if n > math.MaxInt/side {
			return 0, fmt.Errorf("lattice: window size overflows int (%d sides in, partial product %d × side %d)", i+1, n, side)
		}
		n *= side
	}
	return n, nil
}

// IndexOf returns the dense index of p in the window's lexicographic point
// order — the mixed-radix number with digit p_i - Lo_i in base
// Hi_i - Lo_i + 1 — and whether p lies in the window. It is the inverse of
// PointAt and allocates nothing, so it replaces string-keyed maps on hot
// lookup paths.
func (w Window) IndexOf(p Point) (int, bool) {
	if len(p) != len(w.Lo) {
		return 0, false
	}
	idx := 0
	for i, c := range p {
		if c < w.Lo[i] || c > w.Hi[i] {
			return 0, false
		}
		idx = idx*(w.Hi[i]-w.Lo[i]+1) + (c - w.Lo[i])
	}
	return idx, true
}

// PointAt returns the i-th point of the window in lexicographic order,
// inverting IndexOf. It panics when i is outside [0, Size()).
func (w Window) PointAt(i int) Point {
	return w.PointAtInto(i, make(Point, len(w.Lo)))
}

// PointAtInto is PointAt writing into dst, which must have length Dim();
// it returns dst. Use it to walk a window without per-point allocation.
func (w Window) PointAtInto(i int, dst Point) Point {
	if i < 0 {
		panic(fmt.Sprintf("lattice: window index %d out of range", i))
	}
	if len(dst) != len(w.Lo) {
		panic(fmt.Sprintf("lattice: PointAtInto buffer has dimension %d, want %d", len(dst), len(w.Lo)))
	}
	for a := len(w.Lo) - 1; a >= 0; a-- {
		side := w.Hi[a] - w.Lo[a] + 1
		dst[a] = w.Lo[a] + i%side
		i /= side
	}
	if i != 0 {
		panic("lattice: window index out of range")
	}
	return dst
}

// Each calls f for every window point in lexicographic order until f
// returns false. The point passed to f is a shared buffer that is reused
// between calls: callers must Clone it before retaining it. Each visits
// the same sequence as Points without materializing it.
func (w Window) Each(f func(p Point) bool) {
	cur := w.Lo.Clone()
	for {
		if !f(cur) {
			return
		}
		i := len(cur) - 1
		for i >= 0 {
			cur[i]++
			if cur[i] <= w.Hi[i] {
				break
			}
			cur[i] = w.Lo[i]
			i--
		}
		if i < 0 {
			return
		}
	}
}

// Contains reports whether p lies in the window.
func (w Window) Contains(p Point) bool {
	if len(p) != len(w.Lo) {
		return false
	}
	for i, c := range p {
		if c < w.Lo[i] || c > w.Hi[i] {
			return false
		}
	}
	return true
}

// ContainsSet reports whether every point of s lies in the window.
func (w Window) ContainsSet(s *Set) bool {
	for _, p := range s.Points() {
		if !w.Contains(p) {
			return false
		}
	}
	return true
}

// Points enumerates the window's points in lexicographic order.
func (w Window) Points() []Point {
	out := make([]Point, 0, w.Size())
	cur := w.Lo.Clone()
	for {
		out = append(out, cur.Clone())
		i := len(cur) - 1
		for i >= 0 {
			cur[i]++
			if cur[i] <= w.Hi[i] {
				break
			}
			cur[i] = w.Lo[i]
			i--
		}
		if i < 0 {
			break
		}
	}
	return out
}

// Shrink returns the window shrunk by margin on every side; used to find
// interior points whose whole neighborhood stays inside the window.
func (w Window) Shrink(margin int) (Window, error) {
	lo := w.Lo.Clone()
	hi := w.Hi.Clone()
	for i := range lo {
		lo[i] += margin
		hi[i] -= margin
	}
	return NewWindow(lo, hi)
}

// ContainsTranslateOf reports whether some translate v + s of the set fits
// entirely inside the window. The paper's Conclusions show a finite
// deployment region keeps the tiling schedule optimal exactly when it
// contains a translate of N + N.
func (w Window) ContainsTranslateOf(s *Set) bool {
	lo, hi, err := s.BoundingBox()
	if err != nil {
		return false // empty set: vacuously false, matching "no sensors"
	}
	// v must satisfy w.Lo ≤ v + lo and v + hi ≤ w.Hi; because the window
	// is a box and the set's bounding box determines feasibility, any v
	// in that range works for the bounding box, but the set itself is a
	// subset of its box, so one candidate suffices.
	v := w.Lo.Sub(lo)
	for i := range v {
		if v[i]+hi[i] > w.Hi[i] {
			return false
		}
	}
	return true
}

// String renders the window as "[lo .. hi]".
func (w Window) String() string { return string(w.AppendString(nil)) }

// AppendString appends the window's String form to dst and returns the
// extended buffer, without fmt or intermediate strings.
func (w Window) AppendString(dst []byte) []byte {
	dst = append(dst, '[')
	dst = w.Lo.AppendString(dst)
	dst = append(dst, " .. "...)
	dst = w.Hi.AppendString(dst)
	return append(dst, ']')
}
