package lattice

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestWindowBasics(t *testing.T) {
	w, err := NewWindow(Pt(-1, 0), Pt(1, 2))
	if err != nil {
		t.Fatalf("NewWindow: %v", err)
	}
	if w.Size() != 9 {
		t.Errorf("Size = %d, want 9", w.Size())
	}
	if !w.Contains(Pt(0, 1)) || w.Contains(Pt(2, 0)) || w.Contains(Pt(0, 3)) {
		t.Error("Contains wrong")
	}
	if w.Contains(Pt(0)) {
		t.Error("Contains accepted wrong dimension")
	}
}

func TestWindowErrors(t *testing.T) {
	if _, err := NewWindow(Pt(1, 0), Pt(0, 0)); err == nil {
		t.Error("inverted window accepted")
	}
	if _, err := NewWindow(Pt(0), Pt(0, 0)); err == nil {
		t.Error("mismatched dims accepted")
	}
	if _, err := NewWindow(Pt(), Pt()); err == nil {
		t.Error("zero-dimensional window accepted")
	}
	if _, err := BoxWindow(3, 0); err == nil {
		t.Error("BoxWindow with zero side accepted")
	}
}

func TestWindowPointsEnumeration(t *testing.T) {
	w, _ := NewWindow(Pt(0, 0), Pt(1, 2))
	pts := w.Points()
	if len(pts) != w.Size() {
		t.Fatalf("len(Points) = %d, want %d", len(pts), w.Size())
	}
	// Lexicographic and complete.
	seen := NewSet(pts...)
	if seen.Size() != len(pts) {
		t.Error("duplicate points in enumeration")
	}
	for i := 1; i < len(pts); i++ {
		if !pts[i-1].Less(pts[i]) {
			t.Fatalf("points not in order: %v before %v", pts[i-1], pts[i])
		}
	}
	for x := 0; x <= 1; x++ {
		for y := 0; y <= 2; y++ {
			if !seen.Contains(Pt(x, y)) {
				t.Errorf("missing point (%d,%d)", x, y)
			}
		}
	}
}

func TestCenteredWindow(t *testing.T) {
	w := CenteredWindow(3, 2)
	if w.Dim() != 3 {
		t.Fatalf("Dim = %d", w.Dim())
	}
	if w.Size() != 125 {
		t.Errorf("Size = %d, want 125", w.Size())
	}
	if !w.Contains(Pt(-2, 0, 2)) || w.Contains(Pt(3, 0, 0)) {
		t.Error("Contains wrong")
	}
}

func TestBoxWindow(t *testing.T) {
	w, err := BoxWindow(4, 5)
	if err != nil {
		t.Fatalf("BoxWindow: %v", err)
	}
	if w.Size() != 20 {
		t.Errorf("Size = %d, want 20", w.Size())
	}
	if !w.Contains(Pt(0, 0)) || !w.Contains(Pt(3, 4)) || w.Contains(Pt(4, 0)) {
		t.Error("Contains wrong")
	}
}

func TestWindowShrink(t *testing.T) {
	w := CenteredWindow(2, 3)
	s, err := w.Shrink(1)
	if err != nil {
		t.Fatalf("Shrink: %v", err)
	}
	if !s.Contains(Pt(2, 2)) || s.Contains(Pt(3, 0)) {
		t.Error("Shrink wrong")
	}
	if _, err := w.Shrink(4); err == nil {
		t.Error("over-shrink accepted")
	}
}

func TestContainsTranslateOf(t *testing.T) {
	w, _ := BoxWindow(5, 5)
	// A 3x3 set fits anywhere in a 5x5 window.
	block := NewSet()
	for x := 10; x < 13; x++ {
		for y := -2; y < 1; y++ {
			block.Add(Pt(x, y))
		}
	}
	if !w.ContainsTranslateOf(block) {
		t.Error("3x3 set should fit in 5x5 window")
	}
	// A 6-wide set does not.
	wide := NewSet(Pt(0, 0), Pt(5, 0))
	if w.ContainsTranslateOf(wide) {
		t.Error("6-wide set cannot fit in 5x5 window")
	}
	// Exactly filling fits.
	exact := NewSet(Pt(0, 0), Pt(4, 4))
	if !w.ContainsTranslateOf(exact) {
		t.Error("5-wide diagonal pair should fit exactly")
	}
	// Empty set: vacuously false by the documented convention.
	if w.ContainsTranslateOf(NewSet()) {
		t.Error("empty set reported as contained")
	}
}

func TestContainsTranslateOfCrossNPlusN(t *testing.T) {
	// The cross's N+N spans a 5x5 bounding box: the 5x5 window contains
	// a translate, the 4x4 does not (the Conclusions threshold used by
	// experiment E5).
	cross := NewSet(Pt(0, 0), Pt(1, 0), Pt(-1, 0), Pt(0, 1), Pt(0, -1))
	nn := cross.MinkowskiSum(cross)
	w5, _ := BoxWindow(5, 5)
	w4, _ := BoxWindow(4, 4)
	if !w5.ContainsTranslateOf(nn) {
		t.Error("5x5 window should contain N+N of the cross")
	}
	if w4.ContainsTranslateOf(nn) {
		t.Error("4x4 window cannot contain N+N of the cross")
	}
}

func TestWindowContainsSet(t *testing.T) {
	w := CenteredWindow(2, 1)
	if !w.ContainsSet(NewSet(Pt(0, 0), Pt(1, 1))) {
		t.Error("ContainsSet = false, want true")
	}
	if w.ContainsSet(NewSet(Pt(0, 0), Pt(2, 0))) {
		t.Error("ContainsSet = true, want false")
	}
}

// TestWindowStringPinned pins Window.String and AppendString to the fmt
// rendering they replaced, "[%s .. %s]" over "(x, y, …)" points built
// with strings.Join. Session keys embed this text, persisted session
// files are named by its hash, and /statusz shows it, so it must not
// change by a byte.
func TestWindowStringPinned(t *testing.T) {
	fmtPoint := func(p Point) string {
		parts := make([]string, len(p))
		for i, c := range p {
			parts[i] = strconv.Itoa(c)
		}
		return "(" + strings.Join(parts, ", ") + ")"
	}
	cases := []struct {
		lo, hi Point
		want   string
	}{
		{Pt(-1, 0), Pt(3, 4), "[(-1, 0) .. (3, 4)]"},
		{Pt(-256, -256), Pt(-1, -1), "[(-256, -256) .. (-1, -1)]"},
		{Pt(7), Pt(9), "[(7) .. (9)]"},
		{Pt(-5), Pt(-5), "[(-5) .. (-5)]"},
		{Pt(0, -1, 2), Pt(10, 11, 12), "[(0, -1, 2) .. (10, 11, 12)]"},
		{Pt(math.MinInt, 0), Pt(math.MaxInt, 0), "[(" + strconv.Itoa(math.MinInt) + ", 0) .. (" + strconv.Itoa(math.MaxInt) + ", 0)]"},
	}
	for _, c := range cases {
		w, err := NewWindow(c.lo, c.hi)
		if err != nil {
			t.Fatal(err)
		}
		ref := fmt.Sprintf("[%s .. %s]", fmtPoint(c.lo), fmtPoint(c.hi))
		if ref != c.want {
			t.Fatalf("reference %q ≠ literal %q", ref, c.want)
		}
		if got := w.String(); got != ref {
			t.Errorf("String() = %q, want %q", got, ref)
		}
		if got := string(w.AppendString([]byte("sig|"))); got != "sig|"+ref {
			t.Errorf("AppendString = %q, want %q", got, "sig|"+ref)
		}
		if got := c.lo.String(); got != fmtPoint(c.lo) {
			t.Errorf("Point.String() = %q, want %q", got, fmtPoint(c.lo))
		}
	}
}
