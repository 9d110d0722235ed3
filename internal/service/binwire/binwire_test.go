package binwire

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
)

func TestZigzagRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 2, -2, 63, -64, 1 << 40, -(1 << 40), math.MaxInt64, math.MinInt64} {
		if got := Unzigzag(Zigzag(v)); got != v {
			t.Fatalf("Unzigzag(Zigzag(%d)) = %d", v, got)
		}
	}
	// Small magnitudes must stay small (the compression property the
	// point encodings rely on).
	if Zigzag(0) != 0 || Zigzag(-1) != 1 || Zigzag(1) != 2 || Zigzag(-2) != 3 {
		t.Fatalf("zigzag ordering broken: %d %d %d %d", Zigzag(0), Zigzag(-1), Zigzag(1), Zigzag(-2))
	}
}

func TestFrameRoundTrip(t *testing.T) {
	e := Get()
	defer Put(e)
	e.BeginFrame(FrameSlotsHead)
	e.Uvarint(5)
	e.Varint(-12345)
	e.String("cross:2:1")
	e.Byte(0xAB)
	e.EndFrame()
	e.BeginFrame(FrameEnd)
	e.EndFrame()

	r := NewReader(e.Bytes())
	typ, pay := r.Frame()
	if typ != FrameSlotsHead {
		t.Fatalf("frame type %#x, want %#x", typ, FrameSlotsHead)
	}
	if got := pay.Uvarint(); got != 5 {
		t.Fatalf("uvarint %d, want 5", got)
	}
	if got := pay.Varint(); got != -12345 {
		t.Fatalf("varint %d, want -12345", got)
	}
	if got := pay.String(64); got != "cross:2:1" {
		t.Fatalf("string %q", got)
	}
	if got := pay.Byte(); got != 0xAB {
		t.Fatalf("byte %#x", got)
	}
	pay.Done()
	if pay.Err() != nil {
		t.Fatalf("payload err: %v", pay.Err())
	}
	typ, pay = r.Frame()
	if typ != FrameEnd || pay.Remaining() != 0 {
		t.Fatalf("end frame: type %#x remaining %d", typ, pay.Remaining())
	}
	if r.Remaining() != 0 || r.Err() != nil {
		t.Fatalf("stream not fully consumed: %d left, err %v", r.Remaining(), r.Err())
	}
}

func TestReaderStickyError(t *testing.T) {
	r := NewReader([]byte{0x80}) // truncated uvarint
	if r.Uvarint() != 0 || r.Err() == nil {
		t.Fatal("truncated uvarint accepted")
	}
	// Every later read stays failed and returns zero values.
	if r.Byte() != 0 || r.String(8) != "" || r.Remaining() != 0 {
		t.Fatal("reads after failure not zeroed")
	}
	if !errors.Is(r.Err(), ErrMalformed) {
		t.Fatalf("err %v does not wrap ErrMalformed", r.Err())
	}
}

func TestReaderBounds(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		read func(r *Reader)
	}{
		{"frame header short", []byte{1, 0, 0}, func(r *Reader) { r.Frame() }},
		{"frame length zero", []byte{0, 0, 0, 0, 0}, func(r *Reader) { r.Frame() }},
		{"frame length past end", []byte{9, 0, 0, 0, FrameEnd}, func(r *Reader) { r.Frame() }},
		{"string past end", []byte{5, 'h', 'i'}, func(r *Reader) { r.String(64) }},
		{"string over bound", []byte{7, 'x'}, func(r *Reader) { r.String(3) }},
		{"count over bound", []byte{200, 1}, func(r *Reader) { r.Count(100, "n") }},
		{"trailing garbage", []byte{0, 0}, func(r *Reader) { r.Byte(); r.Done() }},
		{"overlong varint", bytes.Repeat([]byte{0x80}, 11), func(r *Reader) { r.Uvarint() }},
		{"non-minimal varint", []byte{0x80, 0x00}, func(r *Reader) { r.Uvarint() }},
		{"non-minimal varint long", []byte{0xFF, 0x80, 0x00}, func(r *Reader) { r.Uvarint() }},
	}
	for _, c := range cases {
		r := NewReader(c.data)
		c.read(&r)
		if !errors.Is(r.Err(), ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", c.name, r.Err())
		}
	}
}

// TestDeltasMatchVarint checks Reader.Deltas against one Varint per
// value, each added to the value dim places before it: the same values,
// the same offset, and the same failure for every encoding length and
// for truncated, overlong and non-minimal values, which its inline one-
// and two-byte paths must send on to Uvarint.
func TestDeltasMatchVarint(t *testing.T) {
	var e Buffer
	for _, v := range []int64{0, -1, 63, -64, 64, 8191, -8192, 8192, 1 << 20, math.MaxInt64, math.MinInt64, 5} {
		e.Varint(v)
	}
	valid := e.Bytes()
	streams := [][]byte{
		valid,
		append([]byte{0x02}, 0x80, 0x00), // non-minimal two-byte zero
		{0x02, 0xff, 0x80, 0x00},         // non-minimal three-byte
		{0x02, 0x80},                     // cut inside a two-byte value
		{0x02, 0xff, 0xff},               // cut inside a three-byte value
		append([]byte{0x02}, bytes.Repeat([]byte{0xff}, 10)...), // overlong
		{0x02}, // cut before a value
	}
	for _, data := range streams {
		for _, dim := range []int{1, 2, 3} {
			want := make([]int, 12)
			ref := NewReader(data)
			for k := range want {
				want[k] = int(ref.Varint())
				if k >= dim {
					want[k] += want[k-dim]
				}
				if ref.Err() != nil {
					break
				}
			}
			got := make([]int, len(want))
			r := NewReader(data)
			r.Deltas(got, dim)
			if fmt.Sprint(r.Err()) != fmt.Sprint(ref.Err()) || r.Remaining() != ref.Remaining() {
				t.Errorf("% x dim %d: err %v, %d left; reference err %v, %d left", data, dim, r.Err(), r.Remaining(), ref.Err(), ref.Remaining())
			} else if r.Err() == nil && !slices.Equal(got, want) {
				t.Errorf("% x dim %d: %v, want %v", data, dim, got, want)
			}
		}
	}
}

// TestUvarintMaxRoundTrip pins that the minimality check does not
// reject the canonical 10-byte encoding of the largest uint64.
func TestUvarintMaxRoundTrip(t *testing.T) {
	var e Buffer
	e.Uvarint(math.MaxUint64)
	r := NewReader(e.Bytes())
	if got := r.Uvarint(); got != math.MaxUint64 || r.Err() != nil {
		t.Fatalf("max uint64 round trip: %d, err %v", got, r.Err())
	}
}

func TestCountNegativeMax(t *testing.T) {
	r := NewReader([]byte{1})
	if r.Count(-5, "n"); r.Err() == nil {
		t.Fatal("count 1 accepted under negative bound")
	}
}

func TestBufferReuse(t *testing.T) {
	e := Get()
	e.BeginFrame(FrameError)
	e.Uvarint(400)
	e.String("boom")
	e.EndFrame()
	n := e.Len()
	Put(e)
	e2 := Get()
	defer Put(e2)
	if e2.Len() != 0 {
		t.Fatalf("pooled buffer not reset: len %d (was %d)", e2.Len(), n)
	}
}

func TestUnknownFrameSkippable(t *testing.T) {
	e := Get()
	defer Put(e)
	e.BeginFrame(0x60) // unknown type
	e.Uvarint(99)
	e.EndFrame()
	e.BeginFrame(FrameEnd)
	e.EndFrame()
	r := NewReader(e.Bytes())
	typ, _ := r.Frame() // skip unknown payload wholesale
	if typ != 0x60 {
		t.Fatalf("type %#x", typ)
	}
	typ, _ = r.Frame()
	if typ != FrameEnd || r.Err() != nil {
		t.Fatalf("skip landed on %#x, err %v", typ, r.Err())
	}
}
