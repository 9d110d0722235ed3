package service

// Fuzz targets for the binary decode funnels (binary.go,
// binary_mutate.go) — the binary twins of wire_fuzz_test.go. The
// funnels face unauthenticated bytes, so whatever the input they must
// return an error — never panic — and anything they accept must respect
// the documented limits. CI runs each target for a 10s smoke.

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"tilingsched/internal/dynamic"
	"tilingsched/internal/lattice"
	"tilingsched/internal/service/binwire"
)

// binarySeed renders a valid encoded request for the seed corpus.
func binarySeed(build func(e *binwire.Buffer)) []byte {
	var e binwire.Buffer
	build(&e)
	return e.Bytes()
}

// FuzzDecodeBinaryBatch checks that binary batch decoding never panics,
// that it decodes exactly as referenceBinaryBatch does (the same accept
// or reject, error class and request), and that every accepted request
// satisfies the same structural contract as the JSON funnel: exactly
// one of points/window, batch within MaxBatch, window expansion within
// MaxWindow, uniform point dimension within the tile bound.
func FuzzDecodeBinaryBatch(f *testing.F) {
	points := func(pts ...[]int) []byte {
		return binarySeed(func(e *binwire.Buffer) {
			EncodeBatchBinary(e, BatchRequest{Points: pts}, false, "s")
		})
	}
	// rawPoints frames a one-coordinate batch whose payload ends in raw.
	rawPoints := func(raw ...byte) []byte {
		return binarySeed(func(e *binwire.Buffer) {
			e.BeginFrame(binwire.FrameBatchSlots)
			e.Byte(1) // plan tag: signature
			e.String("s")
			e.Byte(0) // query tag: explicit points
			e.Uvarint(1)
			e.Uvarint(1)
			e.Raw(raw)
			e.EndFrame()
		})
	}
	seeds := [][]byte{
		points([]int{0, 0}, []int{1, -1}, []int{-63, 63}),                        // 1-byte varints
		points([]int{0, 0}, []int{1000, -1000}, []int{-7000, 8000}),              // 2-byte
		points([]int{0, 0}, []int{100000, -100000}, []int{0, 1 << 20}),           // 3-byte
		points([]int{math.MaxInt, math.MinInt}, []int{math.MinInt, math.MaxInt}), // 10-byte, deltas that wrap int
		points([]int{math.MaxInt}, []int{math.MinInt}, []int{math.MaxInt}),       // deltas that wrap int
		rawPoints(0x80, 0x00),       // non-minimal
		rawPoints(0x80),             // cut inside a varint
		rawPoints(0xff, 0xff, 0xff), // cut inside a 4-byte varint
		rawPoints(0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02), // overlong
		rawPoints(0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01), // 10-byte maximum
		binarySeed(func(e *binwire.Buffer) {
			EncodeBatchBinary(e, BatchRequest{
				Plan:   PlanSpec{Tile: TileSpec{Name: "cross:2:1"}},
				Points: [][]int{{3, 4}, {0, 0}},
			}, false, "")
		}),
		binarySeed(func(e *binwire.Buffer) {
			EncodeBatchBinary(e, BatchRequest{
				Plan:   PlanSpec{Lattice: "square", Tile: TileSpec{Name: "rect:4:2"}},
				Window: &WindowSpec{Lo: []int{-4, -4}, Hi: []int{4, 4}},
			}, false, "")
		}),
		binarySeed(func(e *binwire.Buffer) {
			EncodeBatchBinary(e, BatchRequest{
				Plan:   PlanSpec{Tile: TileSpec{Points: [][]int{{0, 0}, {1, 0}}}},
				Points: [][]int{{1, 7}},
				T:      -12345,
			}, true, "")
		}),
		binarySeed(func(e *binwire.Buffer) {
			EncodeBatchBinary(e, BatchRequest{Points: [][]int{{9}}}, true, "square|cross:2:1")
		}),
		binarySeed(func(e *binwire.Buffer) { // wrong frame type for the funnel
			e.BeginFrame(binwire.FrameMutate)
			e.Uvarint(0)
			e.EndFrame()
		}),
		{0, 0, 0, 0}, {1, 0, 0, 0, 0x01}, []byte("not a frame"), {},
	}
	for _, s := range seeds {
		f.Add(s, 8, 64)
	}
	f.Fuzz(func(t *testing.T, data []byte, maxBatch, maxWindow int) {
		lim := Limits{MaxBatch: maxBatch, MaxWindow: maxWindow}.withDefaults()
		var sc BinScratch
		req, err := DecodeBinaryBatch(data, Limits{MaxBatch: maxBatch, MaxWindow: maxWindow}, &sc)
		ref, refErr := referenceBinaryBatch(data, lim)
		if (err == nil) != (refErr == nil) || errors.Is(err, ErrSpec) != errors.Is(refErr, ErrSpec) ||
			errors.Is(err, ErrLimit) != errors.Is(refErr, ErrLimit) {
			t.Fatalf("decode %x: err %v, reference err %v", data, err, refErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(req, ref) {
			t.Fatalf("decode %x: %+v, reference %+v", data, req, ref)
		}
		if req.Kind != binwire.FrameBatchSlots && req.Kind != binwire.FrameBatchMay {
			t.Fatalf("accepted kind %#x", req.Kind)
		}
		hasPoints := len(req.Points) > 0
		if hasPoints == req.UseWindow {
			t.Fatalf("accepted request with points=%v window=%v", hasPoints, req.UseWindow)
		}
		if hasPoints {
			if len(req.Points) > lim.MaxBatch {
				t.Fatalf("accepted batch of %d over limit %d", len(req.Points), lim.MaxBatch)
			}
			dim := len(req.Points[0])
			if dim < 1 || dim > maxTileDim {
				t.Fatalf("accepted point dimension %d", dim)
			}
			for i, p := range req.Points {
				if len(p) != dim {
					t.Fatalf("point %d has dimension %d ≠ %d", i, len(p), dim)
				}
			}
		} else {
			size, serr := req.Window.SizeChecked()
			if serr != nil || size > lim.MaxWindow {
				t.Fatalf("accepted window of %d points (err %v) over limit %d", size, serr, lim.MaxWindow)
			}
		}
	})
}

// referenceBinaryBatch is DecodeBinaryBatch with the point block read
// one Reader.Varint per coordinate, each row added to the row before
// it. It grows the rows as it reads them instead of sizing them from
// the count, so a count the payload cannot hold fails on its first
// missing byte.
func referenceBinaryBatch(data []byte, lim Limits) (BinBatch, error) {
	stream := binwire.NewReader(data)
	typ, r := stream.Frame()
	stream.Done()
	if stream.Err() != nil {
		return BinBatch{}, failSpec(&stream)
	}
	if typ != binwire.FrameBatchSlots && typ != binwire.FrameBatchMay {
		return BinBatch{}, fmt.Errorf("%w: frame type %#x is not a batch request", ErrSpec, typ)
	}
	req := BinBatch{Kind: typ}
	var err error
	if req.Plan, err = decodePlanRef(&r); err != nil {
		return BinBatch{}, err
	}
	switch qt := r.Byte(); qt {
	case 0:
		count := r.Uvarint()
		if r.Err() == nil && count > uint64(lim.MaxBatch) {
			return BinBatch{}, fmt.Errorf("%w: batch of %d points exceeds limit %d", ErrLimit, count, lim.MaxBatch)
		}
		dim := r.Count(maxTileDim, "point dimension")
		if r.Err() == nil && (count == 0 || dim == 0) {
			return BinBatch{}, fmt.Errorf("%w: empty point batch", ErrSpec)
		}
		var prev lattice.Point
		for i := uint64(0); i < count && r.Err() == nil; i++ {
			row := make(lattice.Point, dim)
			for a := range row {
				row[a] = int(r.Varint())
				if prev != nil {
					row[a] += prev[a]
				}
			}
			req.Points = append(req.Points, row)
			prev = row
		}
	case 1:
		var werr error
		if req.Window, werr = decodeWindow(&r, lim.MaxWindow, nil); werr != nil {
			return BinBatch{}, werr
		}
		req.UseWindow = true
	default:
		if r.Err() == nil {
			return BinBatch{}, fmt.Errorf("%w: unknown query tag %d", ErrSpec, qt)
		}
	}
	if typ == binwire.FrameBatchMay {
		req.T = r.Varint()
	}
	r.Done()
	if r.Err() != nil {
		return BinBatch{}, failSpec(&r)
	}
	return req, nil
}

// FuzzDecodeBinaryMutate checks the binary mutate funnel: never panic,
// and every accepted request has a bounded window, a bounded event
// list, and only well-formed in-margin events.
func FuzzDecodeBinaryMutate(f *testing.F) {
	stale := uint64(3)
	seeds := [][]byte{
		binarySeed(func(e *binwire.Buffer) {
			_ = EncodeMutateBinary(e, MutateRequest{
				Plan:   PlanSpec{Tile: TileSpec{Name: "cross:2:1"}},
				Window: WindowSpec{Lo: []int{0, 0}, Hi: []int{4, 4}},
				Events: []EventSpec{{Op: "leave", P: []int{1, 1}}},
			}, "")
		}),
		binarySeed(func(e *binwire.Buffer) {
			_ = EncodeMutateBinary(e, MutateRequest{
				Window: WindowSpec{Lo: []int{0, 0}, Hi: []int{4, 4}},
				Events: []EventSpec{{Op: "move", P: []int{0, 0}, To: []int{5, 5}}},
				Epoch:  &stale,
			}, "")
		}),
		binarySeed(func(e *binwire.Buffer) {
			_ = EncodeMutateBinary(e, MutateRequest{
				Window: WindowSpec{Lo: []int{0, 0}, Hi: []int{4, 4}},
				Full:   true,
			}, "square|cross:2:1")
		}),
		binarySeed(func(e *binwire.Buffer) { // out-of-margin event
			_ = EncodeMutateBinary(e, MutateRequest{
				Window: WindowSpec{Lo: []int{0, 0}, Hi: []int{4, 4}},
				Events: []EventSpec{{Op: "join", P: []int{100000, 0}}},
			}, "")
		}),
		{0, 0, 0, 0}, []byte("not a frame"), {},
	}
	for _, s := range seeds {
		f.Add(s, 8, 64)
	}
	f.Fuzz(func(t *testing.T, data []byte, maxBatch, maxWindow int) {
		lim := Limits{MaxBatch: maxBatch, MaxWindow: maxWindow}.withDefaults()
		req, err := DecodeBinaryMutate(data, Limits{MaxBatch: maxBatch, MaxWindow: maxWindow})
		if err != nil {
			return
		}
		win := req.Window
		if size, serr := win.SizeChecked(); serr != nil || size > lim.MaxWindow {
			t.Fatalf("accepted window %s over limit %d", win, lim.MaxWindow)
		}
		if len(req.Events) > lim.MaxBatch {
			t.Fatalf("accepted %d events over limit %d", len(req.Events), lim.MaxBatch)
		}
		if len(req.Events) == 0 && !req.Full {
			t.Fatal("accepted an empty non-full request")
		}
		for i, ev := range req.Events {
			if ev.P.Dim() != win.Dim() {
				t.Fatalf("event %d dimension %d ≠ window %d", i, ev.P.Dim(), win.Dim())
			}
			check := func(p []int) {
				for a := range p {
					if p[a] < win.Lo[a]-MutateMargin || p[a] > win.Hi[a]+MutateMargin {
						t.Fatalf("event %d outside margin: %v in %s", i, p, win)
					}
				}
			}
			check(ev.P)
			if ev.Kind == dynamic.Move {
				if ev.To.Dim() != win.Dim() {
					t.Fatalf("event %d destination dimension %d ≠ window %d", i, ev.To.Dim(), win.Dim())
				}
				check(ev.To)
			}
		}
	})
}
