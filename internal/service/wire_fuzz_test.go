package service

// Native fuzz targets for the wire-level decoding funnel (wire.go): the
// decoders face unauthenticated bytes, so whatever the input they must
// return an error — never panic — and anything they accept must respect
// the documented limits. CI runs each target for a 10s smoke
// (-fuzztime); longer local runs grow the corpus under testdata/fuzz.

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"tilingsched/internal/lattice"
)

// FuzzDecodeBatchRequest checks that batch decoding never panics, that
// every accepted request satisfies the structural contract (exactly one
// of points/window, batch within MaxBatch, window expansion within
// MaxWindow), and that wherever the canonical scanner takes a body the
// funnel returns exactly what the encoding/json reference does: the
// same request and window, or the same error.
func FuzzDecodeBatchRequest(f *testing.F) {
	seeds := []string{
		`{"plan":{"tile":{"name":"cross:2:1"}},"points":[[3,4],[0,0]]}`,
		`{"plan":{"tile":{"name":"cross:2:1"}},"window":{"lo":[-4,-4],"hi":[4,4]}}`,
		`{"plan":{"tile":{"points":[[0,0],[1,0]]}},"points":[[1]],"t":12345}`,
		`{"points":[[0,0]],"window":{"lo":[0],"hi":[0]}}`, // both set
		`{"plan":{}}`,                                            // neither set
		`{"window":{"lo":[4],"hi":[-4]}}`,                        // inverted corners
		`{"window":{"lo":[0,0],"hi":[9]}}`,                       // mismatched dims
		`{"window":{"lo":[-1000000000],"hi":[1000000000]}}`,      // huge expansion
		`{"window":{"lo":[-9e18,-9e18],"hi":[9e18,9e18]}}`,       // overflow sizes
		`{"points":[` + strings.Repeat(`[0,0],`, 64) + `[0,0]]}`, // 65 points
		`{"points":[null,[]]}`,                                   // degenerate points
		`{"plan":{"tile":{"name":"cross:2:1"}},"points":[[3,4]],"t":-1}`,
		`not json`, `{"window":`, `[]`, `42`, `{}`,
		// The scanner's edge and deferral cases.
		` { "points" : [ [ 1 , -2 ] , [ ] ] , "t" : 9 } ` + "\n",
		`{"p\u006fints":[[1,2]]}`,           // escaped key
		`{"Points":[[1,2]]}`,                // case-variant key
		`{"points":[[1,2]],"points":[[3]]}`, // duplicate key
		`{"points":[[1,2]],"extra":1}`,      // unknown key
		`{"points":[[1.0,2]]}`,              // fraction
		`{"points":[[1e2,2]]}`,              // exponent
		`{"points":[[-0,-1]]}`,              // negative zero
		`{"points":[[01]]}`,                 // leading zero
		`{"points":[[9223372036854775807,-9223372036854775808]]}`,
		`{"points":[[9223372036854775808]]}`, // int overflow
		`{"points":[[18446744073709551617]]}`,
		`{"points":[[1]],"t":-9223372036854775809}`,
		`{"points":null}`, `{"points":[[1],null]}`, `{"plan":null,"points":[[1]]}`,
		`{"points":[[1,2]]}x`, `{"points":[[1,2]]}{}`, // trailing bytes
		`{"points":[[1,2],]}`, `{"points":[[1,2]],}`,
		`{"plan":{"tile":{"name":"}]\"{"}},"points":[[0]]}`,
		`{"window":{"lo":[0],"hi":[2]},"points":[]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s), 8, 64)
	}
	f.Fuzz(func(t *testing.T, data []byte, maxBatch, maxWindow int) {
		lim := Limits{MaxBatch: maxBatch, MaxWindow: maxWindow}.withDefaults()
		req, win, err := DecodeBatchRequest(data, Limits{MaxBatch: maxBatch, MaxWindow: maxWindow})
		var sc BinScratch
		if _, scanned := scanBatch(data, lim.MaxBatch, &sc); scanned {
			matchReference(t, data, lim, req, win, err)
		}
		if err != nil {
			return
		}
		hasPoints := len(req.Points) > 0
		hasWindow := req.Window != nil
		if hasPoints == hasWindow {
			t.Fatalf("accepted request with points=%v window=%v", hasPoints, hasWindow)
		}
		if hasPoints {
			if win != nil {
				t.Fatal("explicit-point batch returned a window")
			}
			if len(req.Points) > lim.MaxBatch {
				t.Fatalf("accepted batch of %d over limit %d", len(req.Points), lim.MaxBatch)
			}
		} else {
			if win == nil {
				t.Fatal("window batch returned no validated window")
			}
			size, serr := win.SizeChecked()
			if serr != nil || size > lim.MaxWindow {
				t.Fatalf("accepted window of %d points (err %v) over limit %d", size, serr, lim.MaxWindow)
			}
		}
	})
}

// matchReference fails unless a scanned body's decode (req, win, err)
// is exactly what encoding/json alone makes of it, and unless the
// scanned rows are capacity-limited.
func matchReference(t *testing.T, data []byte, lim Limits, req BatchRequest, win *lattice.Window, err error) {
	t.Helper()
	ref, refErr := unmarshalBatch(data)
	var refWin *lattice.Window
	if refErr == nil {
		refWin, refErr = checkBatch(len(ref.Points), ref.Window, lim)
	}
	if (err == nil) != (refErr == nil) {
		t.Fatalf("scanned %q: err %v, reference err %v", data, err, refErr)
	}
	if err != nil {
		if err.Error() != refErr.Error() || errors.Is(err, ErrSpec) != errors.Is(refErr, ErrSpec) ||
			errors.Is(err, ErrLimit) != errors.Is(refErr, ErrLimit) {
			t.Fatalf("scanned %q: err %v, reference err %v", data, err, refErr)
		}
		return
	}
	if !reflect.DeepEqual(req.Plan, ref.Plan) || req.T != ref.T || !reflect.DeepEqual(req.Window, ref.Window) {
		t.Fatalf("scanned %q: %+v, reference %+v", data, req, ref)
	}
	if (win == nil) != (refWin == nil) || win != nil && (!win.Lo.Equal(refWin.Lo) || !win.Hi.Equal(refWin.Hi)) {
		t.Fatalf("scanned %q: window %v, reference %v", data, win, refWin)
	}
	if win != nil {
		return
	}
	if len(req.Points) != len(ref.Points) {
		t.Fatalf("scanned %q: %d rows, reference %d", data, len(req.Points), len(ref.Points))
	}
	for i, row := range req.Points {
		if !slices.Equal(row, ref.Points[i]) || cap(row) != len(row) {
			t.Fatalf("scanned %q: row %d = %v (cap %d), reference %v", data, i, row, cap(row), ref.Points[i])
		}
	}
}

// TestScanBatchShape pins which bodies the canonical scanner takes and
// which it leaves to the encoding/json reference.
func TestScanBatchShape(t *testing.T) {
	cases := []struct {
		body    string
		scanned bool
	}{
		{`{"plan":{"tile":{"name":"cross:2:1"}},"points":[[3,4],[0,0]]}`, true},
		{`{"plan":{"lattice":"hexagonal","tile":{"name":"ball:1"}},"window":{"lo":[0,0],"hi":[9,9]},"t":-7}`, true},
		{"\t{ \"t\":1,\r\n\"points\" : [[ -0 ],[]] } \n", true},
		{`{"points":[[9223372036854775807,-9223372036854775808]]}`, true},
		{`{}`, true},
		{`{"points":[]}`, true},
		{`{"plan":{"Tile":{"name":"cross:2:1"}},"points":[[1]]}`, true}, // plan semantics are json.Unmarshal's
		{`{"p\u006fints":[[1,2]]}`, false},
		{`{"Points":[[1,2]]}`, false},
		{`{"points":[[1,2]],"points":[[3]]}`, false},
		{`{"points":[[1,2]],"extra":1}`, false},
		{`{"points":[[1.0]]}`, false},
		{`{"points":[[1e2]]}`, false},
		{`{"points":[[01]]}`, false},
		{`{"points":[[9223372036854775808]]}`, false},
		{`{"points":[[-9999999999999999999]]}`, false},
		{`{"points":[[18446744073709551617]]}`, false}, // wraps uint64 to 1
		{`{"points":[[1]],"t":-9223372036854775809}`, false},
		{`{"points":[[1]],"t":null}`, false},
		{`{"points":[null]}`, false},
		{`{"points":null}`, false},
		{`{"plan":null,"points":[[1]]}`, false},
		{`{"window":null,"points":[[1]]}`, false},
		{`{"plan":{"tile":5},"points":[[1]]}`, false},
		{`{"points":[[1,2]]}x`, false},
		{`{"points":[[1,2],]}`, false},
		{`{"points":[[` + strings.Repeat("0,", maxTileDim) + `0]]}`, false},
		{`{"points":[` + strings.Repeat(`[0],`, 8) + `[0]]}`, false}, // over MaxBatch
		{`[]`, false},
		{``, false},
	}
	for _, c := range cases {
		var sc BinScratch
		if _, scanned := scanBatch([]byte(c.body), 8, &sc); scanned != c.scanned {
			t.Errorf("scanBatch(%q) scanned = %v, want %v", c.body, scanned, c.scanned)
		}
	}
}

// FuzzDecodeTileSpec checks that tile decoding never panics, that
// accepted tiles respect the size and dimension bounds, and that the
// limit boundaries themselves error rather than slip through.
func FuzzDecodeTileSpec(f *testing.F) {
	seeds := []string{
		`{"name":"cross:2:1"}`,
		`{"name":"chebyshev:3:2"}`,
		`{"name":"rect:4:2"}`,
		`{"name":"tetromino:S"}`,
		`{"name":"pentomino:F"}`,
		`{"name":"ltromino"}`,
		`{"name":"directional"}`,
		`{"name":"ball:2.5"}`,                   // metric: must error here, resolves via PlanSpec
		`{"name":"cross:2:1","points":[[0,0]]}`, // both set
		`{"name":"cross:16:512"}`,               // boxWithin boundary
		`{"name":"rect:513:1"}`,                 // point-count boundary
		`{"name":"cross:-1:-1"}`, `{"name":"cross:1e9:1"}`,
		`{"points":[[0,0],[1,0],[0,1]]}`,
		`{"points":[[0]]}`,
		`{"points":[[]]}`,        // zero-dimensional
		`{"points":[[0,0],[1]]}`, // mixed dims
		`{"points":[[1,1]]}`,     // missing origin
		`{"points":[` + bigPointList(513) + `]}`,
		`{"points":[[` + strings.Repeat("0,", 40) + `0]]}`, // 41-dim point
		`{}`, `not json`, `{"name":`, `[]`, `{"name":""}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tile, err := DecodeTileSpec(data)
		if err != nil {
			if tile != nil {
				t.Fatal("error with non-nil tile")
			}
			return
		}
		if tile == nil {
			t.Fatal("nil tile without error")
		}
		if tile.Size() < 1 || tile.Size() > maxTilePoints {
			t.Fatalf("accepted tile with %d points, limit %d", tile.Size(), maxTilePoints)
		}
		if tile.Dim() < 1 || tile.Dim() > maxTileDim {
			t.Fatalf("accepted tile with dimension %d, limit %d", tile.Dim(), maxTileDim)
		}
	})
}

// bigPointList renders n copies of the origin for oversized-tile seeds.
func bigPointList(n int) string {
	parts := make([]string, n)
	for i := range parts {
		parts[i] = "[0,0]"
	}
	return strings.Join(parts, ",")
}

// TestDecodeBatchRequestLimitBoundaries pins the exact boundary
// semantics the fuzz property relies on: at the limit passes, one past
// the limit errors with ErrLimit.
func TestDecodeBatchRequestLimitBoundaries(t *testing.T) {
	mkPoints := func(n int) []byte {
		pts := make([][]int, n)
		for i := range pts {
			pts[i] = []int{i, i}
		}
		body, err := json.Marshal(map[string]any{"points": pts})
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	lim := Limits{MaxBatch: 4, MaxWindow: 9}
	if _, _, err := DecodeBatchRequest(mkPoints(4), lim); err != nil {
		t.Fatalf("batch at limit rejected: %v", err)
	}
	if _, _, err := DecodeBatchRequest(mkPoints(5), lim); !errorsIsLimit(err) {
		t.Fatalf("batch over limit: got %v, want ErrLimit", err)
	}
	win := []byte(`{"window":{"lo":[0,0],"hi":[2,2]}}`) // 9 points
	if _, w, err := DecodeBatchRequest(win, lim); err != nil || w == nil {
		t.Fatalf("window at limit rejected: %v", err)
	}
	win = []byte(`{"window":{"lo":[0,0],"hi":[2,3]}}`) // 12 points
	if _, _, err := DecodeBatchRequest(win, lim); !errorsIsLimit(err) {
		t.Fatalf("window over limit: got %v, want ErrLimit", err)
	}
	if _, _, err := DecodeBatchRequest([]byte(fmt.Sprintf(`{"points":%s}`, "[]")), lim); err == nil {
		t.Fatal("empty request accepted")
	}
}

func errorsIsLimit(err error) bool { return errors.Is(err, ErrLimit) }

// FuzzDecodeMutateRequest checks the mutate funnel: never panic, and
// every accepted request has a bounded window, a bounded event list, and
// only well-formed in-margin events.
func FuzzDecodeMutateRequest(f *testing.F) {
	seeds := []string{
		`{"plan":{"tile":{"name":"cross:2:1"}},"window":{"lo":[0,0],"hi":[4,4]},"events":[{"op":"leave","p":[1,1]}]}`,
		`{"window":{"lo":[0,0],"hi":[4,4]},"events":[{"op":"move","p":[0,0],"to":[5,5]}],"epoch":3}`,
		`{"window":{"lo":[0,0],"hi":[4,4]},"full":true}`,
		`{"window":{"lo":[0,0],"hi":[4,4]},"events":[{"op":"join","p":[100000,0]}]}`,
		`{"window":{"lo":[4],"hi":[-4]},"events":[{"op":"leave","p":[0]}]}`,
		`{"events":[{"op":"leave","p":[0,0]}]}`,
		`not json`, `{"window":`, `{}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s), 8, 64)
	}
	f.Fuzz(func(t *testing.T, data []byte, maxBatch, maxWindow int) {
		lim := Limits{MaxBatch: maxBatch, MaxWindow: maxWindow}.withDefaults()
		req, win, events, err := DecodeMutateRequest(data, Limits{MaxBatch: maxBatch, MaxWindow: maxWindow})
		if err != nil {
			return
		}
		if size, serr := win.SizeChecked(); serr != nil || size > lim.MaxWindow {
			t.Fatalf("accepted window %s over limit %d", win, lim.MaxWindow)
		}
		if len(events) > lim.MaxBatch {
			t.Fatalf("accepted %d events over limit %d", len(events), lim.MaxBatch)
		}
		if len(events) == 0 && !req.Full {
			t.Fatal("accepted an empty non-full request")
		}
		for i, ev := range events {
			if ev.P.Dim() != win.Dim() {
				t.Fatalf("event %d dimension %d ≠ window %d", i, ev.P.Dim(), win.Dim())
			}
			for a := range ev.P {
				if ev.P[a] < win.Lo[a]-MutateMargin || ev.P[a] > win.Hi[a]+MutateMargin {
					t.Fatalf("event %d outside margin: %v in %s", i, ev.P, win)
				}
			}
		}
	})
}
