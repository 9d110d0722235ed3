package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"tilingsched/internal/dynamic"
	"tilingsched/internal/lattice"
	"tilingsched/internal/prototile"
	"tilingsched/internal/service/binwire"
)

// --- Binary ↔ JSON parity --------------------------------------------------

// batchParityCorpus is the valid subset of the JSON fuzz corpus
// (FuzzDecodeBatchRequest) plus signature-path cases: every request a
// JSON client can make must survive the binary round trip unchanged.
var batchParityCorpus = []string{
	`{"plan":{"tile":{"name":"cross:2:1"}},"points":[[3,4],[0,0]]}`,
	`{"plan":{"tile":{"name":"cross:2:1"}},"window":{"lo":[-4,-4],"hi":[4,4]}}`,
	`{"plan":{"tile":{"points":[[0,0],[1,0]]}},"points":[[1]],"t":12345}`,
	`{"plan":{"lattice":"square","tile":{"name":"rect:4:2"}},"points":[[100,-250],[-7,2],[0,0],[3,4]]}`,
	`{"plan":{"tile":{"name":"cross:2:1"}},"points":[[3,4]],"t":-1}`,
	`{"plan":{"tile":{"name":"chebyshev:3:2"}},"window":{"lo":[7,7],"hi":[7,7]}}`,
}

// TestBinaryBatchParity round-trips the JSON corpus through the binary
// codec: JSON-decode, binary-encode, binary-decode, and compare every
// field — the two formats must accept the same requests and mean the
// same thing.
func TestBinaryBatchParity(t *testing.T) {
	for _, src := range batchParityCorpus {
		for _, may := range []bool{false, true} {
			req, win, err := DecodeBatchRequest([]byte(src), Limits{})
			if err != nil {
				t.Fatalf("JSON corpus entry rejected: %s: %v", src, err)
			}
			e := binwire.Get()
			EncodeBatchBinary(e, req, may, "")
			var sc BinScratch
			bin, err := DecodeBinaryBatch(e.Bytes(), Limits{}, &sc)
			binwire.Put(e)
			if err != nil {
				t.Fatalf("binary decode of %s: %v", src, err)
			}
			wantKind := binwire.FrameBatchSlots
			if may {
				wantKind = binwire.FrameBatchMay
			}
			if bin.Kind != wantKind {
				t.Errorf("%s: kind %#x, want %#x", src, bin.Kind, wantKind)
			}
			if bin.Plan.Spec.Lattice != req.Plan.Lattice || bin.Plan.Spec.Tile.Name != req.Plan.Tile.Name {
				t.Errorf("%s: plan spec %+v ≠ %+v", src, bin.Plan.Spec, req.Plan)
			}
			if len(req.Plan.Tile.Points) > 0 && !reflect.DeepEqual(bin.Plan.Spec.Tile.Points, req.Plan.Tile.Points) {
				t.Errorf("%s: tile points %v ≠ %v", src, bin.Plan.Spec.Tile.Points, req.Plan.Tile.Points)
			}
			if win != nil {
				if !bin.UseWindow || !bin.Window.Lo.Equal(win.Lo) || !bin.Window.Hi.Equal(win.Hi) {
					t.Errorf("%s: window %v ≠ %v", src, bin.Window, *win)
				}
			} else {
				if bin.UseWindow || len(bin.Points) != len(req.Points) {
					t.Fatalf("%s: %d binary points for %d JSON points", src, len(bin.Points), len(req.Points))
				}
				for i := range req.Points {
					if !bin.Points[i].Equal(lattice.Point(req.Points[i])) {
						t.Errorf("%s: point %d = %v, want %v", src, i, bin.Points[i], req.Points[i])
					}
				}
			}
			if may && bin.T != req.T {
				t.Errorf("%s: t %d ≠ %d", src, bin.T, req.T)
			}
		}
	}
}

// TestBinaryHugeCountRejected pins the unsigned-count guard: a crafted
// frame claiming ≥ 2^63 points/events must be rejected with ErrLimit
// before any allocation — a raw int() conversion would go negative,
// slip past the limit checks, and panic in make().
func TestBinaryHugeCountRejected(t *testing.T) {
	const huge = uint64(1) << 63
	planRef := func(e *binwire.Buffer) {
		e.Byte(0) // plan tag: spec
		e.String("")
		e.Byte(0) // tile tag: name
		e.String("cross:2:1")
	}

	batch := binwire.Get()
	batch.BeginFrame(binwire.FrameBatchSlots)
	planRef(batch)
	batch.Byte(0) // query tag: explicit points
	batch.Uvarint(huge)
	batch.Uvarint(2) // dim
	batch.EndFrame()
	var sc BinScratch
	if _, err := DecodeBinaryBatch(batch.Bytes(), Limits{}, &sc); !errors.Is(err, ErrLimit) {
		t.Errorf("huge point count: err %v, want ErrLimit", err)
	}
	binwire.Put(batch)

	mut := binwire.Get()
	mut.BeginFrame(binwire.FrameMutate)
	planRef(mut)
	mut.Uvarint(2) // window dim
	mut.Varint(0)
	mut.Varint(0)
	mut.Uvarint(4)
	mut.Uvarint(4)
	mut.Byte(0) // flags
	mut.Uvarint(huge)
	mut.EndFrame()
	if _, err := DecodeBinaryMutate(mut.Bytes(), Limits{}); !errors.Is(err, ErrLimit) {
		t.Errorf("huge event count: err %v, want ErrLimit", err)
	}
	binwire.Put(mut)
}

// TestBinaryCountBoundedByBytes pins the pre-allocation bound of both
// binary funnels: a count within MaxBatch that the payload bytes cannot
// hold (a coordinate takes a byte, an event its op byte and one per
// coordinate) is ErrSpec, and sizes neither the pooled arena nor an
// event list.
func TestBinaryCountBoundedByBytes(t *testing.T) {
	const claimed = 1 << 16
	lim := Limits{MaxBatch: claimed}
	planRef := func(e *binwire.Buffer) {
		e.Byte(0) // plan tag: spec
		e.String("")
		e.Byte(0) // tile tag: name
		e.String("cross:2:1")
	}

	var batch binwire.Buffer
	batch.BeginFrame(binwire.FrameBatchSlots)
	planRef(&batch)
	batch.Byte(0) // query tag: explicit points
	batch.Uvarint(claimed)
	batch.Uvarint(maxTileDim)
	batch.EndFrame()
	body := batch.Bytes()
	var sc BinScratch
	if _, err := DecodeBinaryBatch(body, lim, &sc); !errors.Is(err, ErrSpec) {
		t.Errorf("%d-byte body claiming %d points: err %v, want ErrSpec", len(body), claimed, err)
	}
	if cap(sc.coords) > len(body) || cap(sc.pts) > len(body) {
		t.Errorf("%d-byte body left an arena of %d coordinates and %d point headers", len(body), cap(sc.coords), cap(sc.pts))
	}

	var mut binwire.Buffer
	mut.BeginFrame(binwire.FrameMutate)
	planRef(&mut)
	mut.Uvarint(2) // window dim
	mut.Varint(0)
	mut.Varint(0)
	mut.Uvarint(4)
	mut.Uvarint(4)
	mut.Byte(0) // flags
	mut.Uvarint(claimed)
	mut.Byte(binOpJoin)
	mut.Varint(1)
	mut.Varint(1)
	mut.EndFrame()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeBinaryMutate(mut.Bytes(), lim)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrSpec) {
		t.Errorf("mutate frame claiming %d events: err %v, want ErrSpec", claimed, err)
	}
	// The event list alone would be claimed × the event size.
	if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
		t.Errorf("mutate frame claiming %d events allocated %d bytes", claimed, n)
	}
}

// mutateParityCorpus mirrors FuzzDecodeMutateRequest's valid seeds.
var mutateParityCorpus = []string{
	`{"plan":{"tile":{"name":"cross:2:1"}},"window":{"lo":[0,0],"hi":[4,4]},"events":[{"op":"leave","p":[1,1]}]}`,
	`{"window":{"lo":[0,0],"hi":[4,4]},"events":[{"op":"move","p":[0,0],"to":[5,5]}],"epoch":3}`,
	`{"window":{"lo":[0,0],"hi":[4,4]},"full":true}`,
	`{"window":{"lo":[-2,-2],"hi":[6,6]},"events":[{"op":"join","p":[1,2]},{"op":"fail","p":[-1,0]},{"op":"leave","p":[3,3]}],"epoch":0,"full":true}`,
}

// TestBinaryMutateParity round-trips the mutate corpus: the binary
// funnel must produce the same window, epoch, flags, and event batch as
// the JSON funnel.
func TestBinaryMutateParity(t *testing.T) {
	for _, src := range mutateParityCorpus {
		req, win, events, err := DecodeMutateRequest([]byte(src), Limits{})
		if err != nil {
			t.Fatalf("JSON corpus entry rejected: %s: %v", src, err)
		}
		e := binwire.Get()
		if err := EncodeMutateBinary(e, req, ""); err != nil {
			t.Fatalf("encode %s: %v", src, err)
		}
		bin, err := DecodeBinaryMutate(e.Bytes(), Limits{})
		binwire.Put(e)
		if err != nil {
			t.Fatalf("binary decode of %s: %v", src, err)
		}
		if !bin.Window.Lo.Equal(win.Lo) || !bin.Window.Hi.Equal(win.Hi) {
			t.Errorf("%s: window %v ≠ %v", src, bin.Window, win)
		}
		if bin.HasEpoch != (req.Epoch != nil) || (req.Epoch != nil && bin.Epoch != *req.Epoch) {
			t.Errorf("%s: epoch (%v,%d) ≠ %v", src, bin.HasEpoch, bin.Epoch, req.Epoch)
		}
		if bin.Full != req.Full {
			t.Errorf("%s: full %v ≠ %v", src, bin.Full, req.Full)
		}
		if len(bin.Events) != len(events) {
			t.Fatalf("%s: %d events ≠ %d", src, len(bin.Events), len(events))
		}
		for i := range events {
			if bin.Events[i].Kind != events[i].Kind || !bin.Events[i].P.Equal(events[i].P) {
				t.Errorf("%s: event %d = %+v, want %+v", src, i, bin.Events[i], events[i])
			}
			if events[i].Kind == dynamic.Move && !bin.Events[i].To.Equal(events[i].To) {
				t.Errorf("%s: event %d destination %v, want %v", src, i, bin.Events[i].To, events[i].To)
			}
		}
	}
}

// TestBinaryMutateResponseRoundTrip pins the response frame grammar:
// server-side encode, client-side decode, field-for-field equality.
func TestBinaryMutateResponseRoundTrip(t *testing.T) {
	want := MutateResponse{
		Signature: "square|cross:2:1",
		Epoch:     7,
		M:         5,
		Alive:     24,
		Disruption: DisruptionSpec{
			Events: 3, Joined: 1, Departed: 1, Reassigned: 4,
			ColorsDelta: -1, FullRecolor: true, Compacted: true,
		},
		Changed: []ChangeSpec{{P: []int{1, 2}, Slot: 3}, {P: []int{-4, 0}, Slot: 0}},
		Error:   "partial apply",
	}
	e := binwire.Get()
	defer binwire.Put(e)
	encodeMutateResponse(e, want)
	got, err := DecodeMutateStream(e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip\n got %+v\nwant %+v", got, want)
	}
}

// --- End-to-end over HTTP --------------------------------------------------

// postBin POSTs body under the binary content type and returns the
// response with its raw bytes.
func postBin(t *testing.T, srv *httptest.Server, path string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := srv.Client().Post(srv.URL+path, BinaryContentType, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// encodeBatch renders one binary batch request body.
func encodeBatch(req BatchRequest, may bool, sig string) []byte {
	e := binwire.Get()
	defer binwire.Put(e)
	EncodeBatchBinary(e, req, may, sig)
	return bytes.Clone(e.Bytes())
}

// TestServerBinarySlotsEndToEnd drives the binary protocol the way the
// load generator does — explicit batch, then a window big enough to
// force multiple chunk frames — and cross-checks every slot against the
// in-process plan and the JSON answers.
func TestServerBinarySlotsEndToEnd(t *testing.T) {
	srv := newTestServer(t, ServerOptions{})
	plan := mustPlan(t, prototile.Cross(2, 1))
	spec := PlanSpec{Tile: TileSpec{Name: "cross:2:1"}}

	pts := [][]int{{3, 4}, {0, 0}, {-7, 2}, {100, -250}}
	resp, body := postBin(t, srv, "/v1/slots:batch", encodeBatch(BatchRequest{Plan: spec, Points: pts}, false, ""))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %q", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != BinaryContentType {
		t.Fatalf("response content type %q", ct)
	}
	sr, err := DecodeSlotsStream(body)
	if err != nil {
		t.Fatal(err)
	}
	if sr.M != 5 || len(sr.Slots) != len(pts) {
		t.Fatalf("m=%d slots=%d, want m=5 slots=%d", sr.M, len(sr.Slots), len(pts))
	}
	for i, c := range pts {
		want, err := plan.SlotOf(lattice.Pt(c...))
		if err != nil {
			t.Fatal(err)
		}
		if int(sr.Slots[i]) != want {
			t.Errorf("slot of %v = %d, want %d", c, sr.Slots[i], want)
		}
	}

	// 257×257 = 66049 points: spans five chunk frames at 16384/chunk.
	w := lattice.CenteredWindow(2, 128)
	resp, body = postBin(t, srv, "/v1/slots:batch",
		encodeBatch(BatchRequest{Plan: spec, Window: &WindowSpec{Lo: w.Lo, Hi: w.Hi}}, false, ""))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("window status %d: %q", resp.StatusCode, body)
	}
	sr, err = DecodeSlotsStream(body)
	if err != nil {
		t.Fatal(err)
	}
	want, err := QueryWindowSlots(plan, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Slots) != len(want) {
		t.Fatalf("window reply has %d slots, want %d", len(sr.Slots), len(want))
	}
	for i := range want {
		if sr.Slots[i] != want[i] {
			t.Fatalf("window slot %d = %d, want %d", i, sr.Slots[i], want[i])
		}
	}
}

// TestServerBinaryMayEndToEnd checks the bit-packed may-broadcast path
// against the in-process engine at an awkward (non-multiple-of-8)
// batch size.
func TestServerBinaryMayEndToEnd(t *testing.T) {
	srv := newTestServer(t, ServerOptions{})
	plan := mustPlan(t, prototile.Cross(2, 1))
	spec := PlanSpec{Tile: TileSpec{Name: "cross:2:1"}}
	const tm = int64(-13)

	w := lattice.CenteredWindow(2, 5) // 121 points: 15 packed bytes + 1 spare bit
	resp, body := postBin(t, srv, "/v1/maybroadcast:batch",
		encodeBatch(BatchRequest{Plan: spec, Window: &WindowSpec{Lo: w.Lo, Hi: w.Hi}, T: tm}, true, ""))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %q", resp.StatusCode, body)
	}
	mr, err := DecodeMayStream(body)
	if err != nil {
		t.Fatal(err)
	}
	if mr.M != 5 || mr.T != tm {
		t.Fatalf("head m=%d t=%d, want m=5 t=%d", mr.M, mr.T, tm)
	}
	want, err := QueryWindowMayBroadcast(plan, w, tm, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(mr.May) != len(want) {
		t.Fatalf("%d flags, want %d", len(mr.May), len(want))
	}
	for i := range want {
		if mr.May[i] != want[i] {
			t.Fatalf("flag %d = %v, want %v", i, mr.May[i], want[i])
		}
	}
}

// TestServerBinarySignatureRef exercises the plan-by-signature fast
// path: unknown signatures 404 (client re-sends the spec), and after a
// spec-form request has compiled the plan, the signature form answers
// identically.
func TestServerBinarySignatureRef(t *testing.T) {
	srv := newTestServer(t, ServerOptions{})
	spec := PlanSpec{Tile: TileSpec{Name: "cross:2:1"}}
	pts := [][]int{{3, 4}, {0, 0}}

	resp, body := postBin(t, srv, "/v1/slots:batch",
		encodeBatch(BatchRequest{Points: pts}, false, "no-such-signature"))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown signature: status %d, want 404", resp.StatusCode)
	}
	if _, err := DecodeSlotsStream(body); err == nil {
		t.Fatal("error response decoded as success")
	}

	// Compile via the JSON plan endpoint to learn the signature.
	resp, body = postJSON(t, srv, "/v1/plan", PlanRequest{Plan: spec})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan status %d: %s", resp.StatusCode, body)
	}
	var pr PlanResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}

	specResp, specBody := postBin(t, srv, "/v1/slots:batch", encodeBatch(BatchRequest{Plan: spec, Points: pts}, false, ""))
	sigResp, sigBody := postBin(t, srv, "/v1/slots:batch", encodeBatch(BatchRequest{Points: pts}, false, pr.Signature))
	if specResp.StatusCode != http.StatusOK || sigResp.StatusCode != http.StatusOK {
		t.Fatalf("statuses %d / %d", specResp.StatusCode, sigResp.StatusCode)
	}
	if !bytes.Equal(specBody, sigBody) {
		t.Fatal("signature-form answer differs from spec-form answer")
	}
}

// errorCase is one row of the error-status table. A raw body is sent
// verbatim to every endpoint; otherwise the row holds its request per
// endpoint kind, rendered in each codec by errorCase.body, and a nil
// request skips that kind.
type errorCase struct {
	name   string
	status int
	codec  string // "json" or "bin" restricts the row to one codec
	raw    []byte
	path   string // restricts a raw row to one endpoint
	batch  *BatchRequest
	mutate *MutateRequest
	sub    *SubscribeRequest
	sig    string // binary plan-by-signature reference
}

// body renders the row for one endpoint in one codec (nil: skip).
func (c errorCase) body(t *testing.T, path string, bin bool) []byte {
	t.Helper()
	if c.raw != nil {
		if c.path != "" && c.path != path {
			return nil
		}
		return c.raw
	}
	e := binwire.Get()
	defer binwire.Put(e)
	var v any
	switch {
	case strings.HasSuffix(path, ":batch") && c.batch != nil:
		v = c.batch
		EncodeBatchBinary(e, *c.batch, path == "/v1/maybroadcast:batch", c.sig)
	case path == "/v1/plan:mutate" && c.mutate != nil:
		v = c.mutate
		if err := EncodeMutateBinary(e, *c.mutate, c.sig); err != nil {
			t.Fatal(err)
		}
	case path == "/v1/plan:subscribe" && c.sub != nil:
		v = c.sub
		EncodeSubscribeBinary(e, *c.sub, c.sig)
	default:
		return nil
	}
	if bin {
		return bytes.Clone(e.Bytes())
	}
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestServerBinaryErrors is the error-status table of every POST
// endpoint in both codecs: malformed bodies 400, oversized bodies and
// over-limit batches, event counts and windows 413, unknown tiles 400,
// inexact tiles 422, dimension mismatches 400 (a ragged JSON batch
// included), unknown binary plan signatures 404, a binary batch frame of
// the other batch kind 400 (in both directions), and a full subscriber
// table 503. Every error body decodes as its codec's error form:
// ErrorResponse for JSON; for binary, an Error frame then End, which the
// endpoint's client decoder (DecodeSlotsStream, DecodeMayStream,
// DecodeMutateStream, OpenSubscribeStream) returns as a *WireError
// carrying the HTTP status. No request hangs.
func TestServerBinaryErrors(t *testing.T) {
	s := NewServer(NewRegistry(8), ServerOptions{MaxBatch: 4, MaxWindow: 100, MaxBody: 256, MaxSubscribers: 1})
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	client := srv.Client()
	client.Timeout = 10 * time.Second // an unexpected 200 subscribe would stream forever

	cross := PlanSpec{Tile: TileSpec{Name: "cross:2:1"}}
	win := WindowSpec{Lo: []int{0, 0}, Hi: []int{4, 4}}
	leave := []EventSpec{{Op: "leave", P: []int{1, 1}}}
	// The subscriber cap is per session: hold the one slot on a session
	// no other row reaches, so only the cap row collides with it.
	capWin := WindowSpec{Lo: []int{0, 0}, Hi: []int{3, 3}}
	feed, err := s.Subscribe(cross, capWin, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer feed.Close()

	// onPlan builds a row whose every endpoint request is well formed
	// except for its plan.
	onPlan := func(name string, status int, plan PlanSpec) errorCase {
		return errorCase{name: name, status: status,
			batch:  &BatchRequest{Plan: plan, Points: [][]int{{0, 0}}},
			mutate: &MutateRequest{Plan: plan, Window: win, Events: leave},
			sub:    &SubscribeRequest{Plan: plan, Window: win}}
	}
	// onWindow builds a row that sends the window to every endpoint.
	onWindow := func(name string, status int, w WindowSpec, events []EventSpec) errorCase {
		return errorCase{name: name, status: status,
			batch:  &BatchRequest{Plan: cross, Window: &w},
			mutate: &MutateRequest{Plan: cross, Window: w, Events: events},
			sub:    &SubscribeRequest{Plan: cross, Window: w}}
	}
	var five []EventSpec
	for x := 0; x < 5; x++ {
		five = append(five, EventSpec{Op: "leave", P: []int{x, 0}})
	}
	unknownSig := onPlan("unknown signature", http.StatusNotFound, PlanSpec{})
	unknownSig.codec, unknownSig.sig = "bin", "no-such-signature"
	cases := []errorCase{
		{name: "malformed", status: http.StatusBadRequest, raw: []byte("\x01\x02\x03")},
		{name: "empty", status: http.StatusBadRequest, raw: []byte{}},
		{name: "oversized body", status: http.StatusRequestEntityTooLarge, raw: bytes.Repeat([]byte{'0'}, 512)},
		{name: "json to binary endpoint", status: http.StatusBadRequest, codec: "bin", raw: []byte(`{"points":[[0,0]]}`)},
		{name: "slots frame to maybroadcast", status: http.StatusBadRequest, codec: "bin", path: "/v1/maybroadcast:batch",
			raw: encodeBatch(BatchRequest{Plan: cross, Points: [][]int{{0, 0}}}, false, "")},
		{name: "maybroadcast frame to slots", status: http.StatusBadRequest, codec: "bin", path: "/v1/slots:batch",
			raw: encodeBatch(BatchRequest{Plan: cross, Points: [][]int{{0, 0}}}, true, "")},
		{name: "batch over limit", status: http.StatusRequestEntityTooLarge,
			batch: &BatchRequest{Plan: cross, Points: [][]int{{0, 0}, {1, 0}, {2, 0}, {3, 0}, {4, 0}}}},
		{name: "events over limit", status: http.StatusRequestEntityTooLarge,
			mutate: &MutateRequest{Plan: cross, Window: win, Events: five}},
		onWindow("window over limit", http.StatusRequestEntityTooLarge, WindowSpec{Lo: []int{0, 0}, Hi: []int{10, 10}}, leave),
		onPlan("unknown tile", http.StatusBadRequest, PlanSpec{Tile: TileSpec{Name: "nope"}}),
		onPlan("inexact tile", http.StatusUnprocessableEntity, PlanSpec{Tile: TileSpec{Points: [][]int{{0, 0}, {2, 0}}}}),
		{name: "point dimension", status: http.StatusBadRequest, batch: &BatchRequest{Plan: cross, Points: [][]int{{1, 2, 3}}}},
		{name: "ragged batch", status: http.StatusBadRequest, codec: "json",
			batch: &BatchRequest{Plan: cross, Points: [][]int{{0, 0}, {1, 2, 3}}}},
		onWindow("window dimension", http.StatusBadRequest, WindowSpec{Lo: []int{0, 0, 0}, Hi: []int{2, 2, 2}},
			[]EventSpec{{Op: "leave", P: []int{1, 1, 1}}}),
		unknownSig,
		{name: "subscriber cap", status: http.StatusServiceUnavailable, sub: &SubscribeRequest{Plan: cross, Window: capWin}},
	}
	cells := 0
	for _, path := range []string{"/v1/slots:batch", "/v1/maybroadcast:batch", "/v1/plan:mutate", "/v1/plan:subscribe"} {
		for _, codec := range []string{"json", "bin"} {
			for _, c := range cases {
				if c.codec != "" && c.codec != codec {
					continue
				}
				reqBody := c.body(t, path, codec == "bin")
				if reqBody == nil {
					continue
				}
				cells++
				name := fmt.Sprintf("%s %s %s", path, codec, c.name)
				contentType := "application/json"
				if codec == "bin" {
					contentType = BinaryContentType
				}
				resp, err := client.Post(srv.URL+path, contentType, bytes.NewReader(reqBody))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatalf("%s: reading reply: %v", name, err)
				}
				if resp.StatusCode != c.status {
					t.Errorf("%s: status %d, want %d (%q)", name, resp.StatusCode, c.status, body)
					continue
				}
				if ct := resp.Header.Get("Content-Type"); ct != contentType {
					t.Errorf("%s: content type %q, want %q", name, ct, contentType)
				}
				if codec == "json" {
					var er ErrorResponse
					if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
						t.Errorf("%s: reply %q is not an ErrorResponse", name, body)
					}
					continue
				}
				var derr error
				switch path {
				case "/v1/slots:batch":
					_, derr = DecodeSlotsStream(body)
				case "/v1/maybroadcast:batch":
					_, derr = DecodeMayStream(body)
				case "/v1/plan:mutate":
					_, derr = DecodeMutateStream(body)
				default:
					_, derr = OpenSubscribeStream(bytes.NewReader(body), BinaryContentType)
				}
				var we *WireError
				if !errors.As(derr, &we) || we.Status != c.status {
					t.Errorf("%s: client decoder returned %v, want a *WireError with status %d", name, derr, c.status)
				}
				stream := binwire.NewReader(body)
				if typ, _ := stream.Frame(); stream.Err() != nil || typ != binwire.FrameError {
					t.Errorf("%s: reply %q does not open with an Error frame", name, body)
				} else if typ, _ := stream.Frame(); stream.Err() != nil || typ != binwire.FrameEnd {
					t.Errorf("%s: Error frame not followed by End", name)
				}
			}
		}
	}
	if cells != 80 {
		t.Fatalf("table ran %d endpoint × codec cells, want 80", cells)
	}
}

// TestServerBinaryMutateEndToEnd drives a session through the binary
// codec: join, epoch advance, stale-epoch conflict (409 with a
// MutateResult frame carrying the current epoch), and a full resync.
func TestServerBinaryMutateEndToEnd(t *testing.T) {
	srv := newTestServer(t, ServerOptions{})
	spec := PlanSpec{Tile: TileSpec{Name: "cross:2:1"}}
	win := WindowSpec{Lo: []int{0, 0}, Hi: []int{4, 4}}

	encode := func(req MutateRequest) []byte {
		e := binwire.Get()
		defer binwire.Put(e)
		if err := EncodeMutateBinary(e, req, ""); err != nil {
			t.Fatal(err)
		}
		return bytes.Clone(e.Bytes())
	}

	resp, body := postBin(t, srv, "/v1/plan:mutate", encode(MutateRequest{
		Plan: spec, Window: win,
		Events: []EventSpec{{Op: "leave", P: []int{1, 1}}, {Op: "move", P: []int{2, 2}, To: []int{5, 5}}},
	}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate status %d: %q", resp.StatusCode, body)
	}
	mr, err := DecodeMutateStream(body)
	if err != nil {
		t.Fatal(err)
	}
	if mr.Epoch != 1 || mr.Disruption.Events != 2 || mr.Signature == "" {
		t.Fatalf("after batch: %+v", mr)
	}

	stale := uint64(0)
	resp, body = postBin(t, srv, "/v1/plan:mutate", encode(MutateRequest{
		Plan: spec, Window: win, Epoch: &stale,
		Events: []EventSpec{{Op: "leave", P: []int{0, 0}}},
	}))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale epoch status %d, want 409", resp.StatusCode)
	}
	mr, err = DecodeMutateStream(body)
	if err != nil {
		t.Fatal(err)
	}
	if mr.Epoch != 1 || mr.Error == "" {
		t.Fatalf("conflict response %+v", mr)
	}

	resp, body = postBin(t, srv, "/v1/plan:mutate", encode(MutateRequest{Plan: spec, Window: win, Full: true}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resync status %d: %q", resp.StatusCode, body)
	}
	mr, err = DecodeMutateStream(body)
	if err != nil {
		t.Fatal(err)
	}
	// 5×5 window minus one leave, minus one move-out-then-in (the move
	// stays live at its destination outside the original count... the
	// destination (5,5) is outside the window but within margin, so the
	// sensor stays alive): 25 - 1 = 24 live assignments.
	if len(mr.Changed) != mr.Alive || mr.Alive != 24 {
		t.Fatalf("resync: %d changed, alive %d", len(mr.Changed), mr.Alive)
	}
}

// TestServerBinaryMatchesJSON answers the same query through both
// codecs and requires identical semantics — the parity property at the
// HTTP layer.
func TestServerBinaryMatchesJSON(t *testing.T) {
	srv := newTestServer(t, ServerOptions{})
	spec := PlanSpec{Tile: TileSpec{Name: "rect:4:2"}}
	w := lattice.CenteredWindow(2, 9)
	req := BatchRequest{Plan: spec, Window: &WindowSpec{Lo: w.Lo, Hi: w.Hi}, T: 42}

	jResp, jBody := postJSON(t, srv, "/v1/maybroadcast:batch", req)
	bResp, bBody := postBin(t, srv, "/v1/maybroadcast:batch", encodeBatch(req, true, ""))
	if jResp.StatusCode != http.StatusOK || bResp.StatusCode != http.StatusOK {
		t.Fatalf("statuses %d / %d", jResp.StatusCode, bResp.StatusCode)
	}
	var jm MayResponse
	if err := json.Unmarshal(jBody, &jm); err != nil {
		t.Fatal(err)
	}
	bm, err := DecodeMayStream(bBody)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(jm, bm) {
		t.Fatalf("JSON and binary answers differ:\n json %+v\n bin  %+v", jm, bm)
	}
	if len(bBody) >= len(jBody) {
		t.Errorf("binary response (%d bytes) not smaller than JSON (%d bytes)", len(bBody), len(jBody))
	}
}
