package service

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"tilingsched/internal/core"
	"tilingsched/internal/intmat"
	"tilingsched/internal/lattice"
	"tilingsched/internal/prototile"
)

func postJSON(t *testing.T, srv *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+path, "application/json", bytes.NewReader(data))
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

func newTestServer(t *testing.T, opts ServerOptions) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewServer(NewRegistry(8), opts))
	t.Cleanup(srv.Close)
	return srv
}

func TestServerPlanEndpoint(t *testing.T) {
	srv := newTestServer(t, ServerOptions{})
	resp, body := postJSON(t, srv, "/v1/plan", PlanRequest{Plan: PlanSpec{Tile: TileSpec{Name: "cross:2:1"}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var pr PlanResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Slots != 5 || pr.Dim != 2 || pr.Lattice != "square" {
		t.Errorf("plan response %+v, want 5 slots on square/2", pr)
	}
	if len(pr.Tile) != 5 || len(pr.Period) != 2 {
		t.Errorf("tile %v period %v, want 5 points and a 2×2 period", pr.Tile, pr.Period)
	}
	if pr.Signature == "" {
		t.Error("empty signature")
	}
}

// TestServerSlotsBatchEndToEnd drives cmd/latticed's handler the way a
// client would: compile a plan, query a point batch and a window, and
// cross-check every slot against the in-process plan.
func TestServerSlotsBatchEndToEnd(t *testing.T) {
	srv := newTestServer(t, ServerOptions{})
	plan := mustPlan(t, prototile.Cross(2, 1))

	pts := [][]int{{3, 4}, {0, 0}, {-7, 2}, {100, -250}}
	resp, body := postJSON(t, srv, "/v1/slots:batch",
		BatchRequest{Plan: PlanSpec{Tile: TileSpec{Name: "cross:2:1"}}, Points: pts})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr SlotsResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.M != 5 || len(sr.Slots) != len(pts) {
		t.Fatalf("got m=%d %d slots, want m=5 %d slots", sr.M, len(sr.Slots), len(pts))
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

	w := lattice.CenteredWindow(2, 3)
	resp, body = postJSON(t, srv, "/v1/slots:batch", BatchRequest{
		Plan:   PlanSpec{Tile: TileSpec{Name: "cross:2:1"}},
		Window: &WindowSpec{Lo: w.Lo, Hi: w.Hi},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("window status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &sr); err != nil {
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
			t.Errorf("window slot %d = %d, want %d", i, sr.Slots[i], want[i])
		}
	}
}

// TestServerMayBroadcastEndpoint checks every may-broadcast answer the
// server gives, in both codecs, against the reference engine
// (QueryMayBroadcast, QueryWindowMayBroadcast): the three perfbench
// plans, tetromino:T and the non-cyclic 2Z×2Z period; an explicit batch
// of a size that is not a multiple of 8, a small window and one larger
// than a binary chunk frame; and times around the period and at the
// int64 extremes.
func TestServerMayBroadcastEndpoint(t *testing.T) {
	reg := NewRegistry(8)
	srv := httptest.NewServer(NewServer(reg, ServerOptions{}))
	t.Cleanup(srv.Close)
	period, err := core.NewPlanWithPeriod(lattice.Square(), prototile.Rect(2, 2), intmat.MustFromRows([][]int64{{2, 0}, {0, 2}}))
	if err != nil {
		t.Fatal(err)
	}
	// Cached under its signature, the 2Z×2Z plan is what rect:2:2 specs
	// resolve to, not the cyclic period NewPlan would find.
	if _, err := reg.Get(period.Signature(), func() (*core.Plan, error) { return period, nil }); err != nil {
		t.Fatal(err)
	}
	plans := []struct {
		name string
		spec PlanSpec
	}{
		{"cross-2-1", PlanSpec{Tile: TileSpec{Name: "cross:2:1"}}},
		{"hex-ball-1", PlanSpec{Lattice: "hexagonal", Tile: TileSpec{Name: "ball:1"}}},
		{"cubic-cross-3-1", PlanSpec{Lattice: "cubic:3", Tile: TileSpec{Name: "cross:3:1"}}},
		{"tetromino-T", PlanSpec{Tile: TileSpec{Name: "tetromino:T"}}},
		{"rect-2-2-period-2Zx2Z", PlanSpec{Tile: TileSpec{Name: "rect:2:2"}}},
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for _, pl := range plans {
		plan, err := reg.GetSpec(pl.spec)
		if err != nil {
			t.Fatal(err)
		}
		dim, m := plan.Tile().Dim(), int64(plan.Slots())
		pts := make([]lattice.Point, 1021)
		for i := range pts {
			pts[i] = make(lattice.Point, dim)
			for a := range pts[i] {
				pts[i][a] = rng.IntN(2001) - 1000
			}
		}
		// The large window spans two binary chunk frames.
		small, large := lattice.CenteredWindow(dim, 5), lattice.CenteredWindow(dim, 65)
		if dim == 3 {
			small, large = lattice.CenteredWindow(dim, 2), lattice.CenteredWindow(dim, 13)
		}
		if large.Size() <= binChunkPoints {
			t.Fatalf("%s: window of %d points fits one chunk", pl.name, large.Size())
		}
		queries := []struct {
			name string
			pts  []lattice.Point
			win  *lattice.Window
		}{{"points", pts, nil}, {"window", nil, &small}, {"multichunk", nil, &large}}
		for _, q := range queries {
			for _, bin := range []bool{false, true} {
				name := pl.name + "/" + q.name + "/json"
				if bin {
					name = pl.name + "/" + q.name + "/bin"
				}
				t.Run(name, func(t *testing.T) {
					for _, tm := range []int64{-1, 0, m - 1, m, 12345, math.MinInt64, math.MaxInt64} {
						req := BatchRequest{Plan: pl.spec, T: tm}
						var want []bool
						if q.win != nil {
							req.Window = &WindowSpec{Lo: q.win.Lo, Hi: q.win.Hi}
							want, err = QueryWindowMayBroadcast(plan, *q.win, tm, nil)
						} else {
							for _, p := range q.pts {
								req.Points = append(req.Points, p)
							}
							want, err = QueryMayBroadcast(plan, q.pts, tm, nil)
						}
						if err != nil {
							t.Fatal(err)
						}
						var got MayResponse
						if bin {
							resp, body := postBin(t, srv, "/v1/maybroadcast:batch", encodeBatch(req, true, ""))
							if resp.StatusCode != http.StatusOK {
								t.Fatalf("t=%d: status %d: %q", tm, resp.StatusCode, body)
							}
							if got, err = DecodeMayStream(body); err != nil {
								t.Fatalf("t=%d: %v", tm, err)
							}
						} else {
							resp, body := postJSON(t, srv, "/v1/maybroadcast:batch", req)
							if resp.StatusCode != http.StatusOK {
								t.Fatalf("t=%d: status %d: %s", tm, resp.StatusCode, body)
							}
							if err := json.Unmarshal(body, &got); err != nil {
								t.Fatalf("t=%d: %v", tm, err)
							}
						}
						if got.M != plan.Slots() || got.T != tm {
							t.Fatalf("t=%d: reply m=%d t=%d, want m=%d", tm, got.M, got.T, plan.Slots())
						}
						if !slices.Equal(got.May, want) {
							t.Fatalf("t=%d: %d flags differ from the reference engine's %d", tm, len(got.May), len(want))
						}
					}
				})
			}
		}
	}
}

func TestServerHealthz(t *testing.T) {
	srv := newTestServer(t, ServerOptions{})
	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hr HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !hr.OK {
		t.Errorf("healthz: status %d ok=%v", resp.StatusCode, hr.OK)
	}
}

func TestServerErrors(t *testing.T) {
	srv := newTestServer(t, ServerOptions{MaxBatch: 4, MaxWindow: 100})
	cross := PlanSpec{Tile: TileSpec{Name: "cross:2:1"}}
	cases := []struct {
		name   string
		path   string
		body   any
		status int
	}{
		{"unknown tile", "/v1/plan", PlanRequest{Plan: PlanSpec{Tile: TileSpec{Name: "nope"}}}, http.StatusBadRequest},
		{"inexact tile", "/v1/plan", PlanRequest{Plan: PlanSpec{Tile: TileSpec{Points: [][]int{{0, 0}, {2, 0}}}}}, http.StatusUnprocessableEntity},
		{"no tile", "/v1/slots:batch", BatchRequest{Points: [][]int{{0, 0}}}, http.StatusBadRequest},
		{"points and window", "/v1/slots:batch", BatchRequest{Plan: cross,
			Points: [][]int{{0, 0}}, Window: &WindowSpec{Lo: []int{0, 0}, Hi: []int{1, 1}}}, http.StatusBadRequest},
		{"neither points nor window", "/v1/slots:batch", BatchRequest{Plan: cross}, http.StatusBadRequest},
		{"batch too large", "/v1/slots:batch", BatchRequest{Plan: cross,
			Points: [][]int{{0, 0}, {0, 1}, {0, 2}, {0, 3}, {0, 4}}}, http.StatusRequestEntityTooLarge},
		{"window too large", "/v1/slots:batch", BatchRequest{Plan: cross,
			Window: &WindowSpec{Lo: []int{0, 0}, Hi: []int{99, 99}}}, http.StatusRequestEntityTooLarge},
		{"bad window", "/v1/slots:batch", BatchRequest{Plan: cross,
			Window: &WindowSpec{Lo: []int{5, 5}, Hi: []int{0, 0}}}, http.StatusBadRequest},
		{"wrong-dimension point", "/v1/slots:batch", BatchRequest{Plan: cross,
			Points: [][]int{{1, 2, 3}}}, http.StatusBadRequest},
		// Unbounded tile-spec parameters must be rejected before any
		// points materialize (resource-exhaustion guard).
		{"huge rect tile", "/v1/plan", PlanRequest{Plan: PlanSpec{Tile: TileSpec{Name: "rect:1000000:1000000"}}}, http.StatusBadRequest},
		{"huge cross tile", "/v1/plan", PlanRequest{Plan: PlanSpec{Tile: TileSpec{Name: "cross:16:1000"}}}, http.StatusBadRequest},
		{"huge ball tile", "/v1/plan", PlanRequest{Plan: PlanSpec{Tile: TileSpec{Name: "ball:1e9"}}}, http.StatusBadRequest},
		{"NaN ball tile", "/v1/plan", PlanRequest{Plan: PlanSpec{Tile: TileSpec{Name: "ball:NaN"}}}, http.StatusBadRequest},
		{"Inf ball tile", "/v1/plan", PlanRequest{Plan: PlanSpec{Tile: TileSpec{Name: "ball:+Inf"}}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, srv, tc.path, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, body)
		}
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Errorf("%s: reply %q is not an error body", tc.name, body)
		}
	}

	// Method mismatches answer 405 via the mux method patterns.
	resp, err := srv.Client().Get(srv.URL + "/v1/slots:batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET on batch endpoint: status %d, want 405", resp.StatusCode)
	}
}

// TestServerCustomTilePoints exercises the explicit-points tile spec and
// a named lattice end to end.
func TestServerCustomTilePoints(t *testing.T) {
	srv := newTestServer(t, ServerOptions{})
	spec := PlanSpec{
		Lattice: "hexagonal",
		Tile:    TileSpec{Points: [][]int{{0, 0}, {1, 0}, {0, 1}}},
	}
	resp, body := postJSON(t, srv, "/v1/plan", PlanRequest{Plan: spec})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var pr PlanResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Slots != 3 || pr.Lattice != "hexagonal" {
		t.Errorf("plan response %+v, want 3 slots on hexagonal", pr)
	}
}

// TestAppendJSONMatchesEncoder pins the batch answer encoders to the
// bytes json.Encoder writes, on nil, empty and non-empty answers and on
// negative and extreme times.
func TestAppendJSONMatchesEncoder(t *testing.T) {
	encode := func(v any) []byte {
		var b bytes.Buffer
		if err := json.NewEncoder(&b).Encode(v); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	for _, r := range []SlotsResponse{
		{M: 5},
		{M: 5, Slots: []int32{}},
		{M: 1, Slots: []int32{0}},
		{M: 1 << 30, Slots: []int32{4, 0, 1<<31 - 1, 17, -1 << 31}},
		{M: 11, Slots: []int32{9, 10, 0, -1, 100}}, // around the one-byte slot
	} {
		if got, want := appendSlotsJSON([]byte("prefix"), r), append([]byte("prefix"), encode(r)...); !bytes.Equal(got, want) {
			t.Errorf("appendSlotsJSON(%+v) = %q, want %q", r, got, want)
		}
	}
	// A may answer is encoded from its slot run: flag i is
	// slots[i] == t mod m.
	for _, c := range []struct {
		m     int
		t     int64
		slots []int32
		may   []bool
	}{
		{m: 5},
		{m: 5, t: -1, slots: []int32{}, may: []bool{}},
		{m: 3, t: 1<<63 - 1, slots: []int32{1}, may: []bool{true}}, // (2^63 − 1) mod 3 = 1
		{m: 3, t: 1<<63 - 1, slots: []int32{0, 2}, may: []bool{false, false}},
		{m: 25, t: -1 << 63, slots: []int32{0, 17, 17, 24}, may: []bool{false, true, true, false}}, // −2^63 mod 25 = 17
		{m: 5, t: -1, slots: []int32{4, 0, 4, 3, 4, 4, 4, 4, 1}, may: []bool{true, false, true, false, true, true, true, true, false}},
	} {
		r := MayResponse{M: c.m, T: c.t, May: c.may}
		if got, want := appendMayJSON([]byte("prefix"), c.m, c.t, c.slots), append([]byte("prefix"), encode(r)...); !bytes.Equal(got, want) {
			t.Errorf("appendMayJSON(%d, %d, %v) = %q, want %q", c.m, c.t, c.slots, got, want)
		}
	}
}

// raceEnabled reports a -race build (race_test.go).
var raceEnabled bool

// TestJSONBatchFraming pins the framing of a JSON batch answer past
// net/http's 2,048-byte write buffer: a 1,024-point slots answer (2,066
// bytes at m = 5) carries its Content-Length and is not chunked.
func TestJSONBatchFraming(t *testing.T) {
	srv := newTestServer(t, ServerOptions{})
	points := make([][]int, 1024)
	for i := range points {
		points[i] = []int{i*7%2001 - 1000, i*13%2001 - 1000}
	}
	resp, body := postJSON(t, srv, "/v1/slots:batch", BatchRequest{Plan: PlanSpec{Tile: TileSpec{Name: "cross:2:1"}}, Points: points})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) > 0 {
		t.Errorf("%d-byte answer: Content-Length %d, Transfer-Encoding %q", len(body), resp.ContentLength, resp.TransferEncoding)
	}
}

// TestJSONBatchAllocs bounds the allocations of a 1,024-point JSON
// slots or may-broadcast batch through ServeHTTP, request and recorder
// included: the canonical scan fills the pooled arena and the answer is
// appended, so the count no longer grows with the batch (encoding/json
// made ~2,400).
func TestJSONBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector, sync.Pool drops pooled buffers at random")
	}
	s := NewServer(NewRegistry(8), ServerOptions{})
	points := make([][]int, 1024)
	for i := range points {
		points[i] = []int{i*7%2001 - 1000, i*13%2001 - 1000}
	}
	body, err := json.Marshal(BatchRequest{Plan: PlanSpec{Tile: TileSpec{Name: "cross:2:1"}}, Points: points, T: 12345})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/v1/slots:batch", "/v1/maybroadcast:batch"} {
		serve := func() {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
			}
		}
		serve()
		if n := testing.AllocsPerRun(20, serve); n > 60 {
			t.Errorf("%s: 1,024-point JSON batch allocates %.0f per request, want ≤ 60", path, n)
		}
	}
}
