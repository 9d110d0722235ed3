package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

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

func TestServerMayBroadcastEndpoint(t *testing.T) {
	srv := newTestServer(t, ServerOptions{})
	plan := mustPlan(t, prototile.Cross(2, 1))
	pts := [][]int{{3, 4}, {0, 0}, {2, -1}}
	const tm = int64(7)
	resp, body := postJSON(t, srv, "/v1/maybroadcast:batch",
		BatchRequest{Plan: PlanSpec{Tile: TileSpec{Name: "cross:2:1"}}, Points: pts, T: tm})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var mr MayResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.M != 5 || mr.T != tm || len(mr.May) != len(pts) {
		t.Fatalf("reply %+v, want m=5 t=%d %d bits", mr, tm, len(pts))
	}
	for i, c := range pts {
		want, err := plan.MayBroadcast(lattice.Pt(c...), tm)
		if err != nil {
			t.Fatal(err)
		}
		if mr.May[i] != want {
			t.Errorf("may(%v, %d) = %v, want %v", c, tm, mr.May[i], want)
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
	} {
		if got, want := appendSlotsJSON([]byte("prefix"), r), append([]byte("prefix"), encode(r)...); !bytes.Equal(got, want) {
			t.Errorf("appendSlotsJSON(%+v) = %q, want %q", r, got, want)
		}
	}
	for _, r := range []MayResponse{
		{M: 5},
		{M: 5, T: -1, May: []bool{}},
		{M: 3, T: 1<<63 - 1, May: []bool{true}},
		{M: 25, T: -1 << 63, May: []bool{false, true, true, false}},
	} {
		if got, want := appendMayJSON([]byte("prefix"), r), append([]byte("prefix"), encode(r)...); !bytes.Equal(got, want) {
			t.Errorf("appendMayJSON(%+v) = %q, want %q", r, got, want)
		}
	}
}

// raceEnabled reports a -race build (race_test.go).
var raceEnabled bool

// TestJSONBatchAllocs bounds the allocations of a 1,024-point JSON
// slots batch through ServeHTTP, request and recorder included: the
// canonical scan fills the pooled arena and the answer is appended, so
// the count no longer grows with the batch (encoding/json made ~2,400).
func TestJSONBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector, sync.Pool drops pooled buffers at random")
	}
	s := NewServer(NewRegistry(8), ServerOptions{})
	points := make([][]int, 1024)
	for i := range points {
		points[i] = []int{i*7%2001 - 1000, i*13%2001 - 1000}
	}
	body, err := json.Marshal(BatchRequest{Plan: PlanSpec{Tile: TileSpec{Name: "cross:2:1"}}, Points: points})
	if err != nil {
		t.Fatal(err)
	}
	serve := func() {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/slots:batch", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	serve()
	if n := testing.AllocsPerRun(20, serve); n > 60 {
		t.Errorf("1,024-point JSON batch allocates %.0f per request, want ≤ 60", n)
	}
}
