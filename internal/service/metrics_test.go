package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tilingsched/internal/service/binwire"
)

// TestObserveZeroAlloc is the service layer's zero-overhead guard: the
// instrument wrapper's entire per-request recording (request/error
// counters, latency and phase histograms, batch size, and the warmed
// traffic sketch) must not allocate, or instrumentation would erode
// the engine path's 0 allocs/op contract.
func TestObserveZeroAlloc(t *testing.T) {
	m := newServerMetrics(ServerOptions{})
	tr := &reqTrace{
		sig:   "square|cross:2:1",
		batch: 4096,
		at:    [numPhases][2]int64{{0, 5e3}, {5e3, 85e3}, {85e3, 115e3}},
	}
	// Warm the sketch so the signature is an existing key (steady
	// state: a serving plan's signature is tracked after its first
	// request).
	m.planTraffic.Record(tr.sig, 1)
	if n := testing.AllocsPerRun(1000, func() {
		m.observe(epSlots, codecJSON, 200, 150*time.Microsecond, tr)
		m.observe(epSlots, codecBin, 500, 150*time.Microsecond, tr)
	}); n != 0 {
		t.Fatalf("observe allocates %v per run, want 0", n)
	}
}

// TestSlowSample pins the slow-log gate: below-threshold requests
// never sample, above-threshold ones sample at most once per
// rate-limit interval.
func TestSlowSample(t *testing.T) {
	m := newServerMetrics(ServerOptions{
		SlowThreshold: 10 * time.Millisecond,
		SlowLog:       func(SlowRequest) {},
	})
	now := int64(1_000_000_000_000)
	if m.slowSample(time.Millisecond, now) {
		t.Fatal("fast request sampled")
	}
	if !m.slowSample(20*time.Millisecond, now) {
		t.Fatal("slow request not sampled")
	}
	// Within the rate-limit window: suppressed.
	if m.slowSample(20*time.Millisecond, now+int64(slowLogMinInterval)/2) {
		t.Fatal("rate limit did not suppress")
	}
	// Past the window: sampled again.
	if !m.slowSample(20*time.Millisecond, now+2*int64(slowLogMinInterval)) {
		t.Fatal("sample after the window suppressed")
	}
	// Unconfigured metrics never sample.
	off := newServerMetrics(ServerOptions{})
	if off.slowSample(time.Hour, now) {
		t.Fatal("unconfigured slow log sampled")
	}
}

// TestSlowLogEndToEnd drives a real request through a server with a
// zero-ish threshold and checks the trace carries the request's
// identity and phase split.
func TestSlowLogEndToEnd(t *testing.T) {
	traces := make(chan SlowRequest, 1)
	s := NewServer(NewRegistry(4), ServerOptions{
		SlowThreshold: time.Nanosecond, // everything is slow
		SlowLog: func(sr SlowRequest) {
			select {
			case traces <- sr:
			default:
			}
		},
	})
	body := `{"plan":{"tile":{"name":"cross:2:1"}},"points":[[0,0],[1,2],[3,4]]}`
	req := httptest.NewRequest("POST", "/v1/slots:batch", strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("slots: %d %s", rec.Code, rec.Body)
	}
	select {
	case sr := <-traces:
		if sr.Endpoint != "slots" || sr.Codec != "json" || sr.Status != 200 {
			t.Fatalf("trace identity %+v", sr)
		}
		if sr.BatchPoints != 3 || sr.Signature == "" {
			t.Fatalf("trace payload %+v", sr)
		}
		if sr.Total <= 0 || sr.Engine <= 0 || sr.Decode <= 0 {
			t.Fatalf("trace timings %+v", sr)
		}
	default:
		t.Fatal("no slow trace captured")
	}
}

// TestPhaseRecording pins which phases each kind of request records:
// a binary batch never enters encode, a request rejected before the
// engine (bad bytes, a dimension mismatch) spends its whole time in
// decode, and a plan request has no engine phase.
func TestPhaseRecording(t *testing.T) {
	plan := PlanSpec{Tile: TileSpec{Name: "cross:2:1"}}
	binBatch := func(pts [][]int) []byte {
		return binarySeed(func(e *binwire.Buffer) {
			EncodeBatchBinary(e, BatchRequest{Plan: plan, Points: pts}, false, "")
		})
	}
	const js = "application/json"
	cases := []struct {
		name, path, ct, body string
		want                 [numPhases]uint64 // decode, engine, encode
	}{
		{"json slots", "/v1/slots:batch", js, `{"plan":{"tile":{"name":"cross:2:1"}},"points":[[0,0]]}`, [numPhases]uint64{1, 1, 1}},
		{"bin slots", "/v1/slots:batch", BinaryContentType, string(binBatch([][]int{{0, 0}})), [numPhases]uint64{1, 1, 0}},
		{"bin dimension", "/v1/slots:batch", BinaryContentType, string(binBatch([][]int{{0, 0, 0}})), [numPhases]uint64{1, 0, 0}},
		{"json malformed", "/v1/slots:batch", js, `{"plan":`, [numPhases]uint64{1, 0, 0}},
		{"json mutate", "/v1/plan:mutate", js, jsonMutateAt(1, 1), [numPhases]uint64{1, 1, 1}},
		{"plan", "/v1/plan", js, `{"plan":{"tile":{"name":"cross:2:1"}}}`, [numPhases]uint64{1, 0, 1}},
	}
	for _, c := range cases {
		s := NewServer(NewRegistry(4), ServerOptions{})
		req := httptest.NewRequest("POST", c.path, bytes.NewReader([]byte(c.body)))
		req.Header.Set("Content-Type", c.ct)
		s.ServeHTTP(httptest.NewRecorder(), req)
		for p, h := range s.met.phaseNs {
			if got := h.Snapshot().Count; got != c.want[p] {
				t.Errorf("%s: %s phase recorded %d times, want %d", c.name, phaseNames[p], got, c.want[p])
			}
		}
	}
}

// TestMetricsExposition checks WriteMetrics end-to-end at the package
// level: served traffic shows up in the exposition with the plans
// gauge set at scrape time.
func TestMetricsExposition(t *testing.T) {
	s := NewServer(NewRegistry(4), ServerOptions{})
	body := `{"plan":{"tile":{"name":"cross:2:1"}},"points":[[0,0],[1,2]]}`
	for i := 0; i < 3; i++ {
		req := httptest.NewRequest("POST", "/v1/slots:batch", strings.NewReader(body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("slots: %d %s", rec.Code, rec.Body)
		}
	}
	var sb strings.Builder
	if err := s.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`latticed_requests_total{endpoint="slots",codec="json"} 3`,
		`latticed_registry_misses_total 1`,
		`latticed_registry_hits_total 2`,
		`latticed_plans 1`,
		`latticed_batch_points_count 3`,
		`latticed_batch_points_sum 6`,
		"# TYPE latticed_request_ns histogram",
		`latticed_plan_points_total{signature=`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}
}
