package service

// End-to-end coverage of the epoch-propagation tracing plane
// (DESIGN.md §14): W3C traceparent propagation on the JSON codec, the
// binary trace-extension frame, the mutate→WAL→publish→deliver span
// tree, the slow-log trace link, the /statusz lag watermarks, and the
// zero-allocation guard on the untraced hot path.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tilingsched/internal/obs/trace"
	"tilingsched/internal/service/binwire"
)

// traceMutate posts one JSON mutate request and returns the recorder.
func traceMutate(t *testing.T, s *Server, body string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/plan:mutate", strings.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("mutate: %d %s", rec.Code, rec.Body)
	}
	return rec
}

const tracingMutateBody = `{"plan":{"tile":{"name":"cross:2:1"}},"window":{"lo":[0,0],"hi":[4,4]},"events":[{"op":"leave","p":[%d,%d]}]}`

// TestTraceExtRoundtrip pins the binary trace-extension frame codec:
// encode → decode recovers the context and yields exactly the trailing
// bytes, and non-extension inputs pass through untouched.
func TestTraceExtRoundtrip(t *testing.T) {
	want := trace.Context{Sampled: true}
	want.TraceID[0], want.TraceID[15] = 0xab, 0x01
	want.Parent[3] = 0x7f
	var e binwire.Buffer
	EncodeTraceExt(&e, want)
	payload := []byte("request frame bytes")
	data := append(append([]byte(nil), e.Bytes()...), payload...)

	got, rest := DecodeTraceExt(data)
	if got != want {
		t.Fatalf("DecodeTraceExt = %+v, want %+v", got, want)
	}
	if !bytes.Equal(rest, payload) {
		t.Fatalf("rest = %q, want %q", rest, payload)
	}

	// Unsampled flag survives.
	want.Sampled = false
	e.Reset()
	EncodeTraceExt(&e, want)
	if got, _ := DecodeTraceExt(e.Bytes()); got.Sampled {
		t.Fatal("unsampled context decoded as sampled")
	}

	// Non-extension bytes pass through untouched with a zero context.
	for _, in := range [][]byte{nil, {}, []byte("short"), payload} {
		ctx, rest := DecodeTraceExt(in)
		if ctx.Valid() || !bytes.Equal(rest, in) {
			t.Fatalf("passthrough of %q: ctx %+v rest %q", in, ctx, rest)
		}
	}

	// A well-formed frame carrying the invalid all-zero IDs is stripped
	// but yields no context.
	e.Reset()
	EncodeTraceExt(&e, trace.Context{Sampled: true})
	data = append(append([]byte(nil), e.Bytes()...), payload...)
	ctx, rest := DecodeTraceExt(data)
	if ctx.Valid() {
		t.Fatal("all-zero IDs produced a valid context")
	}
	if !bytes.Equal(rest, payload) {
		t.Fatalf("zero-ID frame not stripped: rest %q", rest)
	}
}

// TestTraceparentJSONPropagation drives a mutate request carrying a
// W3C traceparent through a sampling server: the server must join the
// caller's trace (same trace ID, remote), echo a traceparent response
// header, and retain the span tree at the recorder.
func TestTraceparentJSONPropagation(t *testing.T) {
	s := NewServer(NewRegistry(4), ServerOptions{TraceSampleEvery: 1})
	const parent = "00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01"
	rec := traceMutate(t, s, jsonMutateAt(1, 1),
		map[string]string{"Traceparent": parent})

	echo := rec.Header().Get("Traceparent")
	c, ok := trace.ParseTraceparent(echo)
	if !ok {
		t.Fatalf("response traceparent %q does not parse", echo)
	}
	if got := c.TraceID.String(); got != "0123456789abcdef0123456789abcdef" {
		t.Fatalf("echoed trace ID %s, want the caller's", got)
	}
	v, ok := s.Traces().Lookup("0123456789abcdef0123456789abcdef")
	if !ok {
		t.Fatal("joined trace not in the ring")
	}
	if !v.Remote || v.Kind != "mutate" {
		t.Fatalf("joined trace view: %+v", v)
	}
	if v.ParentSpanID != "00f067aa0ba902b7" {
		t.Fatalf("parent span ID %s, want the caller's", v.ParentSpanID)
	}
	names := spanNames(v)
	for _, want := range []string{"overlay-apply", "hub-publish", "decode", "engine"} {
		if want == "hub-publish" && !names["hub-publish"] {
			continue // no subscriber attached: publish is skipped
		}
		if want != "hub-publish" && !names[want] {
			t.Fatalf("trace missing %q span: %v", want, v.Spans)
		}
	}
	checkPhaseNesting(t, v)
}

// TestTraceparentUnsampledIgnored: a propagated context without the
// sampled flag must not force a trace on a non-sampling server.
func TestTraceparentUnsampledIgnored(t *testing.T) {
	s := NewServer(NewRegistry(4), ServerOptions{}) // sampling off
	rec := traceMutate(t, s, jsonMutateAt(1, 1),
		map[string]string{"Traceparent": "00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-00"})
	if h := rec.Header().Get("Traceparent"); h != "" {
		t.Fatalf("unsampled request echoed traceparent %q", h)
	}
	if n := s.Traces().Started.Load(); n != 0 {
		t.Fatalf("%d traces started, want 0", n)
	}
}

// TestTraceSpanTreeEndToEnd drives the full propagation pipeline with
// persistence and a live subscriber: one sampled mutate must retain a
// trace whose spans cover overlay-apply, wal-append, hub-publish, and
// the subscriber's deliver — each stamped with the epoch.
func TestTraceSpanTreeEndToEnd(t *testing.T) {
	s := NewServer(NewRegistry(4), ServerOptions{TraceSampleEvery: 1})
	if err := s.EnablePersistence(PersistOptions{Dir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	spec := PlanSpec{Tile: TileSpec{Name: "cross:2:1"}}
	ws := WindowSpec{Lo: []int{0, 0}, Hi: []int{4, 4}}
	feed, err := s.Subscribe(spec, ws, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer feed.Close()

	traceMutate(t, s, jsonMutateAt(2, 2), nil)

	var d *Delta
	select {
	case d = <-feed.C:
	case <-time.After(5 * time.Second):
		t.Fatal("no delta delivered")
	}
	feed.Mark(d)

	views := s.Traces().Snapshot()
	var mutateView *trace.View
	for i := range views {
		if views[i].Kind == "mutate" {
			mutateView = &views[i]
			break
		}
	}
	if mutateView == nil {
		t.Fatalf("no mutate trace in ring: %+v", views)
	}
	names := spanNames(*mutateView)
	for _, want := range []string{"overlay-apply", "wal-append", "hub-publish", "deliver"} {
		if !names[want] {
			t.Fatalf("span tree missing %q: %v", want, mutateView.Spans)
		}
	}
	for _, sp := range mutateView.Spans {
		switch sp.Name {
		case "overlay-apply", "wal-append", "hub-publish", "deliver":
			if sp.Epoch != 1 {
				t.Fatalf("span %s at epoch %d, want 1", sp.Name, sp.Epoch)
			}
			if sp.EndNs < sp.StartNs {
				t.Fatalf("span %s ends before it starts: %+v", sp.Name, sp)
			}
		}
	}

	checkPhaseNesting(t, *mutateView)

	// The exemplar ring links the delivery back to this trace.
	exs := s.met.exemplars()
	if len(exs) == 0 || exs[0].TraceID != mutateView.TraceID || exs[0].Epoch != 1 {
		t.Fatalf("exemplars = %+v, want trace %s at epoch 1", exs, mutateView.TraceID)
	}
}

// checkPhaseNesting asserts that one clock stamped a mutate trace: its
// decode, engine and encode spans run in that order without
// overlapping and end before the trace finished, and every epoch span
// lies inside the engine span.
func checkPhaseNesting(t *testing.T, v trace.View) {
	t.Helper()
	var phases []trace.Span
	for _, sp := range v.Spans {
		if sp.Name == "decode" || sp.Name == "engine" || sp.Name == "encode" {
			phases = append(phases, sp)
		}
	}
	if len(phases) != 3 || phases[0].Name != "decode" || phases[1].Name != "engine" || phases[2].Name != "encode" {
		t.Fatalf("phases %+v, want decode, engine, encode", phases)
	}
	for i := 1; i < len(phases); i++ {
		if prev, cur := phases[i-1], phases[i]; prev.StartNs > prev.EndNs || prev.EndNs > cur.StartNs {
			t.Fatalf("phase %+v overlaps or follows %+v", prev, cur)
		}
	}
	if last := phases[2]; last.EndNs > v.DurationNs {
		t.Fatalf("phase %+v ends after the trace finished at %d ns", last, v.DurationNs)
	}
	engine := phases[1]
	for _, sp := range v.Spans {
		switch sp.Name {
		case "overlay-apply", "wal-append", "hub-publish":
			if sp.StartNs < engine.StartNs || sp.EndNs > engine.EndNs {
				t.Fatalf("span %+v lies outside the engine phase %+v", sp, engine)
			}
		}
	}
}

// spanNames collects the set of span names in a view.
func spanNames(v trace.View) map[string]bool {
	names := make(map[string]bool, len(v.Spans))
	for _, sp := range v.Spans {
		names[sp.Name] = true
	}
	return names
}

// TestTraceExtBinaryJoin sends a binary mutate prefixed with a
// trace-extension frame to a non-sampling server: the in-band sampled
// context must join exactly like a traceparent header would.
func TestTraceExtBinaryJoin(t *testing.T) {
	s := NewServer(NewRegistry(4), ServerOptions{}) // sampling off: only the join records
	var c trace.Context
	c.TraceID[7], c.Parent[2], c.Sampled = 0x42, 0x03, true

	var e binwire.Buffer
	EncodeTraceExt(&e, c)
	if err := EncodeMutateBinary(&e, MutateRequest{
		Plan:   PlanSpec{Tile: TileSpec{Name: "cross:2:1"}},
		Window: WindowSpec{Lo: []int{0, 0}, Hi: []int{4, 4}},
		Events: []EventSpec{{Op: "leave", P: []int{1, 1}}},
	}, ""); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/v1/plan:mutate", bytes.NewReader(e.Bytes()))
	req.Header.Set("Content-Type", BinaryContentType)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("binary mutate: %d", rec.Code)
	}

	v, ok := s.Traces().Lookup(c.TraceID.String())
	if !ok {
		t.Fatal("in-band joined trace not in the ring")
	}
	if !v.Remote || v.Kind != "mutate" {
		t.Fatalf("joined trace view: %+v", v)
	}
	if !spanNames(v)["overlay-apply"] {
		t.Fatalf("joined trace missing the epoch timeline: %v", v.Spans)
	}
	// Joined mid-decode, the trace still gets phases on its own clock.
	checkPhaseNesting(t, v)

	// An unsampled extension frame must strip cleanly and trace nothing.
	e.Reset()
	c.Sampled = false
	EncodeTraceExt(&e, c)
	if err := EncodeMutateBinary(&e, MutateRequest{
		Plan:   PlanSpec{Tile: TileSpec{Name: "cross:2:1"}},
		Window: WindowSpec{Lo: []int{0, 0}, Hi: []int{4, 4}},
		Events: []EventSpec{{Op: "leave", P: []int{2,
			2}}},
	}, ""); err != nil {
		t.Fatal(err)
	}
	started := s.Traces().Started.Load()
	req = httptest.NewRequest("POST", "/v1/plan:mutate", bytes.NewReader(e.Bytes()))
	req.Header.Set("Content-Type", BinaryContentType)
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("binary mutate: %d %s", rec.Code, rec.Body)
	}
	if got := s.Traces().Started.Load(); got != started {
		t.Fatalf("unsampled extension started a trace (%d → %d)", started, got)
	}
}

// TestSlowLogLinksTrace pins always-sample-on-slow: with sampling off
// and an everything-is-slow threshold, the slow-log entry must carry a
// trace ID that resolves in the ring to a forced trace with the phase
// spans.
func TestSlowLogLinksTrace(t *testing.T) {
	slow := make(chan SlowRequest, 1)
	s := NewServer(NewRegistry(4), ServerOptions{
		SlowThreshold: time.Nanosecond,
		SlowLog: func(sr SlowRequest) {
			select {
			case slow <- sr:
			default:
			}
		},
	})
	traceMutate(t, s, jsonMutateAt(1, 1), nil)
	select {
	case sr := <-slow:
		if sr.Trace == "" {
			t.Fatalf("slow entry has no trace ID: %+v", sr)
		}
		v, ok := s.Traces().Lookup(sr.Trace)
		if !ok {
			t.Fatalf("slow trace %s not in the ring", sr.Trace)
		}
		if !v.Forced {
			t.Fatalf("retro-sampled trace not marked forced: %+v", v)
		}
		checkPhaseNesting(t, v)
	default:
		t.Fatal("no slow entry captured")
	}
}

// TestStatuszWatermarks drives churn past a lagging subscriber and
// checks the introspection plane end to end: lag watermarks reflect
// the backlog, then return to zero once the subscriber catches up, and
// the HTTP handler serves both JSON and HTML.
func TestStatuszWatermarks(t *testing.T) {
	s := NewServer(NewRegistry(4), ServerOptions{TraceSampleEvery: 1})
	if err := s.EnablePersistence(PersistOptions{Dir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	spec := PlanSpec{Tile: TileSpec{Name: "cross:2:1"}}
	ws := WindowSpec{Lo: []int{0, 0}, Hi: []int{4, 4}}
	feed, err := s.Subscribe(spec, ws, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer feed.Close()

	const epochs = 3
	points := [][2]int{{1, 1}, {2, 2}, {3, 3}}
	for i := 0; i < epochs; i++ {
		traceMutate(t, s, jsonMutateAt(points[i][0], points[i][1]), nil)
	}

	resp := s.Statusz()
	if len(resp.Sessions) != 1 {
		t.Fatalf("sessions = %+v, want 1", resp.Sessions)
	}
	row := resp.Sessions[0]
	if row.Epoch != epochs || row.Subscribers != 1 {
		t.Fatalf("row = %+v", row)
	}
	if row.QueueSum != epochs || row.QueueMax != epochs {
		t.Fatalf("queue depths %d/%d, want %d undelivered", row.QueueMax, row.QueueSum, epochs)
	}
	if row.LagEpochsMax != epochs || resp.LagEpochsMax != epochs {
		t.Fatalf("lag epochs max %d/%d, want %d", row.LagEpochsMax, resp.LagEpochsMax, epochs)
	}
	if row.WALBytes == 0 || row.WALEvents != epochs {
		t.Fatalf("WAL stats %d bytes / %d events", row.WALBytes, row.WALEvents)
	}
	if resp.TraceSampleEvery != 1 || resp.TracesFinished == 0 {
		t.Fatalf("trace counters %+v", resp)
	}

	// Catch up: drain and mark every delta, then the watermarks must
	// read zero — the "churn stopped, everyone caught up" signal.
	for i := 0; i < epochs; i++ {
		select {
		case d := <-feed.C:
			feed.Mark(d)
		case <-time.After(5 * time.Second):
			t.Fatal("delta missing")
		}
	}
	resp = s.Statusz()
	row = resp.Sessions[0]
	if row.LagEpochsMax != 0 || row.LagTimeNsMax != 0 || row.QueueSum != 0 {
		t.Fatalf("caught-up row still lags: %+v", row)
	}
	if resp.LagEpochsMax != 0 || resp.LagTimeNsMax != 0 {
		t.Fatalf("caught-up globals still lag: %+v", resp)
	}
	if resp.PropagationP99Ns <= 0 || len(resp.PropagationExemplars) == 0 {
		t.Fatalf("propagation summary empty: %+v", resp)
	}

	// The wire faces: JSON decodes into the same shape, HTML renders.
	rec := httptest.NewRecorder()
	s.HandleStatusz(rec, httptest.NewRequest("GET", "/statusz", nil))
	var wire StatuszResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &wire); err != nil {
		t.Fatalf("statusz JSON: %v", err)
	}
	if len(wire.Sessions) != 1 || wire.Sessions[0].Epoch != epochs {
		t.Fatalf("wire statusz %+v", wire)
	}
	rec = httptest.NewRecorder()
	s.HandleStatusz(rec, httptest.NewRequest("GET", "/statusz?format=html", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("html content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "<table") {
		t.Fatal("html statusz has no table")
	}

	// /debug/traces serves the ring as JSON.
	rec = httptest.NewRecorder()
	s.HandleTraces(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	var dump trace.Dump
	if err := json.Unmarshal(rec.Body.Bytes(), &dump); err != nil {
		t.Fatalf("traces JSON: %v", err)
	}
	if dump.SampleEvery != 1 || len(dump.Traces) == 0 {
		t.Fatalf("traces dump %+v", dump)
	}
}

// jsonMutateAt renders a one-leave mutate body at (x, y).
func jsonMutateAt(x, y int) string {
	return fmt.Sprintf(tracingMutateBody, x, y)
}

// TestUntracedHotPathZeroAlloc is the tracing plane's zero-overhead
// guard: with sampling off, the per-request trace decision and the
// per-delivery bookkeeping must not allocate, preserving the
// instrumented path's 0 allocs/op contract (BENCH baseline).
func TestUntracedHotPathZeroAlloc(t *testing.T) {
	s := NewServer(NewRegistry(2), ServerOptions{}) // sampling off
	req := httptest.NewRequest("POST", "/v1/slots:batch", nil)
	if n := testing.AllocsPerRun(1000, func() {
		if vals := req.Header[traceparentHeader]; len(vals) > 0 {
			t.Fatal("unexpected traceparent")
		}
		if sp := s.rec.Start("slots"); sp != nil {
			t.Fatal("sampling off yielded a span")
		}
	}); n != 0 {
		t.Fatalf("untraced request decision allocates %v per run, want 0", n)
	}

	sub := &subscriber{ch: make(chan *Delta, 1)}
	live := &Delta{Epoch: 1, PubTime: time.Now()}
	catch := &Delta{Epoch: 1}
	if n := testing.AllocsPerRun(1000, func() {
		s.markDelivered(sub, live)
		s.markDelivered(sub, catch)
	}); n != 0 {
		t.Fatalf("untraced delivery bookkeeping allocates %v per run, want 0", n)
	}
}

// FuzzDecodeTraceExt pins the trace-extension strip under the funnel
// contract: never panic, the remainder is always a suffix of the
// input, and feeding that remainder to a downstream decode funnel
// stays panic-free too.
func FuzzDecodeTraceExt(f *testing.F) {
	var c trace.Context
	c.TraceID[0], c.Parent[0], c.Sampled = 1, 2, true
	seeds := [][]byte{
		binarySeed(func(e *binwire.Buffer) { EncodeTraceExt(e, c) }),
		binarySeed(func(e *binwire.Buffer) {
			EncodeTraceExt(e, c)
			EncodeBatchBinary(e, BatchRequest{
				Plan:   PlanSpec{Tile: TileSpec{Name: "cross:2:1"}},
				Points: [][]int{{3, 4}},
			}, false, "")
		}),
		binarySeed(func(e *binwire.Buffer) { EncodeTraceExt(e, trace.Context{}) }),
		{0x05}, {26, 0, 0, 0, 0x05}, []byte("not a frame"), {},
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ctx, rest := DecodeTraceExt(data)
		if len(rest) > len(data) || (len(rest) > 0 && !bytes.Equal(rest, data[len(data)-len(rest):])) {
			t.Fatalf("rest %q is not a suffix of input %q", rest, data)
		}
		if ctx.Valid() && (ctx.TraceID.IsZero() || ctx.Parent.IsZero()) {
			t.Fatalf("valid context with zero IDs: %+v", ctx)
		}
		var sc BinScratch
		_, _ = DecodeBinaryBatch(rest, Limits{}, &sc)
		_, _ = DecodeBinaryMutate(rest, Limits{})
	})
}
