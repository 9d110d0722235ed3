package service

// Push-plane suite (DESIGN.md §13): the subscribe funnels accept and
// reject per contract, hub publishing never blocks the mutate path (a
// slow subscriber is dropped to a resync, not waited on), streams carry
// every epoch in order in both codecs, stale subscribers are caught up
// from the WAL or answered with a full resync, session eviction closes
// every subscriber with a terminal frame, and the whole plane survives
// concurrent churn under the race detector.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tilingsched/internal/lattice"
	"tilingsched/internal/service/binwire"
)

const subTestWindow = `"window":{"lo":[0,0],"hi":[4,4]}`

func subBody(extra string) string {
	b := `{"plan":{"tile":{"name":"cross:2:1"}},` + subTestWindow
	if extra != "" {
		b += "," + extra
	}
	return b + "}"
}

// openStream posts a subscribe body and wraps the streaming response.
// The returned cancel aborts the request (client-side disconnect).
func openStream(t *testing.T, url, contentType string, body []byte) (*SubscribeStream, *http.Response, context.CancelFunc) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", url+"/v1/plan:subscribe", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("building request: %v", err)
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatalf("POST subscribe: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		cancel()
		t.Fatalf("subscribe status %d: %s", resp.StatusCode, data)
	}
	st, err := OpenSubscribeStream(resp.Body, resp.Header.Get("Content-Type"))
	if err != nil {
		resp.Body.Close()
		cancel()
		t.Fatalf("opening stream: %v", err)
	}
	return st, resp, cancel
}

// applyDelta folds a stream delta into a key→slot assignment copy.
func applyDelta(copyMap map[string]int, d SubscribeDelta) {
	if d.Full {
		clear(copyMap)
	}
	for _, ch := range d.Changed {
		if ch.Slot < 0 {
			delete(copyMap, lattice.Point(ch.P).Key())
		} else {
			copyMap[lattice.Point(ch.P).Key()] = ch.Slot
		}
	}
}

// TestSubHubSlowDropNeverBlocks pins the hub's core invariant at the
// unit level: publish completes immediately against a full queue,
// dropping the subscriber (reason set, channel closed) instead of
// waiting for it.
func TestSubHubSlowDropNeverBlocks(t *testing.T) {
	var h subHub
	sub := &subscriber{ch: make(chan *Delta, 1)}
	if !h.attach(sub, 4) {
		t.Fatal("attach refused below the cap")
	}
	if !h.active() {
		t.Fatal("hub inactive with a subscriber attached")
	}
	d1 := &Delta{Epoch: 1}
	if del, drop := h.publish(d1); del != 1 || drop != 0 {
		t.Fatalf("first publish: delivered=%d dropped=%d", del, drop)
	}
	// Queue depth 1 is now full: the next publish must return at once,
	// with the subscriber dropped. A guard goroutine fails the test if
	// publish stalls instead.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if del, drop := h.publish(&Delta{Epoch: 2}); del != 0 || drop != 1 {
			t.Errorf("overflow publish: delivered=%d dropped=%d", del, drop)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("publish blocked on a full subscriber queue")
	}
	if got := <-sub.ch; got != d1 {
		t.Fatalf("queued delta lost: %+v", got)
	}
	if _, open := <-sub.ch; open {
		t.Fatal("dropped subscriber's channel left open")
	}
	if sub.reason != byeSlow {
		t.Fatalf("drop reason %q", sub.reason)
	}
	if h.detach(sub) {
		t.Fatal("detach succeeded on an already-dropped subscriber")
	}
	if h.active() {
		t.Fatal("hub still active after the drop")
	}
}

// TestSubHubCloseAll pins the eviction terminal: every subscriber's
// channel closes with the eviction reason, exactly once.
func TestSubHubCloseAll(t *testing.T) {
	var h subHub
	subs := make([]*subscriber, 3)
	for i := range subs {
		subs[i] = &subscriber{ch: make(chan *Delta, 1)}
		h.attach(subs[i], 8)
	}
	if n := h.closeAll(byeEvicted); n != 3 {
		t.Fatalf("closeAll closed %d, want 3", n)
	}
	for i, sub := range subs {
		if _, open := <-sub.ch; open {
			t.Fatalf("subscriber %d channel open after closeAll", i)
		}
		if sub.reason != byeEvicted {
			t.Fatalf("subscriber %d reason %q", i, sub.reason)
		}
	}
	if n := h.closeAll(byeEvicted); n != 0 {
		t.Fatalf("second closeAll closed %d", n)
	}
}

// TestDecodeSubscribeRequestContract pins the JSON funnel.
func TestDecodeSubscribeRequestContract(t *testing.T) {
	lim := Limits{MaxWindow: 100}
	req, win, err := DecodeSubscribeRequest([]byte(subBody(`"epoch":3`)), lim)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if win.Size() != 25 || req.Epoch == nil || *req.Epoch != 3 {
		t.Fatalf("decoded %+v |w|=%d", req, win.Size())
	}
	if _, _, err := DecodeSubscribeRequest([]byte(subBody("")), lim); err != nil {
		t.Fatalf("epoch-less request rejected: %v", err)
	}
	cases := []struct {
		name, body string
		wantLimit  bool
	}{
		{"bad json", `{"window":`, false},
		{"no window", `{"plan":{"tile":{"name":"cross:2:1"}}}`, false},
		{"inverted window", `{"window":{"lo":[4,4],"hi":[0,0]}}`, false},
		{"window too large", `{"window":{"lo":[0,0],"hi":[99,99]}}`, true},
	}
	for _, tc := range cases {
		_, _, err := DecodeSubscribeRequest([]byte(tc.body), lim)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if tc.wantLimit != errors.Is(err, ErrLimit) {
			t.Errorf("%s: error class %v", tc.name, err)
		}
	}
}

// TestBinarySubscribeRoundTrip pins the binary request codec against
// its JSON twin: encode → decode preserves the spec, and malformed
// frames fail the funnel without panicking.
func TestBinarySubscribeRoundTrip(t *testing.T) {
	e := binwire.Get()
	defer binwire.Put(e)
	epoch := uint64(7)
	req := SubscribeRequest{
		Plan:   PlanSpec{Tile: TileSpec{Name: "cross:2:1"}},
		Window: WindowSpec{Lo: []int{-1, 0}, Hi: []int{3, 4}},
		Epoch:  &epoch,
	}
	EncodeSubscribeBinary(e, req, "")
	got, err := DecodeBinarySubscribe(e.Bytes(), Limits{MaxWindow: 100})
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !got.HasEpoch || got.Epoch != 7 || got.Plan.Spec.Tile.Name != "cross:2:1" {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	if got.Window.String() != "[(-1, 0) .. (3, 4)]" {
		t.Fatalf("window %s", got.Window)
	}

	// By-signature reference and no epoch.
	e.Reset()
	EncodeSubscribeBinary(e, SubscribeRequest{Window: req.Window}, "sig-abc")
	got, err = DecodeBinarySubscribe(e.Bytes(), Limits{MaxWindow: 100})
	if err != nil {
		t.Fatalf("decode sig ref: %v", err)
	}
	if got.HasEpoch || got.Plan.Signature != "sig-abc" {
		t.Fatalf("sig ref round trip: %+v", got)
	}

	// Wrong frame type, trailing garbage, oversized window.
	e.Reset()
	e.BeginFrame(binwire.FrameMutate)
	e.EndFrame()
	if _, err := DecodeBinarySubscribe(e.Bytes(), Limits{}); err == nil {
		t.Fatal("mutate frame accepted as subscribe")
	}
	e.Reset()
	EncodeSubscribeBinary(e, SubscribeRequest{Window: req.Window}, "sig")
	if _, err := DecodeBinarySubscribe(append(e.Bytes(), 0x00), Limits{MaxWindow: 100}); err == nil {
		t.Fatal("trailing byte accepted")
	}
	e.Reset()
	EncodeSubscribeBinary(e, SubscribeRequest{Window: WindowSpec{Lo: []int{0, 0}, Hi: []int{99, 99}}}, "sig")
	if _, err := DecodeBinarySubscribe(e.Bytes(), Limits{MaxWindow: 100}); !errors.Is(err, ErrLimit) {
		t.Fatalf("oversized window: %v", err)
	}
}

// TestDeltaFrameRoundTrip pins the stream's delta codec, including the
// full flag and negative coordinates/slots.
func TestDeltaFrameRoundTrip(t *testing.T) {
	e := binwire.Get()
	defer binwire.Put(e)
	d := &Delta{Epoch: 9, M: 6, Alive: 24, Full: true, Changed: []ChangeSpec{
		{P: []int{-3, 7}, Slot: 5},
		{P: []int{0, 0}, Slot: -1},
	}}
	encodeDeltaFrame(e, d)
	stream := binwire.NewReader(e.Bytes())
	typ, pr := stream.Frame()
	if stream.Err() != nil || typ != binwire.FrameDelta {
		t.Fatalf("frame type %#x err %v", typ, stream.Err())
	}
	got, err := decodeDeltaFrame(&pr)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Epoch != 9 || got.M != 6 || got.Alive != 24 || !got.Full || len(got.Changed) != 2 {
		t.Fatalf("round trip: %+v", got)
	}
	if got.Changed[0].P[0] != -3 || got.Changed[0].P[1] != 7 || got.Changed[1].Slot != -1 {
		t.Fatalf("changes: %+v", got.Changed)
	}
}

// TestSubscribeStreamEndToEnd drives the full push loop over HTTP in
// both codecs: subscribe with no epoch (full resync hello), then apply
// mutate batches and check each arrives as an in-order delta matching
// the mutate response.
func TestSubscribeStreamEndToEnd(t *testing.T) {
	for _, codec := range []string{"application/json", BinaryContentType} {
		t.Run(codec, func(t *testing.T) {
			s := NewServer(NewRegistry(8), ServerOptions{})
			srv := httptest.NewServer(s)
			defer srv.Close()

			var body []byte
			if codec == BinaryContentType {
				e := binwire.Get()
				defer binwire.Put(e)
				EncodeSubscribeBinary(e, SubscribeRequest{
					Plan:   PlanSpec{Tile: TileSpec{Name: "cross:2:1"}},
					Window: WindowSpec{Lo: []int{0, 0}, Hi: []int{4, 4}},
				}, "")
				body = append(body, e.Bytes()...)
			} else {
				body = []byte(subBody(""))
			}
			st, resp, cancel := openStream(t, srv.URL, codec, body)
			defer cancel()
			defer resp.Body.Close()

			if st.Hello().Epoch != 0 || st.Hello().M != 5 || st.Hello().Alive != 25 {
				t.Fatalf("hello %+v", st.Hello())
			}
			full, err := st.Next()
			if err != nil {
				t.Fatalf("reading resync delta: %v", err)
			}
			if !full.Full || len(full.Changed) != 25 {
				t.Fatalf("opening delta not a full resync: full=%v |changed|=%d", full.Full, len(full.Changed))
			}
			copyMap := map[string]int{}
			applyDelta(copyMap, full)

			// Three scripted batches; each must arrive as one delta whose
			// change set matches the authoritative mutate response.
			batches := []string{
				`"events":[{"op":"leave","p":[1,1]}]`,
				`"events":[{"op":"join","p":[1,1]},{"op":"fail","p":[2,2]}]`,
				`"events":[{"op":"move","p":[0,0],"to":[6,6]}]`,
			}
			for i, events := range batches {
				want := mutateJSON(t, s, persistBody(events), http.StatusOK)
				d, err := st.Next()
				if err != nil {
					t.Fatalf("batch %d: reading delta: %v", i, err)
				}
				if d.Epoch != want.Epoch || d.Epoch != uint64(i+1) {
					t.Fatalf("batch %d: delta epoch %d, mutate answered %d", i, d.Epoch, want.Epoch)
				}
				if d.M != want.M || d.Alive != want.Alive || d.Full {
					t.Fatalf("batch %d: delta header %+v vs mutate %d/%d", i, d, want.M, want.Alive)
				}
				wantChanged := changedMap(want)
				gotChanged := map[string]int{}
				for _, ch := range d.Changed {
					gotChanged[lattice.Point(ch.P).Key()] = ch.Slot
				}
				if len(gotChanged) != len(wantChanged) {
					t.Fatalf("batch %d: %d changes pushed, mutate answered %d", i, len(gotChanged), len(wantChanged))
				}
				for k, slot := range wantChanged {
					if gotChanged[k] != slot {
						t.Fatalf("batch %d: change %s→%d pushed as %d", i, k, slot, gotChanged[k])
					}
				}
				applyDelta(copyMap, d)
			}

			// The accumulated copy matches a server-side full resync.
			final := mutateJSON(t, s, persistBody(`"events":[],"full":true`), http.StatusOK)
			if len(copyMap) != len(final.Changed) {
				t.Fatalf("copy has %d sensors, resync has %d", len(copyMap), len(final.Changed))
			}
			for _, ch := range final.Changed {
				if copyMap[lattice.Point(ch.P).Key()] != ch.Slot {
					t.Fatalf("copy diverged at %v", ch.P)
				}
			}
		})
	}
}

// TestSubscribeAttachModes pins the three catch-up modes of the
// in-process API: current epoch (no catch-up), nil epoch (full resync),
// future epoch (full resync).
func TestSubscribeAttachModes(t *testing.T) {
	s := NewServer(NewRegistry(8), ServerOptions{})
	mutateJSON(t, s, persistBody(`"events":[{"op":"leave","p":[1,1]}]`), http.StatusOK)
	mutateJSON(t, s, persistBody(`"events":[{"op":"leave","p":[2,2]}]`), http.StatusOK)

	spec := PlanSpec{Tile: TileSpec{Name: "cross:2:1"}}
	ws := WindowSpec{Lo: []int{0, 0}, Hi: []int{4, 4}}

	cur := uint64(2)
	feed, err := s.Subscribe(spec, ws, &cur)
	if err != nil {
		t.Fatalf("current-epoch subscribe: %v", err)
	}
	if feed.Hello.Epoch != 2 || len(feed.Catch) != 0 {
		t.Fatalf("current attach: hello %d, %d catch deltas", feed.Hello.Epoch, len(feed.Catch))
	}
	feed.Close()

	feed, err = s.Subscribe(spec, ws, nil)
	if err != nil {
		t.Fatalf("nil-epoch subscribe: %v", err)
	}
	if len(feed.Catch) != 1 || !feed.Catch[0].Full || len(feed.Catch[0].Changed) != 23 {
		t.Fatalf("nil-epoch attach: %d catch deltas, full=%v", len(feed.Catch), feed.Catch[0].Full)
	}
	feed.Close()

	// A future epoch (client ahead of the server: restarted daemon, lost
	// data dir) must resync, not wait for the server to catch up. Without
	// persistence a stale epoch resyncs too.
	for _, e := range []uint64{99, 1} {
		feed, err = s.Subscribe(spec, ws, &e)
		if err != nil {
			t.Fatalf("epoch-%d subscribe: %v", e, err)
		}
		if len(feed.Catch) != 1 || !feed.Catch[0].Full {
			t.Fatalf("epoch-%d attach did not full-resync: %d deltas", e, len(feed.Catch))
		}
		feed.Close()
	}

	if total, live := s.met.subsTotal.Load(), s.met.subsLive.Load(); total != 4 || live != 0 {
		t.Fatalf("%d subscribed, %d live; want 4 and 0", total, live)
	}
}

// TestSubscribeWALCatchUp pins the stale-epoch replay path: with
// persistence on, a subscriber at epoch 1 of 3 receives exactly the
// per-epoch deltas 2 and 3, matching the authoritative mutate
// responses, without a full resync.
func TestSubscribeWALCatchUp(t *testing.T) {
	s := newPersistServer(t, t.TempDir(), ServerOptions{})
	responses := []MutateResponse{
		mutateJSON(t, s, persistBody(`"events":[{"op":"leave","p":[1,1]}]`), http.StatusOK),
		mutateJSON(t, s, persistBody(`"events":[{"op":"join","p":[1,1]},{"op":"leave","p":[3,3]}]`), http.StatusOK),
		mutateJSON(t, s, persistBody(`"events":[{"op":"move","p":[0,0],"to":[5,5]}]`), http.StatusOK),
	}

	from := uint64(1)
	feed, err := s.Subscribe(PlanSpec{Tile: TileSpec{Name: "cross:2:1"}},
		WindowSpec{Lo: []int{0, 0}, Hi: []int{4, 4}}, &from)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	defer feed.Close()
	if feed.Hello.Epoch != 3 {
		t.Fatalf("hello epoch %d", feed.Hello.Epoch)
	}
	if len(feed.Catch) != 2 {
		t.Fatalf("%d catch-up deltas, want 2", len(feed.Catch))
	}
	for i, d := range feed.Catch {
		want := responses[i+1]
		if d.Full || d.Epoch != want.Epoch || d.M != want.M || d.Alive != want.Alive {
			t.Fatalf("catch-up %d: %+v vs mutate %+v", i, d, want)
		}
		wantChanged := changedMap(want)
		if len(d.Changed) != len(wantChanged) {
			t.Fatalf("catch-up %d: %d changes, want %d", i, len(d.Changed), len(wantChanged))
		}
		for _, ch := range d.Changed {
			if wantChanged[lattice.Point(ch.P).Key()] != ch.Slot {
				t.Fatalf("catch-up %d: change %v→%d off", i, ch.P, ch.Slot)
			}
		}
	}
}

// TestSubscribeCatchUpFallsBack pins the resync fallback: when a
// snapshot has advanced past the subscriber's epoch (per-epoch history
// gone), the attach answers one full resync delta instead of failing.
func TestSubscribeCatchUpFallsBack(t *testing.T) {
	// SnapshotEvery: 1 rotates the WAL after every event, so epoch 1's
	// record is truncated away by the time epoch 2 is applied.
	s := NewServer(NewRegistry(8), ServerOptions{})
	if err := s.EnablePersistence(PersistOptions{Dir: t.TempDir(), SnapshotEvery: 1}); err != nil {
		t.Fatalf("EnablePersistence: %v", err)
	}
	mutateJSON(t, s, persistBody(`"events":[{"op":"leave","p":[1,1]}]`), http.StatusOK)
	mutateJSON(t, s, persistBody(`"events":[{"op":"leave","p":[2,2]}]`), http.StatusOK)

	from := uint64(1)
	feed, err := s.Subscribe(PlanSpec{Tile: TileSpec{Name: "cross:2:1"}},
		WindowSpec{Lo: []int{0, 0}, Hi: []int{4, 4}}, &from)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	defer feed.Close()
	if len(feed.Catch) != 1 || !feed.Catch[0].Full || feed.Catch[0].Epoch != 2 {
		t.Fatalf("fallback attach: %d deltas, full=%v", len(feed.Catch), feed.Catch[0].Full)
	}
	if len(feed.Catch[0].Changed) != 23 {
		t.Fatalf("resync carries %d sensors, want 23", len(feed.Catch[0].Changed))
	}
}

// TestSubscribeSlowDrop pins the slow-consumer terminal end to end: a
// subscriber that stops reading is dropped once its queue overflows,
// the mutate path never blocks, and the drop is counted and reported.
func TestSubscribeSlowDrop(t *testing.T) {
	s := NewServer(NewRegistry(8), ServerOptions{SubscribeQueue: 2})
	feed, err := s.Subscribe(PlanSpec{Tile: TileSpec{Name: "cross:2:1"}},
		WindowSpec{Lo: []int{0, 0}, Hi: []int{4, 4}}, nil)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	defer feed.Close()

	// Queue depth 2: the third publish with no reader must drop. The
	// mutate loop is bounded, so a blocked publish hangs the test (and
	// -timeout fails it) — that is the regression being pinned.
	for i := 0; i < 3; i++ {
		mutateJSON(t, s, persistBody(`"events":[{"op":"join","p":[`+
			fmt.Sprintf("%d", 6+i)+`,0]}]`), http.StatusOK)
	}
	if n := s.met.subsDropped.Load(); n != 1 {
		t.Fatalf("drops %d, want 1", n)
	}
	// Drain the two queued deltas, then observe the close and reason.
	for i := 0; i < 2; i++ {
		if d, open := <-feed.C; !open || d.Epoch != uint64(i+1) {
			t.Fatalf("queued delta %d: open=%v %+v", i, open, d)
		}
	}
	if _, open := <-feed.C; open {
		t.Fatal("channel open after drop")
	}
	if feed.Reason() != byeSlow {
		t.Fatalf("reason %q", feed.Reason())
	}
	// Mutations continued past the drop: the session is at epoch 3.
	resp := mutateJSON(t, s, persistBody(`"events":[],"full":true`), http.StatusOK)
	if resp.Epoch != 3 {
		t.Fatalf("session epoch %d after drop, want 3", resp.Epoch)
	}
}

// TestSubscribeByeOverHTTP pins the wire form of a server-side stream
// termination in both codecs: when the subscribed session dies (LRU
// eviction — the deterministic terminal), the stream ends with a Bye
// element naming the resync, surfaced by the client as ErrStreamEnded
// rather than an abrupt EOF.
func TestSubscribeByeOverHTTP(t *testing.T) {
	for _, codec := range []string{"application/json", BinaryContentType} {
		t.Run(codec, func(t *testing.T) {
			s := NewServer(NewRegistry(8), ServerOptions{MaxSessions: 1})
			srv := httptest.NewServer(s)
			defer srv.Close()

			var body []byte
			if codec == BinaryContentType {
				e := binwire.Get()
				defer binwire.Put(e)
				EncodeSubscribeBinary(e, SubscribeRequest{
					Plan:   PlanSpec{Tile: TileSpec{Name: "cross:2:1"}},
					Window: WindowSpec{Lo: []int{0, 0}, Hi: []int{4, 4}},
				}, "")
				body = append(body, e.Bytes()...)
			} else {
				body = []byte(subBody(""))
			}
			st, resp, cancel := openStream(t, srv.URL, codec, body)
			defer cancel()
			defer resp.Body.Close()

			// Overflow the single-session table from another window: the
			// subscribed session evicts and the server must close the
			// stream with a terminal Bye.
			mutateJSON(t, s, `{"plan":{"tile":{"name":"cross:2:1"}},"window":{"lo":[0,0],"hi":[3,3]},`+
				`"events":[{"op":"leave","p":[1,1]}]}`, http.StatusOK)
			for {
				d, err := st.Next()
				if err == nil {
					continue // the opening resync delta
				}
				if !errors.Is(err, ErrStreamEnded) {
					t.Fatalf("stream ended with %v, want ErrStreamEnded", err)
				}
				if d.Bye != byeEvicted {
					t.Fatalf("bye %q", d.Bye)
				}
				return
			}
		})
	}
}

// TestSubscribeEvictionClosesSubscribers is the satellite regression:
// LRU eviction must terminate the session's subscribers with the
// eviction reason and count them, never leave a stream parked on a
// ghost session.
func TestSubscribeEvictionClosesSubscribers(t *testing.T) {
	var logMu sync.Mutex
	var logs []string
	s := NewServer(NewRegistry(8), ServerOptions{
		MaxSessions: 1,
		Logf: func(format string, args ...any) {
			logMu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			logMu.Unlock()
		},
	})
	feed, err := s.Subscribe(PlanSpec{Tile: TileSpec{Name: "cross:2:1"}},
		WindowSpec{Lo: []int{0, 0}, Hi: []int{4, 4}}, nil)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	defer feed.Close()

	// A mutate on a different window overflows the single-session table
	// and evicts the subscribed session.
	mutateJSON(t, s, `{"plan":{"tile":{"name":"cross:2:1"}},"window":{"lo":[0,0],"hi":[3,3]},`+
		`"events":[{"op":"leave","p":[1,1]}]}`, http.StatusOK)

	select {
	case _, open := <-feed.C:
		if open {
			t.Fatal("delta on an evicted session's feed")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("eviction did not close the subscriber channel")
	}
	if feed.Reason() != byeEvicted {
		t.Fatalf("reason %q", feed.Reason())
	}
	if subs, sess := s.met.subsEvicted.Load(), s.met.sessEvicted.Load(); subs != 1 || sess != 1 {
		t.Fatalf("%d subscribers and %d sessions evicted, want 1 each", subs, sess)
	}
	logMu.Lock()
	defer logMu.Unlock()
	var found bool
	for _, line := range logs {
		if strings.Contains(line, "terminated 1 subscriber") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no eviction log line in %q", logs)
	}
}

// TestSubscriberCap pins the 503 at the per-session subscriber limit,
// and that closing a feed frees its slot.
func TestSubscriberCap(t *testing.T) {
	s := NewServer(NewRegistry(8), ServerOptions{MaxSubscribers: 1})
	spec := PlanSpec{Tile: TileSpec{Name: "cross:2:1"}}
	ws := WindowSpec{Lo: []int{0, 0}, Hi: []int{4, 4}}
	feed, err := s.Subscribe(spec, ws, nil)
	if err != nil {
		t.Fatalf("first subscribe: %v", err)
	}
	if _, err := s.Subscribe(spec, ws, nil); err == nil {
		t.Fatal("second subscribe accepted past the cap")
	}
	// Over HTTP the cap must answer 503.
	srv := httptest.NewServer(s)
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/plan:subscribe", "application/json", strings.NewReader(subBody("")))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("capped subscribe answered %d, want 503", resp.StatusCode)
	}
	feed.Close()
	feed2, err := s.Subscribe(spec, ws, nil)
	if err != nil {
		t.Fatalf("subscribe after close: %v", err)
	}
	feed2.Close()
}

// TestSubscribeClientDisconnect pins handler cleanup: cancelling the
// request context detaches the subscriber and decrements the live
// gauge.
func TestSubscribeClientDisconnect(t *testing.T) {
	s := NewServer(NewRegistry(8), ServerOptions{})
	srv := httptest.NewServer(s)
	defer srv.Close()
	st, resp, cancel := openStream(t, srv.URL, "application/json", []byte(subBody("")))
	defer resp.Body.Close()
	if _, err := st.Next(); err != nil { // the opening resync delta
		t.Fatalf("reading resync: %v", err)
	}
	if live := s.met.subsLive.Load(); live != 1 {
		t.Fatalf("live subscribers %d, want 1", live)
	}
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for s.met.subsLive.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("disconnect did not release the subscriber")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSubscribeRaceStress is the satellite race test: subscribers
// attach, read, and detach concurrently with mutators and session
// evictions, under a queue small enough to force drops. Its assertions
// are liveness (it finishes — mutate never blocks on a slow queue) and
// per-stream delta ordering; the race detector does the rest. Runs in
// -short too: it is the CI race job's main subject.
func TestSubscribeRaceStress(t *testing.T) {
	s := NewServer(NewRegistry(8), ServerOptions{
		MaxSessions:    2, // two windows below + churn on a third forces evictions
		SubscribeQueue: 4,
	})
	spec := PlanSpec{Tile: TileSpec{Name: "cross:2:1"}}
	windows := []WindowSpec{
		{Lo: []int{0, 0}, Hi: []int{4, 4}},
		{Lo: []int{0, 0}, Hi: []int{3, 3}},
		{Lo: []int{0, 0}, Hi: []int{2, 2}},
	}
	const (
		mutators    = 3
		subscribers = 6
		rounds      = 120
	)
	// Every (mutator, round) pair joins its own position: outside all
	// three windows, inside every window's MutateMargin, and never reused.
	// A reused position would hit a sensor an earlier round placed in a
	// session that survived the LRU churn (a legitimate 400), so any 400
	// below is a real failure.
	bodyOf := func(w WindowSpec, m, i int) string {
		wj, _ := json.Marshal(w)
		k := m*rounds + i
		return fmt.Sprintf(`{"plan":{"tile":{"name":"cross:2:1"}},"window":%s,`+
			`"events":[{"op":"join","p":[%d,%d]}]}`, wj, 6+k%24, 6+k/24)
	}
	var wg, mutWG sync.WaitGroup
	mutDone := make(chan struct{}) // closed when every mutator finishes
	for m := 0; m < mutators; m++ {
		wg.Add(1)
		mutWG.Add(1)
		go func(m int) {
			defer wg.Done()
			defer mutWG.Done()
			for i := 0; i < rounds; i++ {
				w := windows[(m+i)%len(windows)]
				req := httptest.NewRequest("POST", "/v1/plan:mutate", strings.NewReader(bodyOf(w, m, i)))
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				// 200 (applied) and 409 (epoch conflict) are both fine;
				// anything else is a bug.
				if rec.Code != http.StatusOK && rec.Code != http.StatusConflict {
					t.Errorf("mutator %d round %d: status %d: %s", m, i, rec.Code, rec.Body)
					return
				}
			}
		}(m)
	}
	go func() {
		mutWG.Wait()
		close(mutDone)
	}()
	for g := 0; g < subscribers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds/10; i++ {
				feed, err := s.Subscribe(spec, windows[(g+i)%len(windows)], nil)
				if err != nil {
					continue // 503 at the cap or a lost eviction race: fine
				}
				last := feed.Hello.Epoch
				reads := 0
			read:
				for {
					select {
					case d, open := <-feed.C:
						if !open {
							break read // dropped or evicted: both fine
						}
						if !d.Full && d.Epoch <= last {
							t.Errorf("subscriber %d: epoch %d after %d", g, d.Epoch, last)
							break read
						}
						last = d.Epoch
						if reads++; reads >= 5 {
							break read // detach mid-stream (churn)
						}
						if g%2 == 0 {
							time.Sleep(time.Microsecond) // slow consumer: force drops
						}
					case <-mutDone:
						break read // churn over: nothing more will arrive
					}
				}
				feed.Close()
			}
		}(g)
	}
	wg.Wait()
	if live := s.met.subsLive.Load(); live != 0 {
		t.Fatalf("leaked %d live subscribers", live)
	}
	if s.met.sessMutations.Load() == 0 || s.met.subsTotal.Load() == 0 {
		t.Fatal("stress did nothing")
	}
}
