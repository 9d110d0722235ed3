package service

// The differential subscriber oracle — the push plane's headline test.
// A scripted churn run drives a session through E epochs while N
// concurrent subscribers maintain local assignment copies from the
// stream. The oracle invariant: at every epoch a subscriber applied, its
// copy serializes byte-identically to the authoritative assignment at
// that epoch (folded from the mutate responses, and cross-checked
// against a server full resync at the end). The legs cover the hard
// paths — mid-stream disconnect + epoch-resume (WAL catch-up),
// slow-consumer drop + reconnect, LRU eviction + disk restore, and a
// server "restart" over the same data directory — and the whole
// harness runs under all three base graph modes (periodic stencil,
// bitset, CSR), since the push plane must be codec- and
// representation-agnostic.

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tilingsched/internal/graph"
	"tilingsched/internal/lattice"
	"tilingsched/internal/service/binwire"
)

// canonAssign serializes a key→slot copy canonically (sorted keys), so
// two equal assignments are byte-identical.
func canonAssign(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%d;", k, m[k])
	}
	return b.String()
}

// oracleRefs is the authoritative per-epoch assignment history, folded
// from the mutate responses as the churn script applies them.
type oracleRefs struct {
	mu     sync.Mutex
	states map[uint64]string
}

func (o *oracleRefs) record(epoch uint64, canon string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.states[epoch] = canon
}

func (o *oracleRefs) get(epoch uint64) (string, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	s, ok := o.states[epoch]
	return s, ok
}

// oracleChurn drives finalEpoch scripted batches against the default
// oracle window, folding every response into ref and recording the
// canonical state per epoch. The script is seeded, so every mode run
// sees the same churn; events are generated against the live set so no
// batch is rejected.
func oracleChurn(t *testing.T, s *Server, refs *oracleRefs, seed int64, finalEpoch uint64, perEpoch func(epoch uint64)) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ref := map[string]int{}
	alive := map[[2]int]bool{}
	seedResp := mutateJSON(t, s, persistBody(`"events":[],"full":true`), http.StatusOK)
	for _, ch := range seedResp.Changed {
		ref[lattice.Point(ch.P).Key()] = ch.Slot
		alive[[2]int{ch.P[0], ch.P[1]}] = true
	}
	refs.record(0, canonAssign(ref))

	randPoint := func(wantAlive bool) ([2]int, bool) {
		for tries := 0; tries < 64; tries++ {
			p := [2]int{rng.Intn(9) - 2, rng.Intn(9) - 2}
			if alive[p] == wantAlive {
				return p, true
			}
		}
		return [2]int{}, false
	}
	for e := uint64(1); e <= finalEpoch; e++ {
		var events []string
		n := 1 + rng.Intn(3)
		for i := 0; i < n; i++ {
			switch rng.Intn(4) {
			case 0: // join a dead position
				if p, ok := randPoint(false); ok {
					events = append(events, fmt.Sprintf(`{"op":"join","p":[%d,%d]}`, p[0], p[1]))
					alive[p] = true
				}
			case 1: // leave an alive position
				if p, ok := randPoint(true); ok {
					events = append(events, fmt.Sprintf(`{"op":"leave","p":[%d,%d]}`, p[0], p[1]))
					alive[p] = false
				}
			case 2: // fail an alive position
				if p, ok := randPoint(true); ok {
					events = append(events, fmt.Sprintf(`{"op":"fail","p":[%d,%d]}`, p[0], p[1]))
					alive[p] = false
				}
			default: // move alive → dead
				p, okP := randPoint(true)
				q, okQ := randPoint(false)
				if okP && okQ && p != q {
					events = append(events, fmt.Sprintf(`{"op":"move","p":[%d,%d],"to":[%d,%d]}`, p[0], p[1], q[0], q[1]))
					alive[p] = false
					alive[q] = true
				}
			}
		}
		if len(events) == 0 { // degenerate roll: keep the epoch moving
			p, _ := randPoint(false)
			events = append(events, fmt.Sprintf(`{"op":"join","p":[%d,%d]}`, p[0], p[1]))
			alive[p] = true
		}
		resp := mutateJSON(t, s, persistBody(`"events":[`+strings.Join(events, ",")+`]`), http.StatusOK)
		if resp.Epoch != e {
			t.Fatalf("churn epoch %d answered %d", e, resp.Epoch)
		}
		for _, ch := range resp.Changed {
			if ch.Slot < 0 {
				delete(ref, lattice.Point(ch.P).Key())
			} else {
				ref[lattice.Point(ch.P).Key()] = ch.Slot
			}
		}
		refs.record(e, canonAssign(ref))
		if perEpoch != nil {
			perEpoch(e)
		}
	}

	// Cross-check the folded reference against a server full resync: the
	// oracle's ground truth is itself verified, not assumed.
	final := mutateJSON(t, s, persistBody(`"events":[],"full":true`), http.StatusOK)
	check := map[string]int{}
	for _, ch := range final.Changed {
		check[lattice.Point(ch.P).Key()] = ch.Slot
	}
	if canonAssign(check) != canonAssign(ref) {
		t.Fatal("folded reference diverged from the server's full resync")
	}
}

// oracleSubscriber consumes a subscription stream over HTTP, applying
// every delta to a local copy and checking it against the reference at
// each epoch. On any server-side termination (Bye) or disconnect it
// reconnects with its last applied epoch, until it has verified
// finalEpoch. reconnects counts the attach cycles.
type oracleSubscriber struct {
	name    string
	codec   string
	url     string
	refs    *oracleRefs
	copyMap map[string]int
	last    uint64
	checked int
	// progress mirrors last for the churn driver: legs that must hit an
	// attached subscriber (eviction) wait on it before acting.
	progress atomic.Uint64
}

func (o *oracleSubscriber) subscribeBody(epoch *uint64) []byte {
	if o.codec == BinaryContentType {
		e := binwire.Get()
		defer binwire.Put(e)
		EncodeSubscribeBinary(e, SubscribeRequest{
			Plan:   PlanSpec{Tile: TileSpec{Name: "cross:2:1"}},
			Window: WindowSpec{Lo: []int{0, 0}, Hi: []int{4, 4}},
			Epoch:  epoch,
		}, "")
		return append([]byte(nil), e.Bytes()...)
	}
	if epoch != nil {
		return []byte(subBody(fmt.Sprintf(`"epoch":%d`, *epoch)))
	}
	return []byte(subBody(""))
}

// verify applies one stream delta and checks the copy against the
// reference at the delta's epoch. The reference may not be recorded yet
// (the subscriber can outrun the churn goroutine's bookkeeping), so it
// polls briefly; a missing reference after that is a real divergence.
func (o *oracleSubscriber) verify(t *testing.T, d SubscribeDelta) {
	t.Helper()
	applyDelta(o.copyMap, d)
	if d.Epoch < o.last {
		t.Fatalf("%s: epoch went backwards: %d after %d", o.name, d.Epoch, o.last)
	}
	o.last = d.Epoch
	want, ok := o.refs.get(d.Epoch)
	for tries := 0; !ok && tries < 5000; tries++ {
		time.Sleep(100 * time.Microsecond)
		want, ok = o.refs.get(d.Epoch)
	}
	if !ok {
		t.Fatalf("%s: no reference for epoch %d", o.name, d.Epoch)
	}
	if got := canonAssign(o.copyMap); got != want {
		t.Fatalf("%s: copy diverged at epoch %d:\n got %s\nwant %s", o.name, d.Epoch, got, want)
	}
	o.checked++
	o.progress.Store(o.last)
}

// run consumes the stream until finalEpoch is verified. disconnectAt,
// when non-zero, forces one client-side disconnect at that epoch (the
// resume then exercises the WAL catch-up path).
func (o *oracleSubscriber) run(t *testing.T, finalEpoch uint64, disconnectAt uint64) {
	t.Helper()
	var epoch *uint64
	first := true
	for o.last < finalEpoch || first {
		first = false
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, "POST", o.url+"/v1/plan:subscribe",
			strings.NewReader(string(o.subscribeBody(epoch))))
		if err != nil {
			cancel()
			t.Fatalf("%s: building request: %v", o.name, err)
		}
		req.Header.Set("Content-Type", o.codec)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			cancel()
			t.Fatalf("%s: POST: %v", o.name, err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			cancel()
			// Mid-eviction attach can lose a race; retry.
			time.Sleep(time.Millisecond)
			continue
		}
		st, err := OpenSubscribeStream(resp.Body, resp.Header.Get("Content-Type"))
		if err != nil {
			resp.Body.Close()
			cancel()
			t.Fatalf("%s: opening stream: %v", o.name, err)
		}
		for o.last < finalEpoch {
			d, err := st.Next()
			if err != nil {
				break // Bye or disconnect: reconnect below
			}
			o.verify(t, d)
			if disconnectAt != 0 && o.last >= disconnectAt {
				disconnectAt = 0
				break // deliberate mid-stream disconnect
			}
		}
		resp.Body.Close()
		cancel()
		e := o.last
		epoch = &e // resume from the last applied epoch
	}
}

// oracleServer builds a persistence-backed server with the given base
// graph mode forced on its session table.
func oracleServer(t *testing.T, dir string, mode graph.Mode, opts ServerOptions) *Server {
	t.Helper()
	s := NewServer(NewRegistry(8), opts)
	if err := s.EnablePersistence(PersistOptions{Dir: dir}); err != nil {
		t.Fatalf("EnablePersistence: %v", err)
	}
	s.sessions.baseMode = mode
	return s
}

// oracleModes names the base graph mode sweep. graph.Auto selects the
// production configuration (periodic identity-residue stencil); the
// other two force an explicit conflict-graph representation.
var oracleModes = []struct {
	name string
	mode graph.Mode
}{
	{"periodic", graph.Auto},
	{"bitset", graph.Bitset},
	{"csr", graph.CSR},
}

// TestSubscriberOracle is the differential oracle's main leg: scripted
// churn with concurrent subscribers in both codecs, one of which
// disconnects mid-stream and resumes from its epoch (WAL catch-up). Every
// applied epoch is checked byte-identical to the reference, under all
// three base graph modes.
func TestSubscriberOracle(t *testing.T) {
	const finalEpoch = 40
	for _, m := range oracleModes {
		t.Run(m.name, func(t *testing.T) {
			s := oracleServer(t, t.TempDir(), m.mode, ServerOptions{})
			srv := httptest.NewServer(s)
			defer srv.Close()
			refs := &oracleRefs{states: map[uint64]string{}}

			subs := []*oracleSubscriber{
				{name: "json", codec: "application/json"},
				{name: "bin", codec: BinaryContentType},
				{name: "json-reconnect", codec: "application/json"},
				{name: "bin-reconnect", codec: BinaryContentType},
			}
			var wg sync.WaitGroup
			started := make(chan struct{}, len(subs))
			for i, o := range subs {
				o.url = srv.URL
				o.refs = refs
				o.copyMap = map[string]int{}
				disconnectAt := uint64(0)
				if strings.HasSuffix(o.name, "reconnect") {
					disconnectAt = finalEpoch / 3
				}
				wg.Add(1)
				go func(o *oracleSubscriber, d uint64, i int) {
					defer wg.Done()
					started <- struct{}{}
					o.run(t, finalEpoch, d)
				}(o, disconnectAt, i)
			}
			for range subs {
				<-started
			}
			oracleChurn(t, s, refs, 0xC0FFEE, finalEpoch, nil)
			wg.Wait()
			if t.Failed() {
				return
			}
			want, _ := refs.get(finalEpoch)
			for _, o := range subs {
				if got := canonAssign(o.copyMap); got != want {
					t.Errorf("%s: final copy diverged", o.name)
				}
				if o.checked == 0 {
					t.Errorf("%s: verified no epochs", o.name)
				}
			}
		})
	}
}

// TestSubscriberOracleSlowDrop forces the drop→reconnect cycle: an
// in-process subscriber with a depth-2 queue stops reading mid-churn
// until the hub drops it, then resubscribes from its last epoch and
// must converge byte-identically. Swept across base modes because the
// catch-up replay (not just live fan-out) runs under each.
func TestSubscriberOracleSlowDrop(t *testing.T) {
	const finalEpoch = 30
	for _, m := range oracleModes {
		t.Run(m.name, func(t *testing.T) {
			s := oracleServer(t, t.TempDir(), m.mode, ServerOptions{SubscribeQueue: 2})
			refs := &oracleRefs{states: map[uint64]string{}}
			spec := PlanSpec{Tile: TileSpec{Name: "cross:2:1"}}
			ws := WindowSpec{Lo: []int{0, 0}, Hi: []int{4, 4}}

			feed, err := s.Subscribe(spec, ws, nil)
			if err != nil {
				t.Fatalf("subscribe: %v", err)
			}
			copyMap := map[string]int{}
			var last uint64
			checkedDrop := false

			apply := func(d *Delta) {
				applyDelta(copyMap, deltaWire(d))
				last = d.Epoch
				if want, ok := refs.get(d.Epoch); ok && canonAssign(copyMap) != want {
					t.Fatalf("copy diverged at epoch %d", d.Epoch)
				}
			}
			for _, d := range feed.Catch {
				apply(d)
			}

			// Churn sequentially; the feed is not read, so the depth-2
			// queue overflows and the hub drops it during the run.
			oracleChurn(t, s, refs, 42, finalEpoch, nil)
			for d := range feed.C {
				apply(d)
			}
			if feed.Reason() != byeSlow {
				t.Fatalf("feed ended with %q, want slow drop", feed.Reason())
			}
			feed.Close()
			if n := s.met.subsDropped.Load(); n != 1 {
				t.Fatalf("%d subscribers dropped, want 1", n)
			}

			// Resume from the last applied epoch: the WAL covers the gap,
			// so the catch-up deltas must re-converge the copy per epoch.
			resume := last
			feed, err = s.Subscribe(spec, ws, &resume)
			if err != nil {
				t.Fatalf("resubscribe: %v", err)
			}
			defer feed.Close()
			for _, d := range feed.Catch {
				if d.Full {
					t.Fatal("resume answered a full resync; WAL catch-up expected")
				}
				apply(d)
				checkedDrop = true
			}
			if last != finalEpoch {
				t.Fatalf("resume stopped at epoch %d of %d", last, finalEpoch)
			}
			want, _ := refs.get(finalEpoch)
			if canonAssign(copyMap) != want || !checkedDrop {
				t.Fatal("post-drop copy diverged")
			}
		})
	}
}

// TestSubscriberOracleEvictionRestore drives the eviction leg: churn on
// a capacity-1 table is interrupted by traffic on a second window, so
// the subscribed session is evicted (stream terminated with the
// eviction Bye) and restored from disk when the subscriber reconnects —
// which must resume via WAL catch-up, byte-identical throughout.
func TestSubscriberOracleEvictionRestore(t *testing.T) {
	const finalEpoch = 24
	for _, m := range oracleModes {
		t.Run(m.name, func(t *testing.T) {
			s := oracleServer(t, t.TempDir(), m.mode, ServerOptions{MaxSessions: 1})
			srv := httptest.NewServer(s)
			defer srv.Close()
			refs := &oracleRefs{states: map[uint64]string{}}

			o := &oracleSubscriber{name: "evicted", codec: "application/json",
				url: srv.URL, refs: refs, copyMap: map[string]int{}}
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				o.run(t, finalEpoch, 0)
			}()

			evictions := 0
			oracleChurn(t, s, refs, 7, finalEpoch, func(epoch uint64) {
				if epoch%8 != 0 {
					return
				}
				// Wait for the subscriber to have verified this epoch, so
				// the eviction is guaranteed to land on an attached stream
				// (not a subscriber still dialing).
				deadline := time.Now().Add(30 * time.Second)
				for o.progress.Load() < epoch {
					if time.Now().After(deadline) {
						t.Fatalf("subscriber stuck at epoch %d of %d", o.progress.Load(), epoch)
					}
					time.Sleep(100 * time.Microsecond)
				}
				// Touch another window (a no-op full resync): capacity 1
				// evicts the subscribed session (flushing it to disk)
				// mid-churn.
				mutateJSON(t, s, `{"plan":{"tile":{"name":"cross:2:1"}},"window":{"lo":[0,0],"hi":[2,2]},`+
					`"events":[],"full":true}`, http.StatusOK)
				evictions++
			})
			wg.Wait()
			if t.Failed() {
				return
			}
			want, _ := refs.get(finalEpoch)
			if got := canonAssign(o.copyMap); got != want {
				t.Fatal("final copy diverged")
			}
			if evictions == 0 || s.met.subsEvicted.Load() == 0 || s.met.sessRestored.Load() == 0 {
				t.Fatalf("leg exercised nothing: %d evictions, %d subscribers evicted, %d sessions restored",
					evictions, s.met.subsEvicted.Load(), s.met.sessRestored.Load())
			}
		})
	}
}

// TestSubscriberOracleServerRestart is the restart leg at the service
// level (the daemon-process variant lives in cmd/latticed): churn, tear
// the server down without a graceful flush, rebuild it over the same
// data directory, and resume the subscriber from its pre-restart epoch.
// The restored session must catch the subscriber up from the WAL and
// keep streaming fresh churn, byte-identical throughout.
func TestSubscriberOracleServerRestart(t *testing.T) {
	const half = 15
	dir := t.TempDir()
	refs := &oracleRefs{states: map[uint64]string{}}

	s1 := oracleServer(t, dir, graph.Auto, ServerOptions{})
	srv1 := httptest.NewServer(s1)
	o := &oracleSubscriber{name: "restart", codec: BinaryContentType,
		url: srv1.URL, refs: refs, copyMap: map[string]int{}}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		o.run(t, half, 0)
	}()
	oracleChurn(t, s1, refs, 99, half, nil)
	wg.Wait()
	if t.Failed() {
		return
	}
	srv1.Close() // no FlushSessions: the WAL alone must carry the history

	// The second server restores the session from disk on first touch.
	// The oracle's second half continues the same churn script shape but
	// starts from the restored state; the subscriber resumes at `half`.
	s2 := oracleServer(t, dir, graph.Auto, ServerOptions{})
	srv2 := httptest.NewServer(s2)
	defer srv2.Close()
	o.url = srv2.URL
	// Note the final epoch doubles: refs keep accumulating across the
	// restart because the session's epoch sequence continues.
	wg.Add(1)
	go func() {
		defer wg.Done()
		o.run(t, 2*half, 0)
	}()
	rng := rand.New(rand.NewSource(4))
	ref := map[string]int{}
	seedResp := mutateJSON(t, s2, persistBody(`"events":[],"full":true`), http.StatusOK)
	if seedResp.Epoch != half {
		t.Fatalf("restored session at epoch %d, want %d", seedResp.Epoch, half)
	}
	for _, ch := range seedResp.Changed {
		ref[lattice.Point(ch.P).Key()] = ch.Slot
	}
	if canonAssign(ref) != mustRef(t, refs, half) {
		t.Fatal("restored state diverged from the pre-restart reference")
	}
	for e := uint64(half + 1); e <= 2*half; e++ {
		x, y := rng.Intn(9)-2, rng.Intn(9)-2
		op := "join"
		key := lattice.Point([]int{x, y}).Key()
		if _, isAlive := ref[key]; isAlive {
			op = "leave"
		}
		resp := mutateJSON(t, s2, persistBody(fmt.Sprintf(`"events":[{"op":"%s","p":[%d,%d]}]`, op, x, y)), http.StatusOK)
		if resp.Epoch != e {
			t.Fatalf("post-restart epoch %d answered %d", e, resp.Epoch)
		}
		for _, ch := range resp.Changed {
			if ch.Slot < 0 {
				delete(ref, lattice.Point(ch.P).Key())
			} else {
				ref[lattice.Point(ch.P).Key()] = ch.Slot
			}
		}
		refs.record(e, canonAssign(ref))
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := canonAssign(o.copyMap); got != mustRef(t, refs, 2*half) {
		t.Fatal("final copy diverged after restart")
	}
	if s2.met.sessRestored.Load() == 0 {
		t.Fatal("second server restored nothing")
	}
}

func mustRef(t *testing.T, refs *oracleRefs, epoch uint64) string {
	t.Helper()
	s, ok := refs.get(epoch)
	if !ok {
		t.Fatalf("no reference for epoch %d", epoch)
	}
	return s
}
