package service

// Fan-out suite (DESIGN.md §13): the dense hub's bookkeeping under
// drops, detaches and re-attaches, its behaviour under concurrent
// attach/detach/publish/closeAll, and the release of a stream's
// catch-up deltas once they are sent.

import (
	"fmt"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"tilingsched/internal/service/binwire"
)

// checkHub asserts the hub's slot invariant: entry i holds a subscriber
// whose slot is i and whose queue is the entry's.
func checkHub(t *testing.T, h *subHub) {
	t.Helper()
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, e := range h.subs {
		if e.sub.slot != i || e.ch != e.sub.ch {
			t.Fatalf("hub entry %d: slot %d, queue match %v", i, e.sub.slot, e.ch == e.sub.ch)
		}
	}
}

// TestSubHubDenseBookkeeping drives publish over full queues at every
// interesting position of the dense slice: exact delivered and dropped
// counts, each survivor receiving the delta exactly once, dropped
// subscribers ending with byeSlow, detach answering false after a drop
// and true-then-false for a survivor, and attach after drops still
// bounded by the subscriber cap.
func TestSubHubDenseBookkeeping(t *testing.T) {
	const n = 6
	for _, full := range [][]int{
		nil, {0}, {n - 1}, {2, 3}, {0, 1}, {n - 2, n - 1}, {0, n - 1}, {0, 2, 4}, {1, 3, 5}, {0, 1, 2, 3, 4, 5},
	} {
		t.Run(fmt.Sprint(full), func(t *testing.T) {
			var h subHub
			subs := make([]*subscriber, n)
			for i := range subs {
				subs[i] = &subscriber{ch: make(chan *Delta, 1)}
				if !h.attach(subs[i], n) {
					t.Fatalf("attach %d refused below the cap", i)
				}
			}
			isFull := map[int]bool{}
			filler := &Delta{}
			for _, i := range full {
				isFull[i] = true
				subs[i].ch <- filler
			}
			d := &Delta{Epoch: 1}
			del, drop := h.publish(d)
			if del != n-len(full) || drop != len(full) {
				t.Fatalf("publish: delivered=%d dropped=%d, want %d and %d", del, drop, n-len(full), len(full))
			}
			checkHub(t, &h)
			for i, sub := range subs {
				if isFull[i] {
					if got := <-sub.ch; got != filler {
						t.Fatalf("dropped subscriber %d: queued %+v, want the filler", i, got)
					}
					if _, open := <-sub.ch; open || sub.reason != byeSlow {
						t.Fatalf("dropped subscriber %d: open=%v reason %q", i, open, sub.reason)
					}
					if h.detach(sub) {
						t.Fatalf("detach succeeded on dropped subscriber %d", i)
					}
					continue
				}
				if got := <-sub.ch; got != d || len(sub.ch) != 0 {
					t.Fatalf("survivor %d: got %+v with %d more queued, want the delta once", i, got, len(sub.ch))
				}
			}
			// The drops freed exactly their slots under the cap.
			for j := 0; j < len(full); j++ {
				if !h.attach(&subscriber{ch: make(chan *Delta, 1)}, n) {
					t.Fatalf("re-attach %d of %d refused after the drops", j, len(full))
				}
			}
			if h.attach(&subscriber{ch: make(chan *Delta, 1)}, n) {
				t.Fatal("attach accepted past the cap")
			}
			checkHub(t, &h)
			d2 := &Delta{Epoch: 2}
			if del, drop := h.publish(d2); del != n || drop != 0 {
				t.Fatalf("second publish: delivered=%d dropped=%d, want %d and 0", del, drop, n)
			}
			for i, sub := range subs {
				if isFull[i] {
					continue
				}
				if got := <-sub.ch; got != d2 {
					t.Fatalf("survivor %d: second delta %+v", i, got)
				}
				if !h.detach(sub) || h.detach(sub) {
					t.Fatalf("survivor %d: detach must succeed once, then fail", i)
				}
				if sub.slot != -1 || sub.reason != "" {
					t.Fatalf("detached survivor %d: slot %d reason %q", i, sub.slot, sub.reason)
				}
				checkHub(t, &h)
			}
			if n := h.closeAll(byeEvicted); n != len(full) {
				t.Fatalf("closeAll closed %d, want the %d re-attached", n, len(full))
			}
		})
	}
}

// TestSubHubRaceStress runs attach, detach, publish and closeAll from
// concurrent goroutines over one hub with tiny queues, so drops, closes
// and detaches interleave. Each subscriber must see strictly increasing
// epochs; a successful detach means the hub never closed the queue, a
// failed one that it did, with a terminal reason. The race detector
// does the rest (CI runs this at -race -count=20 -cpu=1,2,4).
func TestSubHubRaceStress(t *testing.T) {
	const (
		attachers = 4
		rounds    = 150
		maxSubs   = 6
	)
	var h subHub
	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(2)
	go func() { // one publisher, as under the session lock
		defer bg.Done()
		for e := uint64(1); ; e++ {
			select {
			case <-stop:
				return
			default:
			}
			h.publish(&Delta{Epoch: e})
			runtime.Gosched()
		}
	}()
	go func() { // eviction, now and then
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(200 * time.Microsecond):
				h.closeAll(byeEvicted)
			}
		}
	}()
	var wg sync.WaitGroup
	for a := 0; a < attachers; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Depth 2: a stalled reader overflows within a few publishes.
				sub := &subscriber{ch: make(chan *Delta, 2)}
				if !h.attach(sub, maxSubs) {
					runtime.Gosched()
					continue
				}
				var last uint64
				closed := false
				reads := (a + r) % 4
				if reads == 0 { // stall past the queue depth: a slow drop
					for i := 0; i < 4; i++ {
						runtime.Gosched()
					}
				}
				for ; reads > 0; reads-- {
					d, open := <-sub.ch
					if !open {
						closed = true
						break
					}
					if d.Epoch <= last {
						t.Errorf("attacher %d: epoch %d after %d", a, d.Epoch, last)
						return
					}
					last = d.Epoch
				}
				if h.detach(sub) {
					if closed || sub.reason != "" {
						t.Errorf("attacher %d: detached a closed subscriber (reason %q)", a, sub.reason)
						return
					}
					continue
				}
				for range sub.ch { // the hub closed it: drain to the close
				}
				if sub.reason != byeSlow && sub.reason != byeEvicted {
					t.Errorf("attacher %d: closed with reason %q", a, sub.reason)
					return
				}
			}
		}(a)
	}
	wg.Wait()
	close(stop)
	bg.Wait()
	checkHub(t, &h)
	if h.active() {
		t.Fatalf("%d subscribers left attached after every attacher detached", len(h.subs))
	}
}

// liveHeap returns the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestSubscribeIdleStreamReleasesCatchUp pins the catch-up release: a
// wire stream that opened with a full resync of a 64×64 session and
// then idles no longer holds the resync delta. Streams that kept it
// measured ~357 KB (JSON) and ~245 KB (binary) of heap each, client
// side included; the bounds sit between those and the ~170 / ~57 KB a
// stream needs once it is released.
func TestSubscribeIdleStreamReleasesCatchUp(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory distorts heap accounting")
	}
	s := NewServer(NewRegistry(8), ServerOptions{})
	srv := httptest.NewServer(s)
	defer srv.Close()
	spec := PlanSpec{Tile: TileSpec{Name: "cross:2:1"}}
	ws := WindowSpec{Lo: []int{0, 0}, Hi: []int{63, 63}}
	// Seed the session first, so its live set is not charged to a stream.
	seed, err := s.Subscribe(spec, ws, nil)
	if err != nil {
		t.Fatalf("seeding the session: %v", err)
	}
	seed.Close()
	for _, tc := range []struct {
		contentType string
		bound       uint64
	}{
		{"application/json", 260 << 10},
		{BinaryContentType, 150 << 10},
	} {
		t.Run(tc.contentType, func(t *testing.T) {
			var body []byte
			if tc.contentType == BinaryContentType {
				var e binwire.Buffer
				EncodeSubscribeBinary(&e, SubscribeRequest{Plan: spec, Window: ws}, "")
				body = e.Bytes()
			} else {
				body = []byte(`{"plan":{"tile":{"name":"cross:2:1"}},"window":{"lo":[0,0],"hi":[63,63]}}`)
			}
			for s.met.subsLive.Load() != 0 { // the previous codec's streams are gone
				time.Sleep(time.Millisecond)
			}
			const k = 8
			before := liveHeap()
			streams := make([]*SubscribeStream, k)
			for i := range streams {
				st, resp, cancel := openStream(t, srv.URL, tc.contentType, body)
				defer resp.Body.Close()
				defer cancel()
				if d, err := st.Next(); err != nil || !d.Full || len(d.Changed) != 64*64 {
					t.Fatalf("stream %d: opening resync %d changes (full=%v): %v", i, len(d.Changed), d.Full, err)
				}
				streams[i] = st
			}
			// A relay may still be returning from its last write when
			// the client has the bytes; give it a moment, not a pass.
			var per uint64
			for tries := 0; tries < 50; tries++ {
				if after := liveHeap(); after > before {
					per = (after - before) / k
				}
				if per <= tc.bound {
					break
				}
				time.Sleep(10 * time.Millisecond)
			}
			runtime.KeepAlive(streams)
			t.Logf("%d idle streams: %d KB of heap each", k, per>>10)
			if per > tc.bound {
				t.Fatalf("idle stream holds %d KB of heap, want at most %d KB", per>>10, tc.bound>>10)
			}
		})
	}
}
