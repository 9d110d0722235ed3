package service

// Fan-out benchmarks (DESIGN.md §13). Record them with
//
//	scripts/bench.sh -bench 'HubPublish|RelayFanout' -pkg ./internal/service -count 5

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"tilingsched/internal/dynamic"
	"tilingsched/internal/lattice"
	"tilingsched/internal/service/binwire"
)

// BenchmarkHubPublish times one epoch's hub publish to 1,000 in-process
// feeds, so ns/op divided by 1,000 is the cost per subscriber; receiving
// and marking the deltas runs off the clock. The cold variant touches
// 8 MB between rounds, as a churning daemon's other work does, so
// publish meets the hub and the queues out of L1 and L2 (and out of L3
// too, on a host whose L3 is not much larger than 8 MB).
func BenchmarkHubPublish(b *testing.B) {
	const feeds = 1000
	for _, cold := range []bool{false, true} {
		name := "warm"
		if cold {
			name = "cold"
		}
		b.Run(name, func(b *testing.B) {
			s := NewServer(NewRegistry(2), ServerOptions{MaxSubscribers: feeds})
			spec := PlanSpec{Tile: TileSpec{Name: "cross:2:1"}}
			ws := WindowSpec{Lo: []int{0, 0}, Hi: []int{15, 15}}
			cur := uint64(0)
			subs := make([]*Subscription, feeds)
			for i := range subs {
				f, err := s.Subscribe(spec, ws, &cur)
				if err != nil {
					b.Fatal(err)
				}
				defer f.Close()
				subs[i] = f
			}
			plan, _ := s.reg.GetSpec(spec)
			win, _ := ws.Window()
			sess, err := s.sessions.get(plan, win)
			if err != nil {
				b.Fatal(err)
			}
			var junk []byte
			if cold {
				junk = make([]byte, 8<<20)
			}
			d := &Delta{Epoch: 1}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if del, drop := sess.hub.publish(d); del != feeds || drop != 0 {
					b.Fatalf("publish: delivered %d, dropped %d", del, drop)
				}
				b.StopTimer()
				for _, f := range subs {
					f.Mark(<-f.C)
				}
				for j := 0; j < len(junk); j += 64 {
					junk[j]++
				}
				d = &Delta{Epoch: uint64(i + 2)}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkRelayFanout times one 4-event epoch from mutate to its
// decode on every one of 16 or 256 loopback wire streams of one codec:
// one op is one epoch. The streams' own client decode is on the clock.
func BenchmarkRelayFanout(b *testing.B) {
	for _, ct := range []string{"application/json", BinaryContentType} {
		for _, n := range []int{16, 256} {
			b.Run(fmt.Sprintf("%s/%d", codecNames[codecOf(ct)], n), func(b *testing.B) {
				benchRelayFanout(b, ct, n)
			})
		}
	}
}

// codecOf maps a request content type to its codec label.
func codecOf(contentType string) int {
	if contentType == BinaryContentType {
		return codecBin
	}
	return codecJSON
}

func benchRelayFanout(b *testing.B, contentType string, streams int) {
	s := NewServer(NewRegistry(2), ServerOptions{})
	srv := httptest.NewServer(s)
	defer srv.Close()
	spec := PlanSpec{Tile: TileSpec{Name: "cross:2:1"}}
	ws := WindowSpec{Lo: []int{0, 0}, Hi: []int{15, 15}}
	plan, _ := s.reg.GetSpec(spec)
	win, _ := ws.Window()
	var body []byte
	if contentType == BinaryContentType {
		var e binwire.Buffer
		EncodeSubscribeBinary(&e, SubscribeRequest{Plan: spec, Window: ws}, "")
		body = e.Bytes()
	} else {
		body = []byte(`{"plan":{"tile":{"name":"cross:2:1"}},"window":{"lo":[0,0],"hi":[15,15]}}`)
	}
	// Deferred in this order, the streams are cancelled before their
	// readers are awaited.
	var delivered, readers sync.WaitGroup
	defer readers.Wait()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < streams; i++ {
		req, err := http.NewRequestWithContext(ctx, "POST", srv.URL+"/v1/plan:subscribe", strings.NewReader(string(body)))
		if err != nil {
			b.Fatal(err)
		}
		req.Header.Set("Content-Type", contentType)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		st, err := OpenSubscribeStream(resp.Body, resp.Header.Get("Content-Type"))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := st.Next(); err != nil { // the opening full resync
			b.Fatal(err)
		}
		readers.Add(1)
		go func() {
			defer readers.Done()
			defer resp.Body.Close()
			for {
				if _, err := st.Next(); err != nil {
					return
				}
				delivered.Done()
			}
		}()
	}
	// Each epoch leaves four sensors, or re-joins them.
	var leave, join []dynamic.Event
	for x := 0; x < 4; x++ {
		leave = append(leave, dynamic.Event{Kind: dynamic.Leave, P: lattice.Pt(x, 0)})
		join = append(join, dynamic.Event{Kind: dynamic.Join, P: lattice.Pt(x, 0)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := BinMutate{Window: win, Events: leave}
		if i%2 == 1 {
			req.Events = join
		}
		delivered.Add(streams)
		if _, status, err := s.mutateCore(plan, &req, nil); err != nil || status != http.StatusOK {
			b.Fatalf("mutate: status %d: %v", status, err)
		}
		delivered.Wait()
	}
	b.StopTimer()
}
