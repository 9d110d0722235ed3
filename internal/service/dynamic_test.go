package service

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"tilingsched/internal/core"
	"tilingsched/internal/dynamic"
	"tilingsched/internal/lattice"
	"tilingsched/internal/prototile"
)

func testPlan(t *testing.T) *core.Plan {
	t.Helper()
	plan, err := core.NewPlan(lattice.Square(), prototile.Cross(2, 1))
	if err != nil {
		t.Fatalf("NewPlan: %v", err)
	}
	return plan
}

func mustWindow(t *testing.T, lo, hi []int) lattice.Window {
	t.Helper()
	w, err := lattice.NewWindow(lattice.Point(lo), lattice.Point(hi))
	if err != nil {
		t.Fatalf("NewWindow: %v", err)
	}
	return w
}

// TestSessionLifecycle drives the session table directly: creation seeds
// the plan schedule, the same (plan, window) pair returns the same
// session, and the LRU evicts in order.
func TestSessionLifecycle(t *testing.T) {
	plan := testPlan(t)
	st := newSessionTable(2, newServerMetrics(ServerOptions{}))
	w1 := mustWindow(t, []int{0, 0}, []int{4, 4})
	s1, err := st.get(plan, w1)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if s1.live.alive != 25 {
		t.Fatalf("seeded session off: alive=%d", s1.live.alive)
	}
	// Seed matches the plan schedule point for point.
	var diverged bool
	for _, ch := range s1.live.appendAssignment(nil, plan) {
		want, err := plan.SlotOf(ch.P)
		if err != nil || ch.Slot != want || !w1.Contains(ch.P) {
			diverged = true
		}
	}
	if diverged {
		t.Fatal("session seed diverges from the plan schedule")
	}
	again, err := st.get(plan, w1)
	if err != nil || again != s1 {
		t.Fatalf("same key returned a different session (%v)", err)
	}
	if n := st.met.sessCreated.Load(); n != 1 {
		t.Fatalf("%d sessions created, want 1", n)
	}
	// Two more windows overflow capacity 2 and evict w1.
	if _, err := st.get(plan, mustWindow(t, []int{0, 0}, []int{1, 1})); err != nil {
		t.Fatal(err)
	}
	if _, err := st.get(plan, mustWindow(t, []int{0, 0}, []int{2, 2})); err != nil {
		t.Fatal(err)
	}
	if live, ev, cr := st.met.sessLive.Load(), st.met.sessEvicted.Load(), st.met.sessCreated.Load(); live != 2 || ev != 1 || cr != 3 {
		t.Fatalf("LRU counters: %d live, %d evicted, %d created; want 2, 1, 3", live, ev, cr)
	}
	fresh, err := st.get(plan, w1)
	if err != nil {
		t.Fatal(err)
	}
	if fresh == s1 {
		t.Fatal("evicted session resurrected instead of rebuilt")
	}
}

// TestDecodeMutateRequest pins the funnel's acceptance and rejection
// contract.
func TestDecodeMutateRequest(t *testing.T) {
	lim := Limits{MaxBatch: 4, MaxWindow: 100}
	ok := `{"plan":{"tile":{"name":"cross:2:1"}},"window":{"lo":[0,0],"hi":[4,4]},` +
		`"events":[{"op":"leave","p":[1,1]},{"op":"join","p":[6,2]},{"op":"move","p":[0,0],"to":[5,5]}]}`
	req, win, events, err := DecodeMutateRequest([]byte(ok), lim)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if win.Size() != 25 || len(events) != 3 || req.Epoch != nil {
		t.Fatalf("decoded req off: |w|=%d events=%d", win.Size(), len(events))
	}
	if events[2].Kind != dynamic.Move || !events[2].To.Equal(lattice.Pt(5, 5)) {
		t.Fatalf("move decoded as %+v", events[2])
	}

	cases := []struct {
		name, body string
		wantLimit  bool
	}{
		{"bad json", `{"window":`, false},
		{"no window", `{"events":[{"op":"leave","p":[0,0]}]}`, false},
		{"window too large", `{"window":{"lo":[0,0],"hi":[99,99]},"events":[{"op":"leave","p":[0,0]}]}`, true},
		{"too many events", `{"window":{"lo":[0,0],"hi":[4,4]},"events":[` +
			strings.Repeat(`{"op":"leave","p":[0,0]},`, 4) + `{"op":"leave","p":[0,0]}]}`, true},
		{"no events no full", `{"window":{"lo":[0,0],"hi":[4,4]},"events":[]}`, false},
		{"unknown op", `{"window":{"lo":[0,0],"hi":[4,4]},"events":[{"op":"poke","p":[0,0]}]}`, false},
		{"wrong dim", `{"window":{"lo":[0,0],"hi":[4,4]},"events":[{"op":"join","p":[1]}]}`, false},
		{"move without to", `{"window":{"lo":[0,0],"hi":[4,4]},"events":[{"op":"move","p":[1,1]}]}`, false},
		{"outside margin", `{"window":{"lo":[0,0],"hi":[4,4]},"events":[{"op":"join","p":[999,0]}]}`, true},
	}
	for _, c := range cases {
		_, _, _, err := DecodeMutateRequest([]byte(c.body), lim)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if got := errors.Is(err, ErrLimit); got != c.wantLimit {
			t.Errorf("%s: limit=%v, want %v (%v)", c.name, got, c.wantLimit, err)
		}
	}

	// Full resync with zero events is valid.
	if _, _, events, err := DecodeMutateRequest(
		[]byte(`{"window":{"lo":[0,0],"hi":[4,4]},"full":true}`), lim); err != nil || len(events) != 0 {
		t.Fatalf("full resync rejected: %v", err)
	}
}

// TestMutateConcurrency hammers one session from many goroutines under
// the race detector: the table lock and per-session mutex must fully
// serialize mutations, and the epoch must count exactly the applied
// batches.
func TestMutateConcurrency(t *testing.T) {
	s := NewServer(NewRegistry(4), ServerOptions{})
	const workers, rounds = 8, 20
	var wg sync.WaitGroup
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			// Each worker churns its own sensor, so every event is valid
			// regardless of interleaving.
			p := fmt.Sprintf("[%d,0]", wkr)
			for r := 0; r < rounds; r++ {
				for _, op := range []string{"leave", "join"} {
					body := `{"plan":{"tile":{"name":"cross:2:1"}},"window":{"lo":[0,0],"hi":[9,9]},` +
						`"events":[{"op":"` + op + `","p":` + p + `}]}`
					req := httptest.NewRequest("POST", "/v1/plan:mutate", strings.NewReader(body))
					rec := httptest.NewRecorder()
					s.ServeHTTP(rec, req)
					if rec.Code != http.StatusOK {
						t.Errorf("worker %d: status %d: %s", wkr, rec.Code, rec.Body)
						return
					}
				}
			}
		}(wkr)
	}
	wg.Wait()
	want := uint64(workers * rounds * 2)
	if muts, evs := s.met.sessMutations.Load(), s.met.sessEvents.Load(); muts != want || evs != want {
		t.Fatalf("%d mutations, %d events; want %d each", muts, evs, want)
	}
}
