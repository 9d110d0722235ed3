package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"tilingsched/internal/lattice"
	"tilingsched/internal/service/binwire"
)

// TestSessionsServeTheorem1 drives scripted churn through
// /v1/plan:mutate in both codecs — joins and moves inside the window
// and up to four cells outside it — and checks that every slot the
// session serves, in mutate responses, pushed deltas and full resyncs,
// is the slot /v1/slots:batch answers for the same point, and that
// every M is the plan's m.
func TestSessionsServeTheorem1(t *testing.T) {
	s := NewServer(NewRegistry(8), ServerOptions{})
	srv := httptest.NewServer(s)
	defer srv.Close()
	spec := PlanSpec{Tile: TileSpec{Name: "cross:2:1"}}
	ws := WindowSpec{Lo: []int{0, 0}, Hi: []int{7, 7}}
	const reach = 4

	// The reference answers: /v1/slots:batch over the window grown by
	// reach, which covers every point the script touches.
	refWin := mustWindow(t, []int{-reach, -reach}, []int{7 + reach, 7 + reach})
	resp, body := postJSON(t, srv, "/v1/slots:batch", BatchRequest{Plan: spec,
		Window: &WindowSpec{Lo: refWin.Lo, Hi: refWin.Hi}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("slots batch status %d: %s", resp.StatusCode, body)
	}
	var ref SlotsResponse
	if err := json.Unmarshal(body, &ref); err != nil {
		t.Fatal(err)
	}
	check := func(what string, m int, changes []ChangeSpec) {
		t.Helper()
		if m != ref.M {
			t.Fatalf("%s: m = %d, plan m = %d", what, m, ref.M)
		}
		for _, ch := range changes {
			i, ok := refWin.IndexOf(ch.P)
			if !ok {
				t.Fatalf("%s: change at %v outside the script's reach", what, ch.P)
			}
			if ch.Slot >= 0 && ch.Slot != int(ref.Slots[i]) {
				t.Fatalf("%s: %v holds slot %d, /v1/slots:batch answers %d", what, ch.P, ch.Slot, ref.Slots[i])
			}
		}
	}

	feed, err := s.Subscribe(spec, ws, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer feed.Close()
	check("hello", feed.Hello.M, nil)
	for _, d := range feed.Catch {
		check("attach resync", d.M, d.Changed)
	}

	mutate := func(req MutateRequest, bin bool) MutateResponse {
		t.Helper()
		var (
			resp *http.Response
			body []byte
			mr   MutateResponse
			err  error
		)
		if bin {
			e := binwire.Get()
			if err := EncodeMutateBinary(e, req, ""); err != nil {
				t.Fatal(err)
			}
			resp, body = postBin(t, srv, "/v1/plan:mutate", bytes.Clone(e.Bytes()))
			binwire.Put(e)
			mr, err = DecodeMutateStream(body)
		} else {
			resp, body = postJSON(t, srv, "/v1/plan:mutate", req)
			err = json.Unmarshal(body, &mr)
		}
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("mutate (binary %v): status %d, %v: %s", bin, resp.StatusCode, err, body)
		}
		return mr
	}

	rng := rand.New(rand.NewSource(17))
	alive := map[[2]int]bool{}
	for x := 0; x <= 7; x++ {
		for y := 0; y <= 7; y++ {
			alive[[2]int{x, y}] = true
		}
	}
	pick := func(want bool) ([2]int, bool) {
		for tries := 0; tries < 64; tries++ {
			p := [2]int{rng.Intn(16) - reach, rng.Intn(16) - reach}
			if alive[p] == want {
				return p, true
			}
		}
		return [2]int{}, false
	}
	const batches = 60
	outside := 0
	for b := 0; b < batches; b++ {
		var events []EventSpec
		for n := 1 + rng.Intn(4); len(events) < n; {
			p, okP := pick(true)
			q, okQ := pick(false)
			switch op := rng.Intn(4); {
			case op == 0 && okQ:
				events = append(events, EventSpec{Op: "join", P: q[:]})
				alive[q] = true
			case op == 1 && okP:
				events = append(events, EventSpec{Op: "leave", P: p[:]})
				alive[p] = false
			case op == 2 && okP:
				events = append(events, EventSpec{Op: "fail", P: p[:]})
				alive[p] = false
			case okP && okQ:
				events = append(events, EventSpec{Op: "move", P: p[:], To: q[:]})
				alive[p], alive[q] = false, true
			}
		}
		for _, ev := range events {
			to := ev.To
			if ev.Op == "join" {
				to = ev.P
			}
			if to != nil && (min(to[0], to[1]) < 0 || max(to[0], to[1]) > 7) {
				outside++
			}
		}
		bin := b%2 == 1
		mr := mutate(MutateRequest{Plan: spec, Window: ws, Events: events}, bin)
		check(fmt.Sprintf("batch %d response", b), mr.M, mr.Changed)
		if mr.Disruption.Events != len(events) || mr.Disruption.Reassigned != 0 {
			t.Fatalf("batch %d: disruption %+v for %d events", b, mr.Disruption, len(events))
		}
		if b%10 == 9 {
			full := mutate(MutateRequest{Plan: spec, Window: ws, Full: true}, !bin)
			check(fmt.Sprintf("full resync after batch %d", b), full.M, full.Changed)
			n := 0
			for _, up := range alive {
				if up {
					n++
				}
			}
			if len(full.Changed) != n || full.Alive != n {
				t.Fatalf("full resync after batch %d: %d sensors (alive %d), script has %d", b, len(full.Changed), full.Alive, n)
			}
		}
	}
	if outside == 0 {
		t.Fatal("script never joined or moved outside the window")
	}
	for e := 1; e <= batches; e++ {
		select {
		case d := <-feed.C:
			check(fmt.Sprintf("delta %d", d.Epoch), d.M, d.Changed)
		case <-time.After(10 * time.Second):
			t.Fatalf("delta %d never arrived", e)
		}
	}
}

// metricSum sums every /metrics sample whose series name starts with
// prefix.
func metricSum(t *testing.T, s *Server, prefix string) uint64 {
	t.Helper()
	var sb strings.Builder
	if err := s.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	var sum uint64
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		v, err := strconv.ParseUint(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("metric line %q: %v", line, err)
		}
		sum += v
	}
	return sum
}

// TestEventCountersAgree: latticed_dynamic_events_total counts served
// events only, so summed over op it equals
// latticed_mutation_events_total — after WAL catch-ups, which fold the
// logged events again, and on a server that only restored the session.
func TestEventCountersAgree(t *testing.T) {
	dir := t.TempDir()
	s := newPersistServer(t, dir, ServerOptions{})
	for _, ev := range []string{
		`{"op":"leave","p":[1,1]}`, `{"op":"join","p":[6,2]}`, `{"op":"leave","p":[0,0]}`,
	} {
		mutateJSON(t, s, persistBody(`"events":[`+ev+`]`), http.StatusOK)
	}
	spec := PlanSpec{Tile: TileSpec{Name: "cross:2:1"}}
	ws := WindowSpec{Lo: []int{0, 0}, Hi: []int{4, 4}}
	for i := 0; i < 3; i++ {
		zero := uint64(0)
		feed, err := s.Subscribe(spec, ws, &zero)
		if err != nil {
			t.Fatal(err)
		}
		if len(feed.Catch) != 3 || feed.Catch[0].Full {
			t.Fatalf("subscriber %d: %d catch-up deltas, want 3 from the WAL", i, len(feed.Catch))
		}
		feed.Close()
	}
	agree := func(what string, s *Server, want uint64) {
		t.Helper()
		byOp := metricSum(t, s, "latticed_dynamic_events_total{")
		served := metricSum(t, s, "latticed_mutation_events_total ")
		if byOp != want || served != want {
			t.Fatalf("%s: latticed_dynamic_events_total sums to %d, latticed_mutation_events_total %d; want %d",
				what, byOp, served, want)
		}
	}
	agree("after catch-ups", s, 3)

	s2 := newPersistServer(t, dir, ServerOptions{})
	if n, err := s2.RestoreSessions(); err != nil || n != 1 {
		t.Fatalf("RestoreSessions = (%d, %v), want (1, nil)", n, err)
	}
	agree("after a restore", s2, 0)
}

// TestSeedLiveSet pins the seed bitset at window sizes around the word
// boundary: every window point live, nothing past the window.
func TestSeedLiveSet(t *testing.T) {
	for _, side := range []int{1, 7, 8, 9} {
		w := mustWindow(t, []int{-3, 2}, []int{side - 4, side + 1})
		ls := newLiveSet(w, true)
		n := 0
		ls.each(func(p lattice.Point) bool {
			if !w.Contains(p) {
				t.Fatalf("side %d: live point %v outside the window", side, p)
			}
			n++
			return true
		})
		if n != w.Size() || ls.alive != n {
			t.Fatalf("side %d: %d live points (alive %d), want %d", side, n, ls.alive, w.Size())
		}
	}
}
