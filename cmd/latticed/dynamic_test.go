package main

// End-to-end coverage of the dynamic-deployment plane: the mutate
// endpoint's full client workflow (churn, epoch tracking, delta
// application, conflict + resync) and the opt-in pprof plane, driven
// over real HTTP against exactly what main serves.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tilingsched/internal/service"
)

// TestMutateRoundTrip simulates a delta-tracking client: establish a
// session, churn it, apply every delta to a local schedule copy, and
// check the local copy stays consistent with a full resync — without
// ever re-downloading slots in between.
func TestMutateRoundTrip(t *testing.T) {
	ts := httptest.NewServer(newHandler(daemonOptions{cache: 8}))
	defer ts.Close()
	client := ts.Client()

	const plan = `{"tile":{"name":"cross:2:1"}}`
	const window = `{"lo":[0,0],"hi":[4,4]}`
	mutate := func(body string) (service.MutateResponse, int) {
		t.Helper()
		resp, raw := postJSON(t, client, ts.URL+"/v1/plan:mutate", body)
		var mr service.MutateResponse
		if err := json.Unmarshal(raw, &mr); err != nil {
			t.Fatalf("mutate response %s: %v", raw, err)
		}
		return mr, resp.StatusCode
	}

	// Bootstrap: full snapshot of the fresh session (25 sensors, 5 slots).
	local := map[string]int{}
	key := func(p []int) string { return fmt.Sprintf("%d,%d", p[0], p[1]) }
	mr, status := mutate(`{"plan":` + plan + `,"window":` + window + `,"full":true}`)
	if status != http.StatusOK || mr.Epoch != 0 || mr.M != 5 || mr.Alive != 25 {
		t.Fatalf("bootstrap: status=%d %+v", status, mr)
	}
	for _, ch := range mr.Changed {
		local[key(ch.P)] = ch.Slot
	}
	if len(local) != 25 {
		t.Fatalf("bootstrap snapshot has %d sensors", len(local))
	}
	epoch := mr.Epoch

	// Churn: leave, fail, an out-of-window join, a move — tracking deltas.
	steps := []string{
		`{"events":[{"op":"leave","p":[2,2]}]}`,
		`{"events":[{"op":"fail","p":[0,0]},{"op":"join","p":[5,2]}]}`,
		`{"events":[{"op":"move","p":[4,4],"to":[6,6]}]}`,
		`{"events":[{"op":"join","p":[2,2]}]}`,
	}
	for _, evs := range steps {
		body := fmt.Sprintf(`{"plan":%s,"window":%s,"epoch":%d,%s`, plan, window, epoch, evs[1:])
		mr, status = mutate(body)
		if status != http.StatusOK {
			t.Fatalf("mutate %s: status %d (%+v)", evs, status, mr)
		}
		if mr.Epoch != epoch+1 {
			t.Fatalf("epoch %d after %s, want %d", mr.Epoch, evs, epoch+1)
		}
		epoch = mr.Epoch
		for _, ch := range mr.Changed {
			if ch.Slot < 0 {
				delete(local, key(ch.P))
			} else {
				local[key(ch.P)] = ch.Slot
			}
		}
	}
	if len(local) != int(mr.Alive) {
		t.Fatalf("local copy has %d sensors, server says %d", len(local), mr.Alive)
	}

	// Stale epoch: a client that missed a delta gets 409 + current epoch.
	mr, status = mutate(`{"plan":` + plan + `,"window":` + window +
		`,"epoch":0,"events":[{"op":"leave","p":[1,1]}]}`)
	if status != http.StatusConflict || mr.Epoch != epoch || mr.Error == "" {
		t.Fatalf("stale epoch: status=%d %+v", status, mr)
	}

	// Resync: the full snapshot must agree with the tracked local copy.
	mr, status = mutate(fmt.Sprintf(`{"plan":%s,"window":%s,"epoch":%d,"full":true}`, plan, window, epoch))
	if status != http.StatusOK {
		t.Fatalf("resync: status %d", status)
	}
	if len(mr.Changed) != len(local) {
		t.Fatalf("resync has %d sensors, local %d", len(mr.Changed), len(local))
	}
	for _, ch := range mr.Changed {
		if got, ok := local[key(ch.P)]; !ok || got != ch.Slot {
			t.Fatalf("delta tracking diverged at %v: local=%d,%v server=%d", ch.P, got, ok, ch.Slot)
		}
	}

	// The churned schedule stays collision-free: no two conflicting live
	// sensors (L1 distance ≤ 2 for radius-1 crosses) share a slot.
	at := map[string]int{}
	for _, ch := range mr.Changed {
		at[key(ch.P)] = ch.Slot
	}
	for _, ch := range mr.Changed {
		x, y := ch.P[0], ch.P[1]
		for dx := -2; dx <= 2; dx++ {
			for dy := -2; dy <= 2; dy++ {
				if dx == 0 && dy == 0 || abs(dx)+abs(dy) > 2 {
					continue
				}
				if s, ok := at[fmt.Sprintf("%d,%d", x+dx, y+dy)]; ok && s == ch.Slot {
					t.Fatalf("conflicting live sensors (%d,%d) and (%d,%d) share slot %d",
						x, y, x+dx, y+dy, ch.Slot)
				}
			}
		}
	}

	// Bad events over the wire: occupied join is a 400 with an error
	// body; the decode-level margin bound is a 413.
	if _, status = mutate(`{"plan":` + plan + `,"window":` + window +
		`,"events":[{"op":"join","p":[1,1]}]}`); status != http.StatusBadRequest {
		t.Fatalf("occupied join: status %d", status)
	}
	if _, status = mutate(`{"plan":` + plan + `,"window":` + window +
		`,"events":[{"op":"join","p":[500,500]}]}`); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("far join: status %d", status)
	}

	// The metrics reflect the mutation traffic.
	vals, _ := scrapeMetrics(t, client, ts.URL)
	if live, muts, confl := vals["latticed_sessions_live"], vals["latticed_mutations_total"],
		vals["latticed_epoch_conflicts_total"]; live != 1 || muts < 4 || confl != 1 {
		t.Fatalf("session metrics: %v live, %v mutations, %v conflicts", live, muts, confl)
	}
	if n := vals[`latticed_requests_total{endpoint="mutate",codec="json"}`]; n < 7 {
		t.Fatalf("mutate requests %v", n)
	}
}

// TestDebugEndpoints checks the opt-in debug plane: pprof responds when
// -debug is on and only then, no /debug/vars page is served, and the
// traffic counters — the plan registry's real hit/miss numbers among
// them — are this handler's own /metrics series.
func TestDebugEndpoints(t *testing.T) {
	ts := httptest.NewServer(newHandler(daemonOptions{cache: 8, debug: true}))
	defer ts.Close()
	client := ts.Client()

	// Generate some traffic so the counters are non-zero: the first
	// batch compiles the plan (a registry miss), the second hits the
	// cache.
	const body = `{"plan":{"tile":{"name":"cross:2:1"}},"points":[[0,0],[1,2],[3,4]]}`
	for i := 0; i < 2; i++ {
		if resp, raw := postJSON(t, client, ts.URL+"/v1/slots:batch", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("slots batch: %d %s", resp.StatusCode, raw)
		}
	}

	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline"} {
		resp, err := client.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
	}
	resp, err := client.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatalf("GET /debug/vars: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("/debug/vars still served")
	}

	vals, _ := scrapeMetrics(t, client, ts.URL)
	if reqs, pts, plans := vals[`latticed_requests_total{endpoint="slots",codec="json"}`],
		vals["latticed_batch_points_sum"], vals["latticed_plans"]; reqs < 2 || pts < 6 || plans < 1 {
		t.Fatalf("batch metrics: %v requests, %v points, %v plans", reqs, pts, plans)
	}
	// The registry counters are this handler's real cache traffic, not a
	// process-global approximation: one miss compiled the plan, the
	// second request hit.
	if misses, comps, hits, evs := vals["latticed_registry_misses_total"], vals["latticed_registry_compilations_total"],
		vals["latticed_registry_hits_total"], vals["latticed_registry_evictions_total"]; misses != 1 || comps != 1 || hits < 1 || evs != 0 {
		t.Fatalf("registry metrics: %v misses, %v compilations, %v hits, %v evictions", misses, comps, hits, evs)
	}

	// The service endpoints still work through the debug mux.
	if resp, raw := postJSON(t, client, ts.URL+"/v1/plan", `{"plan":{"tile":{"name":"cross:2:1"}}}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("plan through debug mux: %d %s", resp.StatusCode, raw)
	}

	// Off switch: no debug endpoints without the flag.
	plain := httptest.NewServer(newHandler(daemonOptions{cache: 8}))
	defer plain.Close()
	presp, err := plain.Client().Get(plain.URL + "/debug/pprof/")
	if err != nil {
		t.Fatalf("GET /debug/pprof/ (plain): %v", err)
	}
	presp.Body.Close()
	if presp.StatusCode == http.StatusOK {
		t.Error("debug endpoints served without -debug")
	}
	if !strings.HasPrefix(plain.URL, "http") {
		t.Fatal("unreachable")
	}
}
