package main

// End-to-end coverage of the telemetry plane: GET /metrics must emit
// valid Prometheus text exposition whose numbers match the traffic the
// handler actually served — per-endpoint × codec request counts and
// latency histograms, plan-registry hit/miss counters, dynamic-session
// and event metrics, the per-plan traffic sketch, and the Go runtime
// families appended by the daemon. A second test scrapes concurrently
// with live mutate churn to pin the weakly-consistent snapshot
// contract (counters never go backwards between scrapes).

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"tilingsched/internal/obs"
	"tilingsched/internal/service"
	"tilingsched/internal/service/binwire"
)

// parseMetrics parses a Prometheus text exposition page into series
// (name with label block → value) and family types, failing the test
// on any malformed or duplicate line — the byte-level contract check.
func parseMetrics(t *testing.T, text string) (map[string]float64, map[string]string) {
	t.Helper()
	values := map[string]float64{}
	types := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			fam, kind, found := strings.Cut(rest, " ")
			if !found {
				t.Fatalf("malformed TYPE line %q", line)
			}
			if prev, dup := types[fam]; dup && prev != kind {
				t.Fatalf("family %q declared both %q and %q", fam, prev, kind)
			}
			types[fam] = kind
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed series line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("series %q: bad value: %v", line, err)
		}
		if _, dup := values[line[:i]]; dup {
			t.Fatalf("duplicate series %q", line[:i])
		}
		values[line[:i]] = v
	}
	return values, types
}

// scrapeMetrics GETs /metrics and parses it.
func scrapeMetrics(t *testing.T, client *http.Client, url string) (map[string]float64, map[string]string) {
	t.Helper()
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("Content-Type %q, want %q", ct, obs.ContentType)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading /metrics: %v", err)
	}
	return parseMetrics(t, string(raw))
}

// TestMetricsEndpoint drives JSON and binary traffic through every
// instrumented endpoint and asserts the exposition page reports it.
func TestMetricsEndpoint(t *testing.T) {
	ts := httptest.NewServer(newHandler(daemonOptions{cache: 8}))
	defer ts.Close()
	client := ts.Client()

	const plan = `{"tile":{"name":"cross:2:1"}}`

	// Plan compile (registry miss #1) — also learns the signature for
	// the traffic-sketch assertion.
	resp, raw := postJSON(t, client, ts.URL+"/v1/plan", `{"plan":`+plan+`}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan: %d %s", resp.StatusCode, raw)
	}
	var pr service.PlanResponse
	if err := json.Unmarshal(raw, &pr); err != nil || pr.Signature == "" {
		t.Fatalf("plan response %s: %v", raw, err)
	}

	// Two JSON slots batches of 3 points, one JSON may-broadcast.
	const batch = `{"plan":` + plan + `,"points":[[0,0],[1,2],[3,4]]}`
	for i := 0; i < 2; i++ {
		if resp, raw := postJSON(t, client, ts.URL+"/v1/slots:batch", batch); resp.StatusCode != http.StatusOK {
			t.Fatalf("slots: %d %s", resp.StatusCode, raw)
		}
	}
	if resp, raw := postJSON(t, client, ts.URL+"/v1/maybroadcast:batch",
		`{"plan":`+plan+`,"points":[[0,0],[1,2],[3,4]],"t":7}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("may: %d %s", resp.StatusCode, raw)
	}

	// One binary slots batch of 3 points (codec="bin").
	e := binwire.Get()
	service.EncodeBatchBinary(e, service.BatchRequest{
		Plan:   service.PlanSpec{Tile: service.TileSpec{Name: "cross:2:1"}},
		Points: [][]int{{0, 0}, {1, 2}, {3, 4}},
	}, false, "")
	breq, err := http.NewRequest("POST", ts.URL+"/v1/slots:batch", bytes.NewReader(e.Bytes()))
	binwire.Put(e)
	if err != nil {
		t.Fatal(err)
	}
	breq.Header.Set("Content-Type", service.BinaryContentType)
	bresp, err := client.Do(breq)
	if err != nil {
		t.Fatalf("binary slots: %v", err)
	}
	io.Copy(io.Discard, bresp.Body)
	bresp.Body.Close()
	if bresp.StatusCode != http.StatusOK {
		t.Fatalf("binary slots: status %d", bresp.StatusCode)
	}

	// One mutate with a leave event (creates a dynamic session).
	if resp, raw := postJSON(t, client, ts.URL+"/v1/plan:mutate",
		`{"plan":`+plan+`,"window":{"lo":[0,0],"hi":[4,4]},"events":[{"op":"leave","p":[2,2]}]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate: %d %s", resp.StatusCode, raw)
	}

	// One failing request: an unknown tile name is a 400 on the slots
	// endpoint, which must land in the error counter.
	if resp, _ := postJSON(t, client, ts.URL+"/v1/slots:batch",
		`{"plan":{"tile":{"name":"no-such-tile"}},"points":[[0,0]]}`); resp.StatusCode == http.StatusOK {
		t.Fatal("bogus tile accepted")
	}

	values, types := scrapeMetrics(t, client, ts.URL)

	// Request counters by endpoint × codec.
	wantCounts := map[string]float64{
		`latticed_requests_total{endpoint="plan",codec="json"}`:         1,
		`latticed_requests_total{endpoint="slots",codec="json"}`:        3, // 2 ok + 1 bogus tile
		`latticed_requests_total{endpoint="slots",codec="bin"}`:         1,
		`latticed_requests_total{endpoint="maybroadcast",codec="json"}`: 1,
		`latticed_requests_total{endpoint="mutate",codec="json"}`:       1,
		`latticed_errors_total{endpoint="slots",codec="json"}`:          1,
	}
	for series, want := range wantCounts {
		if got := values[series]; got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
	if types["latticed_requests_total"] != "counter" {
		t.Errorf("latticed_requests_total type %q", types["latticed_requests_total"])
	}

	// Latency histograms per endpoint × codec: count matches requests,
	// +Inf bucket matches count, sum is positive.
	for _, labels := range []string{
		`{endpoint="slots",codec="json"}`,
		`{endpoint="slots",codec="bin"}`,
	} {
		want := wantCounts[`latticed_requests_total`+labels]
		if got := values[`latticed_request_ns_count`+labels]; got != want {
			t.Errorf("latency count%s = %v, want %v", labels, got, want)
		}
		inf := "latticed_request_ns_bucket" + strings.TrimSuffix(labels, "}") + `,le="+Inf"}`
		if got := values[inf]; got != want {
			t.Errorf("%s = %v, want %v", inf, got, want)
		}
		if values[`latticed_request_ns_sum`+labels] <= 0 {
			t.Errorf("latency sum%s not positive", labels)
		}
	}
	if types["latticed_request_ns"] != "histogram" {
		t.Errorf("latticed_request_ns type %q", types["latticed_request_ns"])
	}

	// Batch sizes: 2 JSON slots + 1 may + 1 bin (3 points each) + 1
	// mutate (1 event) = 5 recorded batches, 13 points.
	if got := values["latticed_batch_points_count"]; got != 5 {
		t.Errorf("batch size count = %v, want 5", got)
	}
	if got := values["latticed_batch_points_sum"]; got != 13 {
		t.Errorf("batch size sum = %v, want 13", got)
	}

	// Registry traffic: one compile, everything after it a hit. The
	// bogus tile fails spec resolution before reaching the cache.
	if got := values["latticed_registry_misses_total"]; got != 1 {
		t.Errorf("registry misses = %v, want 1", got)
	}
	if got := values["latticed_registry_compilations_total"]; got != 1 {
		t.Errorf("registry compilations = %v, want 1", got)
	}
	if got := values["latticed_registry_hits_total"]; got < 4 {
		t.Errorf("registry hits = %v, want >= 4", got)
	}
	if got := values["latticed_plans"]; got != 1 {
		t.Errorf("latticed_plans = %v, want 1", got)
	}

	// Dynamic plane: one session, one mutation, one leave event.
	if got := values["latticed_sessions_live"]; got != 1 {
		t.Errorf("sessions live = %v, want 1", got)
	}
	if got := values["latticed_mutations_total"]; got != 1 {
		t.Errorf("mutations = %v, want 1", got)
	}
	if got := values[`latticed_dynamic_events_total{op="leave"}`]; got != 1 {
		t.Errorf("leave events = %v, want 1", got)
	}

	// Per-plan traffic sketch: the compiled plan's signature carries
	// the 13 points answered for it.
	sig := `latticed_plan_points_total{signature="` + pr.Signature + `"}`
	if got := values[sig]; got != 13 {
		t.Errorf("%s = %v, want 13", sig, got)
	}

	// Go runtime families appended by the daemon.
	if values["go_goroutines"] < 1 {
		t.Errorf("go_goroutines = %v", values["go_goroutines"])
	}
	if values["go_memstats_heap_alloc_bytes"] <= 0 {
		t.Errorf("heap alloc = %v", values["go_memstats_heap_alloc_bytes"])
	}
	if types["go_gc_cycles_total"] != "counter" {
		t.Errorf("go_gc_cycles_total type %q", types["go_gc_cycles_total"])
	}
}

// TestMetricsUnderChurn scrapes /metrics concurrently with live mutate
// traffic: every scrape must parse cleanly and the request counter
// must never decrease between scrapes (the weakly-consistent snapshot
// contract), with the final scrape agreeing exactly with the traffic.
func TestMetricsUnderChurn(t *testing.T) {
	ts := httptest.NewServer(newHandler(daemonOptions{cache: 8}))
	defer ts.Close()
	client := ts.Client()

	const workers, rounds = 4, 10
	var wg sync.WaitGroup
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			p := fmt.Sprintf("[%d,0]", wkr)
			for r := 0; r < rounds; r++ {
				for _, op := range []string{"leave", "join"} {
					body := `{"plan":{"tile":{"name":"cross:2:1"}},"window":{"lo":[0,0],"hi":[9,9]},` +
						`"events":[{"op":"` + op + `","p":` + p + `}]}`
					resp, err := client.Post(ts.URL+"/v1/plan:mutate", "application/json", strings.NewReader(body))
					if err != nil {
						t.Errorf("worker %d: %v", wkr, err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("worker %d: status %d", wkr, resp.StatusCode)
						return
					}
				}
			}
		}(wkr)
	}

	stop := make(chan struct{})
	scraperDone := make(chan struct{})
	go func() {
		defer close(scraperDone)
		var last float64
		for {
			select {
			case <-stop:
				return
			default:
			}
			values, _ := scrapeMetrics(t, client, ts.URL)
			got := values[`latticed_requests_total{endpoint="mutate",codec="json"}`]
			if got < last {
				t.Errorf("mutate counter went backwards: %v after %v", got, last)
				return
			}
			last = got
		}
	}()

	wg.Wait()
	close(stop)
	<-scraperDone

	values, _ := scrapeMetrics(t, client, ts.URL)
	want := float64(workers * rounds * 2)
	if got := values[`latticed_requests_total{endpoint="mutate",codec="json"}`]; got != want {
		t.Fatalf("final mutate requests = %v, want %v", got, want)
	}
	if got := values["latticed_mutation_events_total"]; got != want {
		t.Fatalf("final mutation events = %v, want %v", got, want)
	}
	if got := values[`latticed_dynamic_events_total{op="join"}`]; got != want/2 {
		t.Fatalf("join events = %v, want %v", got, want/2)
	}
}
