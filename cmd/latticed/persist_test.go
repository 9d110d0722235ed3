package main

// Restart end-to-end: the daemon built over a -data directory must
// restore every mutation session — zero lost sessions, exact epochs,
// post-churn assignments — and expose the persistence telemetry on
// /metrics with histogram buckets in numeric le order.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"tilingsched/internal/service"
)

// mutate posts one mutate body and decodes the response.
func mutate(t *testing.T, client *http.Client, url, body string) service.MutateResponse {
	t.Helper()
	resp, raw := postJSON(t, client, url+"/v1/plan:mutate", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate status %d: %s", resp.StatusCode, raw)
	}
	var mr service.MutateResponse
	if err := json.Unmarshal(raw, &mr); err != nil {
		t.Fatalf("mutate response: %v", err)
	}
	return mr
}

// TestRestartRestoresSessions is ISSUE 8's acceptance e2e: mutate two
// sessions to distinct epochs, tear the daemon down, rebuild it over
// the same data directory, and resync both sessions — state and epoch
// must survive the restart.
func TestRestartRestoresSessions(t *testing.T) {
	dir := t.TempDir()
	logf := func(string, ...any) {} // keep restore chatter out of test output
	opts := daemonOptions{cache: 8, data: dir, logf: logf}

	h1, svc1, err := newDaemon(opts)
	if err != nil {
		t.Fatalf("newDaemon: %v", err)
	}
	ts1 := httptest.NewServer(h1)
	client := ts1.Client()

	const planA = `{"plan":{"tile":{"name":"cross:2:1"}},"window":{"lo":[0,0],"hi":[4,4]},`
	const planB = `{"plan":{"tile":{"name":"cross:2:1"}},"window":{"lo":[-2,-2],"hi":[2,2]},`
	mutate(t, client, ts1.URL, planA+`"events":[{"op":"leave","p":[1,1]}]}`)
	mutate(t, client, ts1.URL, planA+`"events":[{"op":"join","p":[6,2]}]}`)
	mutate(t, client, ts1.URL, planB+`"events":[{"op":"fail","p":[0,0]}]}`)
	wantA := mutate(t, client, ts1.URL, planA+`"full":true}`)
	wantB := mutate(t, client, ts1.URL, planB+`"full":true}`)
	if wantA.Epoch != 2 || wantB.Epoch != 1 {
		t.Fatalf("pre-restart epochs A=%d B=%d", wantA.Epoch, wantB.Epoch)
	}

	// Tear down: close the listener, then flush dirty sessions exactly as
	// main does after ListenAndServe returns.
	ts1.Close()
	if n := svc1.FlushSessions(); n != 2 {
		t.Fatalf("shutdown flushed %d sessions, want 2", n)
	}

	// Rebuild over the same directory. Restore-on-start must load both
	// sessions before traffic: /metrics reports them live immediately.
	h2, _, err := newDaemon(opts)
	if err != nil {
		t.Fatalf("newDaemon (restart): %v", err)
	}
	ts2 := httptest.NewServer(h2)
	defer ts2.Close()
	client = ts2.Client()

	vals, _ := scrapeMetrics(t, client, ts2.URL)
	if live := vals["latticed_sessions_live"]; live != 2 {
		t.Fatalf("restart lost sessions: %v live, want 2", live)
	}
	if restored := vals["latticed_sessions_restored_total"]; restored != 2 {
		t.Fatalf("restore-on-start restored %v sessions, want 2", restored)
	}

	gotA := mutate(t, client, ts2.URL, planA+`"full":true,"epoch":2}`)
	gotB := mutate(t, client, ts2.URL, planB+`"full":true,"epoch":1}`)
	for _, pair := range []struct {
		name      string
		want, got service.MutateResponse
	}{{"A", wantA, gotA}, {"B", wantB, gotB}} {
		if pair.got.Epoch != pair.want.Epoch || pair.got.Alive != pair.want.Alive {
			t.Fatalf("session %s: epoch/alive %d/%d, want %d/%d",
				pair.name, pair.got.Epoch, pair.got.Alive, pair.want.Epoch, pair.want.Alive)
		}
		want := map[string]int{}
		for _, ch := range pair.want.Changed {
			want[pointKey(ch.P)] = ch.Slot
		}
		if len(pair.got.Changed) != len(want) {
			t.Fatalf("session %s: %d sensors after restart, want %d",
				pair.name, len(pair.got.Changed), len(want))
		}
		for _, ch := range pair.got.Changed {
			if slot, ok := want[pointKey(ch.P)]; !ok || slot != ch.Slot {
				t.Fatalf("session %s: sensor %v slot %d, want %d", pair.name, ch.P, ch.Slot, slot)
			}
		}
	}

	// The restored daemon keeps mutating and persisting: one more batch,
	// one more restart, epoch advances by exactly one.
	mutate(t, client, ts2.URL, planA+`"events":[{"op":"leave","p":[6,2]}]}`)
	ts2.Close()
	h3, _, err := newDaemon(opts)
	if err != nil {
		t.Fatalf("newDaemon (second restart): %v", err)
	}
	ts3 := httptest.NewServer(h3)
	defer ts3.Close()
	if got := mutate(t, ts3.Client(), ts3.URL, planA+`"full":true}`); got.Epoch != 3 {
		t.Fatalf("second restart epoch %d, want 3", got.Epoch)
	}

	// /metrics exposes the persistence plane, and every histogram's
	// buckets are in numeric le order with +Inf last.
	mresp, err := ts3.Client().Get(ts3.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer mresp.Body.Close()
	raw, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatalf("reading /metrics: %v", err)
	}
	text := string(raw)
	for _, fam := range []string{
		"latticed_sessions_restored_total",
		"latticed_wal_appends_total",
		"latticed_wal_fsyncs_total",
		"latticed_snapshots_total",
		"latticed_wal_torn_tails_total",
		"latticed_wal_replayed_events_total",
		"latticed_wal_append_ns",
		"latticed_snapshot_ns",
	} {
		if !strings.Contains(text, "# TYPE "+fam+" ") {
			t.Errorf("/metrics missing family %s", fam)
		}
	}
	checkBucketOrder(t, text)
}

func pointKey(p []int) string {
	parts := make([]string, len(p))
	for i, c := range p {
		parts[i] = strconv.Itoa(c)
	}
	return strings.Join(parts, ",")
}

var bucketLine = regexp.MustCompile(`^(.*)le="([^"]+)"(.*) `)

// checkBucketOrder scans an exposition for `_bucket` series and asserts
// each label group's le values are strictly increasing with +Inf last.
func checkBucketOrder(t *testing.T, text string) {
	t.Helper()
	type state struct {
		last    uint64
		sawInf  bool
		buckets int
	}
	groups := map[string]*state{}
	for _, line := range strings.Split(text, "\n") {
		if !strings.Contains(line, `le="`) {
			continue
		}
		m := bucketLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparseable bucket line %q", line)
		}
		key := m[1] + m[3]
		g, ok := groups[key]
		if !ok {
			g = &state{}
			groups[key] = g
		}
		g.buckets++
		if g.sawInf {
			t.Fatalf("bucket after +Inf in group %q: %q", key, line)
		}
		if m[2] == "+Inf" {
			g.sawInf = true
			continue
		}
		le, err := strconv.ParseUint(m[2], 10, 64)
		if err != nil {
			t.Fatalf("bad le in %q: %v", line, err)
		}
		if g.buckets > 1 && le <= g.last {
			t.Fatalf("le %d out of order in group %q (previous %d)", le, key, g.last)
		}
		g.last = le
	}
	if len(groups) == 0 {
		t.Fatal("no histogram buckets in exposition")
	}
	for key, g := range groups {
		if !g.sawInf {
			t.Errorf("group %q has no +Inf bucket", key)
		}
	}
}
