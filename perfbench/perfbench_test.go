package main

import (
	"bytes"
	"math"
	"testing"
	"time"
)

// scriptBytes concatenates a script's request bodies.
func scriptBytes(t *testing.T, seed uint64, bin bool) []byte {
	t.Helper()
	reqs, err := genLookupScript(seed, bin)
	if err != nil {
		t.Fatal(err)
	}
	var all []byte
	for _, r := range reqs {
		all = append(all, r.body...)
	}
	return all
}

func churnBytes(t *testing.T, seed uint64) []byte {
	t.Helper()
	sc, err := genChurnScript(seed, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var all []byte
	for _, r := range sc.reqs {
		all = append(all, byte(r.due), byte(r.due>>8), byte(r.due>>16), byte(r.due>>24))
		all = append(all, r.body...)
	}
	return all
}

func TestScriptsAreSeeded(t *testing.T) {
	for _, bin := range []bool{false, true} {
		a, b := scriptBytes(t, 7, bin), scriptBytes(t, 7, bin)
		if !bytes.Equal(a, b) {
			t.Errorf("bin=%v: the same seed gave different lookup scripts", bin)
		}
		if bytes.Equal(a, scriptBytes(t, 8, bin)) {
			t.Errorf("bin=%v: seeds 7 and 8 gave the same lookup script", bin)
		}
	}
	a, b := churnBytes(t, 7), churnBytes(t, 7)
	if !bytes.Equal(a, b) {
		t.Error("the same seed gave different churn scripts")
	}
	if bytes.Equal(a, churnBytes(t, 8)) {
		t.Error("seeds 7 and 8 gave the same churn script")
	}
}

func TestQuantile(t *testing.T) {
	cases := []struct {
		xs   []int64
		q    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]int64{5}, 0.99, 5},
		{[]int64{3, 1, 2}, 0.5, 2},
		{[]int64{1, 2, 3, 4}, 0.5, 2.5},
		{[]int64{10, 20, 30, 40, 50}, 0.25, 20},
		{[]int64{0, 100}, 0.99, 99},
		{[]int64{4, 1, 3, 2}, 1, 4},
		{[]int64{4, 1, 3, 2}, 0, 1},
	}
	for _, c := range cases {
		xs := append([]int64(nil), c.xs...)
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	// p99 of 1..1000 sits between the 990th and 991st values.
	xs := make([]int64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = int64(i + 1)
	}
	if got := quantile(xs, 0.99); math.Abs(got-990.01) > 1e-9 {
		t.Errorf("p99 of 1..1000 = %v, want 990.01", got)
	}
}

func TestVerifyRejectsCorruptedSlot(t *testing.T) {
	for _, bin := range []bool{false, true} {
		reqs, _, err := prepareLookups(3, bin)
		if err != nil {
			t.Fatal(err)
		}
		for i := range reqs {
			r := &reqs[i]
			good := lookupAnswer{slots: append([]int32(nil), r.wantSlots...), may: append([]bool(nil), r.wantMay...)}
			if err := r.verify(good); err != nil {
				t.Fatalf("request %d: the precomputed answer fails: %v", i, err)
			}
			bad := lookupAnswer{slots: append([]int32(nil), r.wantSlots...), may: append([]bool(nil), r.wantMay...)}
			k := i % r.points
			if r.may {
				bad.may[k] = !bad.may[k]
			} else {
				bad.slots[k] = (bad.slots[k] + 1) % int32(lookupPlanSlots(r.plan))
			}
			if r.verify(bad) == nil {
				t.Fatalf("request %d: a corrupted answer at %d passed", i, k)
			}
		}
	}
}

// lookupPlanSlots is the slot count of a lookup plan (|N| of its tile).
func lookupPlanSlots(plan int) int { return []int{5, 7, 7}[plan] }

func TestServerRepliesMatchAnswers(t *testing.T) {
	for _, bin := range []bool{false, true} {
		reqs, _, err := prepareLookups(4, bin)
		if err != nil {
			t.Fatal(err)
		}
		lb, err := lookupSetup()
		if err != nil {
			t.Fatal(err)
		}
		var tl tally
		lookupPass(lb, reqs, bin, 0, &tl)
		lb.close()
		if tl.failed != 0 || tl.attempted != int64(len(reqs)) {
			t.Errorf("bin=%v: %d of %d lookups failed: %v", bin, tl.failed, tl.attempted, tl.msgs)
		}
	}
}

// TestSelfTimesSumToStage3 checks the ledger on a fixed script: per
// request, the stage self times sum to the loopback (stage 3) span.
func TestSelfTimesSumToStage3(t *testing.T) {
	led := newLedger(lookupStages)
	spans := []struct {
		name       string
		req        int
		start, end int64
	}{
		{"http", 0, 0, 1000},
		{"handler", 0, 2000, 2800},
		{"wire.json_decode", 0, 3000, 3300},
		{"registry.get", 0, 3300, 3310},
		{"engine", 0, 3310, 3400},
		{"wire.json_encode", 0, 3400, 3500},
		{"http", 1, 100, 700},
		{"handler", 1, 2000, 2500},
		{"binary.decode", 1, 3000, 3050},
		{"engine", 1, 3050, 3350},
	}
	for _, s := range spans {
		led.addNs(s.name, s.req, s.start, s.end)
	}
	sums := led.selfTimes(func(int32) string { return "all" })["all"]
	var total float64
	for _, ns := range sums {
		total += ns
	}
	if total != 1000+600 {
		t.Errorf("self times sum to %v ns, want the stage-3 total 1600", total)
	}
	want := map[string]float64{"http": 200 + 100, "handler": 300 + 150, "engine": 90 + 300}
	for name, ns := range want {
		if sums[name] != ns {
			t.Errorf("self(%s) = %v, want %v", name, sums[name], ns)
		}
	}
}

// TestTracedRunReportsEveryLayer runs the lookup stages on a short live
// script and checks that every per-layer metric is reported and the
// stages measured work.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("live traced run")
	}
	t.Chdir(t.TempDir()) // the run writes its spans under .bench_build
	var tl tally
	m, _, err := traceLookup(config{workload: "lookup-bin", seed: 5, seconds: 1}, true, &tl)
	if err != nil {
		t.Fatal(err)
	}
	if tl.failed != 0 {
		t.Fatalf("%d traced operations failed: %v", tl.failed, tl.msgs)
	}
	for _, l := range perLayer {
		if _, ok := m[l.name]; !ok {
			t.Errorf("per-layer metric %s missing", l.name)
		}
	}
	if m["engine.lookups"].Value == 0 || m["http.self_us"].Value == 0 {
		t.Errorf("stage metrics empty: %+v", m)
	}
}

// TestChurnPassChecks drives a short churn pass (durable sessions, live
// stream with reconnects, in-process feeds) and its final checks.
func TestChurnPassChecks(t *testing.T) {
	t.Chdir(t.TempDir()) // session data goes under .bench_build
	sc, err := genChurnScript(9, 4500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	env, err := churnSetup(liveOptions)
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	var tl tally
	rec := churnPass(env, sc, 500*time.Millisecond, 4*time.Second, &tl)
	if tl.failed != 0 {
		t.Fatalf("%d of %d churn operations failed: %v", tl.failed, tl.attempted, tl.msgs)
	}
	if len(rec.propagation) == 0 || len(rec.catchup) == 0 {
		t.Errorf("no propagation (%d) or reconnect (%d) samples", len(rec.propagation), len(rec.catchup))
	}
}
