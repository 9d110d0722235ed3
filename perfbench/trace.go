package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"tilingsched/internal/core"
	"tilingsched/internal/dynamic"
	"tilingsched/internal/lattice"
	"tilingsched/internal/service"
	"tilingsched/internal/tiling"
)

// Traced runs: an untraced pass gives the end-to-end mean to reconcile
// with, then the stages replay the requests that stage 3 (loopback
// HTTP) completed, innermost stages last.

// traceShare is the part of --seconds each live pass (untraced, stage 3)
// runs; the replays of stages 1 and 2 take the rest.
const traceShare = 0.3

// traceRounds is how many alternating untraced/stage-3 rounds a traced
// lookup run makes.
const traceRounds = 4

// lookupStages is the lookup span hierarchy.
var lookupStages = map[string]string{
	"handler":          "http",
	"wire.json_decode": "handler",
	"binary.decode":    "handler",
	"registry.get":     "handler",
	"engine":           "handler",
	"wire.json_encode": "handler",
}

// lookupItem is one replayed request: its ledger id and script index.
type lookupItem struct{ req, idx int32 }

// traceLookup is the traced lookup run.
func traceLookup(cfg config, bin bool, t *tally) (map[string]metric, map[string]any, error) {
	reqs, reg, err := prepareLookups(cfg.seed, bin)
	if err != nil {
		return nil, nil, err
	}
	lb, err := lookupSetup()
	if err != nil {
		return nil, nil, err
	}
	defer lb.close()
	lookupPass(lb, reqs, bin, 0, t)
	// The untraced and stage-3 passes alternate in short rounds, so a
	// slow period of the machine falls on both alike.
	led := newLedger(lookupStages)
	round := time.Duration(float64(cfg.duration()) * traceShare / traceRounds)
	g0 := readGC()
	var untraced, stage3 []*lookupRec
	for i := 0; i < traceRounds; i++ {
		untraced = append(untraced, lookupPass(lb, reqs, bin, round, t)...)
		stage3 = append(stage3, lookupPass(lb, reqs, bin, round, t)...)
	}
	g1 := readGC()

	// Stage 3: loopback HTTP, timed by the client.
	work := make([][]lookupItem, maxConns)
	var ops, clientDecode []int64
	var classOf []string // request class by ledger id: explicit or window
	n := 0
	for i, rec := range stage3 {
		w := i % maxConns
		for k, idx := range rec.idx {
			led.addNs("http", n, rec.start[k], rec.start[k]+rec.op[k])
			work[w] = append(work[w], lookupItem{int32(n), idx})
			class := "explicit"
			if reqs[idx].window {
				class = "window"
			}
			classOf = append(classOf, class)
			ops = append(ops, rec.op[k])
			clientDecode = append(clientDecode, rec.answer[k]-rec.op[k])
			n++
		}
	}
	if n == 0 {
		return nil, nil, fmt.Errorf("stage 3 completed no request")
	}

	// Stage 2: the handler through ServeHTTP, no transport.
	replay(work, func(_ int, it lookupItem) {
		r := &reqs[it.idx]
		rec, start, end := serveRecorded(lb.srv, r.path(), contentType(bin), r.body)
		led.add("handler", int(it.req), start, end)
		if rec.Code != http.StatusOK {
			t.fail("ServeHTTP lookup %d: status %d", it.idx, rec.Code)
			return
		}
		ans, err := decodeLookup(r, bin, rec.Body.Bytes())
		if err == nil {
			err = r.verify(ans)
		}
		if err != nil {
			t.fail("ServeHTTP lookup %d: %v", it.idx, err)
			return
		}
		t.ok(1)
	})

	// Stage 1: each layer's public functions alone.
	var points atomic.Int64
	scratch := make([]layerScratch, maxConns)
	replay(work, func(w int, it lookupItem) {
		if err := lookupLayers(led, reg, &reqs[it.idx], int(it.req), bin, &scratch[w]); err != nil {
			t.fail("layer replay of lookup %d: %v", it.idx, err)
			return
		}
		points.Add(int64(reqs[it.idx].points))
	})

	byClass := led.selfTimes(func(req int32) string { return classOf[req] })
	counts := map[string]int{}
	for _, c := range classOf {
		counts[c]++
	}
	printLedger(byClass, counts)
	sums := map[string]float64{}
	for _, bySpan := range byClass {
		for name, ns := range bySpan {
			sums[name] += ns
		}
	}

	m := layerMetrics()
	per := func(name string) float64 { return sums[name] / float64(n) / 1e3 }
	set(m, "http.self_us", per("http"))
	set(m, "handler.self_us", per("handler"))
	set(m, "registry.get_us", per("registry.get"))
	if bin {
		set(m, "binary.decode_us", per("binary.decode"))
	} else {
		set(m, "wire.json_decode_us", per("wire.json_decode"))
		set(m, "wire.json_encode_us", per("wire.json_encode"))
	}
	set(m, "engine.lookups", float64(points.Load()))
	set(m, "engine.ns_per_lookup", sums["engine"]/float64(points.Load()))
	compile, err := compileMs()
	if err != nil {
		return nil, nil, err
	}
	set(m, "registry.compile_ms", compile)
	set(m, "loadgen.encode_us", encodeUs(reqs, bin))
	set(m, "loadgen.decode_us", mean(clientDecode)/1e3)
	var u []int64
	for _, rec := range untraced {
		u = append(u, rec.op...)
	}
	reconcile(m, sums, n, mean(u), mean(ops))
	gcMetrics(m, g0, g1)
	if err := led.write(fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed)); err != nil {
		return nil, nil, err
	}
	params := lookupParams(bin)
	params["traced_requests"] = n
	return m, params, nil
}

// reconcile sets unattributed_us, the untraced end-to-end mean minus the
// sum of per-request self times, and trace_overhead_pct, the traced
// stage-3 mean against the untraced mean.
func reconcile(m map[string]metric, sums map[string]float64, n int, untracedNs, tracedNs float64) {
	var total float64
	for _, ns := range sums {
		total += ns
	}
	set(m, "unattributed_us", (untracedNs-total/float64(n))/1e3)
	set(m, "trace_overhead_pct", (tracedNs-untracedNs)/untracedNs*100)
}

// layerScratch holds one replay worker's reusable buffers, pooled as the
// handler pools its own.
type layerScratch struct {
	bin service.BinScratch
	pts []lattice.Point
	ans lookupAnswer
}

// lookupLayers times one request through the layer functions the handler
// calls: decode, plan lookup, engine and (JSON) response encoding.
func lookupLayers(led *ledger, reg *service.Registry, r *lookupReq, req int, bin bool, sc *layerScratch) error {
	var (
		spec  service.PlanSpec
		win   *lattice.Window
		pts   []lattice.Point
		t     int64
		t0    = time.Now()
		which = "wire.json_decode"
	)
	if bin {
		which = "binary.decode"
		bb, err := service.DecodeBinaryBatch(r.body, service.Limits{}, &sc.bin)
		if err != nil {
			return err
		}
		defer sc.bin.Release()
		spec, pts, t = bb.Plan.Spec, bb.Points, bb.T
		if bb.UseWindow {
			win = &bb.Window
		}
	} else {
		br, w, err := service.DecodeBatchRequest(r.body, service.Limits{})
		if err != nil {
			return err
		}
		spec, win, t = br.Plan, w, br.T
		sc.pts = sc.pts[:0]
		for _, c := range br.Points {
			sc.pts = append(sc.pts, lattice.Point(c))
		}
		pts = sc.pts
	}
	t1 := time.Now()
	led.add(which, req, t0, t1)
	plan, err := reg.GetSpec(spec)
	if err != nil {
		return err
	}
	t2 := time.Now()
	led.add("registry.get", req, t1, t2)
	ans, err := queryEngine(plan, win, pts, r.may, t, sc.ans)
	sc.ans = ans
	t3 := time.Now()
	led.add("engine", req, t2, t3)
	if err != nil {
		return err
	}
	if err := r.verify(ans); err != nil {
		return err
	}
	if bin {
		return nil // the binary response encoder is internal to the handler
	}
	t4 := time.Now()
	if r.may {
		_, err = json.Marshal(service.MayResponse{M: plan.Slots(), T: t, May: ans.may})
	} else {
		_, err = json.Marshal(service.SlotsResponse{M: plan.Slots(), Slots: ans.slots})
	}
	led.add("wire.json_encode", req, t4, time.Now())
	return err
}

// queryEngine answers a batch through the engine's public queries.
// It appends to dst's buffers, which the caller reuses.
func queryEngine(plan *core.Plan, win *lattice.Window, pts []lattice.Point, may bool, t int64, dst lookupAnswer) (lookupAnswer, error) {
	a := lookupAnswer{slots: dst.slots[:0], may: dst.may[:0]}
	var err error
	switch {
	case may && win != nil:
		a.may, err = service.QueryWindowMayBroadcast(plan, *win, t, a.may)
	case may:
		a.may, err = service.QueryMayBroadcast(plan, pts, t, a.may)
	case win != nil:
		a.slots, err = service.QueryWindowSlots(plan, *win, a.slots)
	default:
		a.slots, err = service.QuerySlots(plan, pts, a.slots)
	}
	return a, err
}

// compileMs is the mean cold Registry.GetSpec time of a lookup plan.
func compileMs() (float64, error) {
	const rounds = 3
	start := time.Now()
	for i := 0; i < rounds; i++ {
		if _, err := compilePlans(service.NewRegistry(0)); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start)) / float64(rounds*len(lookupPlans)) / 1e6, nil
}

// encodeUs is the client's mean request-encoding time over the script.
func encodeUs(reqs []lookupReq, bin bool) float64 {
	start := time.Now()
	for i := range reqs {
		if _, err := encodeLookup(&reqs[i], bin); err != nil {
			return 0
		}
	}
	return float64(time.Since(start)) / float64(len(reqs)) / 1e3
}

// churnStages is the churn span hierarchy: the handler with the
// subscriber population (hub) contains the handler with persistence
// only (persist), which contains the bare handler.
var churnStages = map[string]string{
	"hub":              "http",
	"persist":          "hub",
	"handler":          "persist",
	"wire.json_decode": "handler",
	"binary.decode":    "handler",
	"registry.get":     "handler",
	"dynamic.apply":    "handler",
	"wire.json_encode": "handler",
}

// traceChurn is the traced churn run.
func traceChurn(cfg config, t *tally) (map[string]metric, map[string]any, error) {
	share := time.Duration(float64(cfg.duration()) * traceShare)
	sc, err := genChurnScript(cfg.seed, churnWarm+share)
	if err != nil {
		return nil, nil, err
	}
	// Two untraced passes of half the length bracket the stage-3 pass,
	// so a drift of the machine's speed falls on both sides alike.
	var untracedAck []int64
	var gcWork gcSample
	untracedPass := func() error {
		env, err := churnSetup(liveOptions)
		if err != nil {
			return err
		}
		defer env.close()
		g0 := readGC()
		untracedAck = append(untracedAck, churnPass(env, sc, churnWarm, share/2, t).sendAck...)
		g1 := readGC()
		gcWork.cycles += g1.cycles - g0.cycles
		gcWork.pauseNs += g1.pauseNs - g0.pauseNs
		return nil
	}
	if err := untracedPass(); err != nil {
		return nil, nil, err
	}

	// Stage 3: the live workload, with the stream's bytes captured.
	env, err := churnSetup(liveOptions)
	if err != nil {
		return nil, nil, err
	}
	var captured [][]byte
	var capturedBin []bool
	env.stream.closeConn() // reopen with the capture on
	env.stream.capture = &captured
	if err := env.stream.open(false); err != nil {
		env.close()
		return nil, nil, err
	}
	rec := churnPass(env, sc, churnWarm, share, t)
	var prom bytes.Buffer
	if err := env.lb.srv.WriteMetrics(&prom); err != nil {
		env.close()
		return nil, nil, err
	}
	dataBytes := dirBytes(env.dir)
	env.close()
	if err := untracedPass(); err != nil {
		return nil, nil, err
	}
	for i := range captured {
		capturedBin = append(capturedBin, i%2 == 1) // reconnects alternate codecs, JSON first
	}
	n := rec.sent
	led := newLedger(churnStages)
	for i := 0; i < n; i++ {
		led.addNs("http", i, rec.sendStart[i], rec.sendStart[i]+rec.sendAck[i])
	}

	// Stage 2: ServeHTTP without persistence or subscribers, with
	// persistence, and with persistence and the subscriber population.
	// The variants alternate over handlerRounds fresh environments each;
	// a request's span is its median over the rounds.
	variants := []struct {
		name string
		o    churnOptions
	}{
		{"handler", churnOptions{}},
		{"persist", churnOptions{persist: true}},
		{"hub", churnOptions{persist: true, subs: churnSubs}},
	}
	durs := make([][][]int64, len(variants)) // [variant][request][round]
	for v := range durs {
		durs[v] = make([][]int64, n)
	}
	for round := 0; round < handlerRounds; round++ {
		for v, vr := range variants {
			if err := churnHandlerStage(vr.name, vr.o, sc.reqs[:n], durs[v], t); err != nil {
				return nil, nil, err
			}
		}
	}
	for v, vr := range variants {
		for i, ds := range durs[v] {
			led.addNs(vr.name, i, 0, int64(quantile(ds, 0.5)))
		}
	}

	// Stage 1: the layer functions alone.
	seedMs, err := churnLayers(led, sc.reqs[:n])
	if err != nil {
		return nil, nil, err
	}

	sums := led.selfTimes(func(int32) string { return "all" })["all"]
	printLedger(map[string]map[string]float64{"all": sums}, map[string]int{"all": n})
	m := layerMetrics()
	per := func(name string) float64 { return sums[name] / float64(n) / 1e3 }
	set(m, "http.self_us", per("http"))
	set(m, "hub.publish_ns_per_sub", per("hub")*1e3/churnSubs)
	set(m, "persist.wal_us", per("persist"))
	set(m, "handler.self_us", per("handler"))
	set(m, "wire.json_decode_us", per("wire.json_decode"))
	set(m, "binary.decode_us", per("binary.decode"))
	set(m, "registry.get_us", per("registry.get"))
	set(m, "dynamic.apply_us", per("dynamic.apply"))
	set(m, "wire.json_encode_us", per("wire.json_encode"))
	set(m, "dynamic.seed_ms", seedMs)
	set(m, "dynamic.reassigned_per_event", float64(rec.reassigned)/float64(max(rec.events, 1)))
	set(m, "dynamic.full_recolors", float64(rec.fullRecolor))
	set(m, "dynamic.compactions", float64(rec.compactions))
	set(m, "persist.wal_bytes_per_event", float64(dataBytes)/float64(max(rec.events, 1)))
	set(m, "persist.snapshots", promValue(prom.String(), "latticed_snapshots_total"))
	set(m, "persist.catchup_ms", mean(rec.catchup)/1e6)
	set(m, "hub.deltas_pushed", promValue(prom.String(), "latticed_deltas_pushed_total"))
	set(m, "hub.subs_dropped", promValue(prom.String(), "latticed_subscribers_dropped_total"))
	if rec.inprocN > 0 {
		set(m, "subscribe.inproc_recv_us", rec.inprocNs/float64(rec.inprocN)/1e3)
	}
	set(m, "subscribe.stream_decode_us", streamDecodeUs(captured, capturedBin))
	set(m, "loadgen.encode_us", churnEncodeUs(sc.reqs[:n]))
	set(m, "loadgen.decode_us", rec.decodeNs/float64(max(len(rec.mutate), 1))/1e3)
	set(m, "loadgen.late_p99_ms", quantile(rec.late, 0.99)/1e6)
	reconcile(m, sums, n, mean(untracedAck), mean(rec.sendAck))
	gcMetrics(m, gcSample{}, gcWork)
	if err := led.write(fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed)); err != nil {
		return nil, nil, err
	}
	params := churnParams(sc)
	params["traced_requests"] = n
	return m, params, nil
}

// handlerRounds is how many times each stage-2 churn variant replays
// the requests.
const handlerRounds = 3

// churnHandlerStage replays the requests through ServeHTTP on a fresh
// environment, draining the in-process feeds between requests, and
// appends each request's handler time to durs[i].
func churnHandlerStage(name string, o churnOptions, reqs []churnReq, durs [][]int64, t *tally) error {
	env, err := churnSetup(o)
	if err != nil {
		return err
	}
	defer env.close()
	fs := newFeedState(env)
	for i, r := range reqs {
		rec, start, end := serveRecorded(env.lb.srv, "/v1/plan:mutate", contentType(r.bin), r.body)
		durs[i] = append(durs[i], int64(end.Sub(start)))
		if rec.Code != http.StatusOK {
			t.fail("%s stage, mutate %d: status %d: %s", name, i, rec.Code, strings.TrimSpace(rec.Body.String()))
		} else {
			t.ok(1)
		}
		fs.drain(nil, t)
	}
	return nil
}

// churnLayers times the layer functions of each mutate on independent
// mutators (seeded like the server's sessions) and returns the mean
// NewMutator time in ms.
func churnLayers(led *ledger, reqs []churnReq) (float64, error) {
	reg := service.NewRegistry(0)
	plan, err := reg.GetSpec(churnPlan)
	if err != nil {
		return 0, err
	}
	muts := make([]*dynamic.Mutator, churnSessions)
	seedStart := time.Now()
	for s := range muts {
		win, err := churnWindow(s).Window()
		if err != nil {
			return 0, err
		}
		if muts[s], err = dynamic.NewMutator(plan.Deployment(), win, plan.Schedule(),
			dynamic.Options{Residues: tiling.IdentityResidues(2)}); err != nil {
			return 0, err
		}
	}
	seedMs := float64(time.Since(seedStart)) / churnSessions / 1e6
	for i, r := range reqs {
		t0 := time.Now()
		var spec service.PlanSpec
		var events []dynamic.Event
		which := "wire.json_decode"
		if r.bin {
			which = "binary.decode"
			bm, err := service.DecodeBinaryMutate(r.body, service.Limits{})
			if err != nil {
				return 0, err
			}
			spec, events = bm.Plan.Spec, bm.Events
		} else {
			mr, _, evs, err := service.DecodeMutateRequest(r.body, service.Limits{})
			if err != nil {
				return 0, err
			}
			spec, events = mr.Plan, evs
		}
		t1 := time.Now()
		led.add(which, i, t0, t1)
		p, err := reg.GetSpec(spec)
		if err != nil {
			return 0, err
		}
		t2 := time.Now()
		led.add("registry.get", i, t1, t2)
		d, changed, err := muts[r.sess].Apply(events)
		t3 := time.Now()
		led.add("dynamic.apply", i, t2, t3)
		if err != nil {
			return 0, fmt.Errorf("applying mutate %d: %w", i, err)
		}
		if r.bin {
			continue // the binary response encoder is internal to the handler
		}
		resp := service.MutateResponse{Signature: p.Signature(), Epoch: r.epoch + 1, M: muts[r.sess].Slots(),
			Alive: muts[r.sess].AliveCount(), Disruption: service.DisruptionSpec{Events: d.Events, Joined: d.Joined,
				Departed: d.Departed, Reassigned: d.Reassigned, FullRecolor: d.FullRecolor, Compacted: d.Compacted}}
		for _, ch := range changed {
			resp.Changed = append(resp.Changed, service.ChangeSpec{P: ch.P, Slot: ch.Slot})
		}
		t4 := time.Now()
		if _, err := json.Marshal(resp); err != nil {
			return 0, err
		}
		led.add("wire.json_encode", i, t4, time.Now())
	}
	return seedMs, nil
}

// streamDecodeUs replays the captured stream bytes through
// SubscribeStream and returns the mean decode time per delta in µs.
func streamDecodeUs(captured [][]byte, bin []bool) float64 {
	var total time.Duration
	deltas := 0
	for i, raw := range captured {
		ctype := "application/x-ndjson"
		if bin[i] {
			ctype = service.BinaryContentType
		}
		st, err := service.OpenSubscribeStream(bytes.NewReader(raw), ctype)
		if err != nil {
			continue
		}
		for {
			start := time.Now()
			_, err := st.Next()
			if err != nil {
				break // end of the captured bytes
			}
			total += time.Since(start)
			deltas++
		}
	}
	if deltas == 0 {
		return 0
	}
	return float64(total) / float64(deltas) / 1e3
}

// churnEncodeUs is the client's mean mutate-encoding time.
func churnEncodeUs(reqs []churnReq) float64 {
	start := time.Now()
	for _, r := range reqs {
		epoch := r.epoch
		if _, err := encodeMutate(r.sess, r.events, &epoch, false, r.bin); err != nil {
			return 0
		}
	}
	return float64(time.Since(start)) / float64(max(len(reqs), 1)) / 1e3
}

// dirBytes sums the sizes of the files under dir.
func dirBytes(dir string) int64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil // a vanished file only lowers the count
		}
		if info, err := d.Info(); err == nil {
			total += info.Size()
		}
		return nil
	})
	return total
}
