package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"slices"
	"sync"
	"time"

	"tilingsched/internal/core"
	"tilingsched/internal/lattice"
	"tilingsched/internal/service"
	"tilingsched/internal/service/binwire"
)

// The lookup workloads: a closed loop of maxConns workers, each sending
// its next request when the previous reply is in, over a fixed seeded
// script of batch lookups. lookup-json and lookup-bin send the same
// script in the two codecs.

// lookupPlans are the plans the script queries: the paper's cross on
// the square lattice, the hexagonal ball and a 3-D cross.
var lookupPlans = []service.PlanSpec{
	{Tile: service.TileSpec{Name: "cross:2:1"}},
	{Lattice: "hexagonal", Tile: service.TileSpec{Name: "ball:1"}},
	{Lattice: "cubic:3", Tile: service.TileSpec{Name: "cross:3:1"}},
}

const (
	lookupScriptLen   = 96   // requests in the script, cycled by the workers
	lookupBatch       = 1024 // points in an explicit batch
	lookupWindowSide  = 128  // a window request covers 128×128 points
	lookupWindowEvery = 8    // every 8th request is a window shorthand
	lookupCoordRange  = 1000 // explicit points lie in [-1000, 1000]^d
)

// lookupReq is one scripted request with its precomputed answer.
type lookupReq struct {
	plan   int
	may    bool
	window bool
	req    service.BatchRequest
	points int    // answers in the reply
	body   []byte // encoded in the workload's codec

	wantSlots []int32
	wantMay   []bool
}

// path is the request's endpoint.
func (r *lookupReq) path() string {
	if r.may {
		return "/v1/maybroadcast:batch"
	}
	return "/v1/slots:batch"
}

// genLookupScript draws the seeded request script and encodes it in the
// chosen codec. Answers are not filled in (see expectLookups).
func genLookupScript(seed uint64, bin bool) ([]lookupReq, error) {
	rng := rand.New(rand.NewPCG(seed, 0x6c6f6f6b7570))
	reqs := make([]lookupReq, lookupScriptLen)
	for i := range reqs {
		// The mix is fixed: every (plan, endpoint) pair appears equally
		// often, in each form; the seed draws points, times and order.
		r := &reqs[i]
		r.plan = i % len(lookupPlans)
		r.may = i/len(lookupPlans)%2 == 1
		r.window = i/(2*len(lookupPlans))%lookupWindowEvery == lookupWindowEvery-1
		dim := 2
		if r.plan == 2 {
			dim = 3
		}
		r.req.Plan = lookupPlans[r.plan]
		if r.may {
			r.req.T = rng.Int64N(1 << 20)
		}
		coord := func() int { return rng.IntN(2*lookupCoordRange+1) - lookupCoordRange }
		if r.window {
			lo, hi := make([]int, dim), make([]int, dim)
			for a := range lo {
				lo[a] = coord()
				hi[a] = lo[a]
				if a < 2 {
					hi[a] += lookupWindowSide - 1
				}
			}
			r.req.Window = &service.WindowSpec{Lo: lo, Hi: hi}
			r.points = lookupWindowSide * lookupWindowSide
		} else {
			r.req.Points = make([][]int, lookupBatch)
			for k := range r.req.Points {
				p := make([]int, dim)
				for a := range p {
					p[a] = coord()
				}
				r.req.Points[k] = p
			}
			r.points = lookupBatch
		}
		body, err := encodeLookup(r, bin)
		if err != nil {
			return nil, err
		}
		r.body = body
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs, nil
}

// encodeLookup renders a request in the codec.
func encodeLookup(r *lookupReq, bin bool) ([]byte, error) {
	if !bin {
		return json.Marshal(r.req)
	}
	e := binwire.Get()
	defer binwire.Put(e)
	service.EncodeBatchBinary(e, r.req, r.may, "")
	return bytes.Clone(e.Bytes()), nil
}

// compilePlans compiles the lookup plans in a registry of the
// benchmark's own, for answers and layer timings.
func compilePlans(reg *service.Registry) ([]*core.Plan, error) {
	plans := make([]*core.Plan, len(lookupPlans))
	for i, spec := range lookupPlans {
		p, err := reg.GetSpec(spec)
		if err != nil {
			return nil, fmt.Errorf("compiling plan %d: %w", i, err)
		}
		plans[i] = p
	}
	return plans, nil
}

// expectLookups precomputes every scripted answer point by point through
// core.Plan.SlotOf and core.Plan.MayBroadcast.
func expectLookups(reqs []lookupReq, plans []*core.Plan) error {
	for i := range reqs {
		r := &reqs[i]
		plan := plans[r.plan]
		var pts []lattice.Point
		if r.window {
			win, err := r.req.Window.Window()
			if err != nil {
				return err
			}
			pts = win.Points()
		} else {
			for _, c := range r.req.Points {
				pts = append(pts, lattice.Point(c))
			}
		}
		r.wantSlots, r.wantMay = nil, nil
		for _, p := range pts {
			if r.may {
				ok, err := plan.MayBroadcast(p, r.req.T)
				if err != nil {
					return err
				}
				r.wantMay = append(r.wantMay, ok)
				continue
			}
			s, err := plan.SlotOf(p)
			if err != nil {
				return err
			}
			r.wantSlots = append(r.wantSlots, int32(s))
		}
	}
	return nil
}

// lookupAnswer is a decoded reply.
type lookupAnswer struct {
	slots []int32
	may   []bool
}

// decodeLookup decodes a 200 reply in the codec.
func decodeLookup(r *lookupReq, bin bool, body []byte) (lookupAnswer, error) {
	switch {
	case bin && r.may:
		resp, err := service.DecodeMayStream(body)
		return lookupAnswer{may: resp.May}, err
	case bin:
		resp, err := service.DecodeSlotsStream(body)
		return lookupAnswer{slots: resp.Slots}, err
	case r.may:
		var resp service.MayResponse
		err := json.Unmarshal(body, &resp)
		return lookupAnswer{may: resp.May}, err
	}
	var resp service.SlotsResponse
	err := json.Unmarshal(body, &resp)
	return lookupAnswer{slots: resp.Slots}, err
}

// verify compares a decoded reply with the precomputed answer.
func (r *lookupReq) verify(a lookupAnswer) error {
	if r.may {
		if !slices.Equal(a.may, r.wantMay) {
			return fmt.Errorf("maybroadcast reply differs from the plan's answer (%d vs %d points)", len(a.may), len(r.wantMay))
		}
		return nil
	}
	if !slices.Equal(a.slots, r.wantSlots) {
		return fmt.Errorf("slots reply differs from the plan's answer (%d vs %d points)", len(a.slots), len(r.wantSlots))
	}
	return nil
}

// lookupSetup starts the server and compiles the plans through it.
func lookupSetup() (*loopback, error) {
	lb, err := listen(newServer())
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	for i, spec := range lookupPlans {
		body, err := json.Marshal(service.PlanRequest{Plan: spec})
		if err != nil {
			lb.close()
			return nil, err
		}
		status, err := lb.post("/v1/plan", "application/json", body, &buf)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(buf.Bytes()))
		}
		if err != nil {
			lb.close()
			return nil, fmt.Errorf("compiling plan %d: %w", i, err)
		}
	}
	return lb, nil
}

// lookupRec is one worker's record of a closed-loop pass: per request,
// its script index, send offset from the pass start, reply-read and
// decoded latencies.
type lookupRec struct {
	idx    []int32
	start  []int64
	op     []int64
	answer []int64
	points int64
}

// lookupPass runs maxConns closed-loop workers for d (or, when d is 0,
// once over the script) and checks every reply. Worker w sends script
// requests w, w+maxConns, … cyclically.
func lookupPass(lb *loopback, reqs []lookupReq, bin bool, d time.Duration, t *tally) []*lookupRec {
	recs := make([]*lookupRec, maxConns)
	t0 := time.Now()
	deadline := t0.Add(d)
	var wg sync.WaitGroup
	for w := range recs {
		rec := &lookupRec{}
		recs[w] = rec
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			ctype := contentType(bin)
			for k := w; ; k += maxConns {
				if d == 0 && k >= len(reqs) || d > 0 && !time.Now().Before(deadline) {
					return
				}
				i := k % len(reqs)
				r := &reqs[i]
				start := time.Now()
				status, err := lb.post(r.path(), ctype, r.body, &buf)
				read := time.Since(start)
				if err != nil {
					t.fail("lookup %d: %v", i, err)
					continue
				}
				if status != http.StatusOK {
					t.fail("lookup %d: status %d", i, status)
					continue
				}
				ans, err := decodeLookup(r, bin, buf.Bytes())
				decoded := time.Since(start)
				if err == nil {
					err = r.verify(ans)
				}
				if err != nil {
					t.fail("lookup %d: %v", i, err)
					continue
				}
				t.ok(1)
				rec.idx = append(rec.idx, int32(i))
				rec.start = append(rec.start, int64(start.Sub(t0)))
				rec.op = append(rec.op, int64(read))
				rec.answer = append(rec.answer, int64(decoded))
				rec.points += int64(r.points)
			}
		}()
	}
	wg.Wait()
	return recs
}

// prepareLookups builds the script with its answers — generator work,
// outside every timed phase — and returns the benchmark's own registry
// holding the compiled plans.
func prepareLookups(seed uint64, bin bool) ([]lookupReq, *service.Registry, error) {
	reqs, err := genLookupScript(seed, bin)
	if err != nil {
		return nil, nil, err
	}
	reg := service.NewRegistry(0)
	plans, err := compilePlans(reg)
	if err != nil {
		return nil, nil, err
	}
	if err := expectLookups(reqs, plans); err != nil {
		return nil, nil, err
	}
	return reqs, reg, nil
}

// lookupParams records the workload's parameters.
func lookupParams(bin bool) map[string]any {
	specs := make([]string, len(lookupPlans))
	for i, s := range lookupPlans {
		specs[i] = s.Lattice + "/" + s.Tile.Name
	}
	return map[string]any{
		"codec": map[bool]string{false: "json", true: "binary"}[bin], "loop": "closed",
		"conns": maxConns, "plans": specs, "script_requests": lookupScriptLen,
		"batch_points": lookupBatch, "window": fmt.Sprintf("%dx%d", lookupWindowSide, lookupWindowSide),
		"window_every": lookupWindowEvery, "setup_rounds": setupRounds,
	}
}

// runLookup is the untraced lookup run.
func runLookup(cfg config, bin bool, t *tally) (map[string]metric, map[string]any, error) {
	reqs, _, err := prepareLookups(cfg.seed, bin)
	if err != nil {
		return nil, nil, err
	}
	// Set-up ends with one checked pass over the script, so it covers
	// filling the server's pools and caches as well as starting it.
	lb, setupS, err := timedSetups(func() (*loopback, error) {
		lb, err := lookupSetup()
		if err == nil {
			lookupPass(lb, reqs, bin, 0, t)
		}
		return lb, err
	}, (*loopback).close)
	if err != nil {
		return nil, nil, err
	}
	defer lb.close()
	start := time.Now()
	recs := lookupPass(lb, reqs, bin, cfg.duration(), t)
	elapsed := time.Since(start)
	var op, answer, at []int64
	var points int64
	for _, r := range recs {
		op = append(op, r.op...)
		answer = append(answer, r.answer...)
		at = append(at, r.start...)
		points += r.points
	}
	m := map[string]metric{
		"setup_s":   {setupS, "s"},
		"ops_per_s": {float64(points) / elapsed.Seconds(), "1/s"},
	}
	params := lookupParams(bin)
	latencyMetrics(m, params, "op", op, at, cfg.duration())
	latencyMetrics(m, params, "answer", answer, at, cfg.duration())
	return m, params, nil
}
