package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tilingsched/internal/dynamic"
	"tilingsched/internal/lattice"
	"tilingsched/internal/service"
	"tilingsched/internal/service/binwire"
	"tilingsched/internal/tiling"
)

// The churn workload: an open loop of mutate requests on seeded Poisson
// arrivals over one connection, against durable sessions, while the
// second connection holds a live subscribe stream on the hot session
// and ~1000 in-process subscribers hang off the same session. Latency
// is timed from each request's due time.

const (
	churnSessions   = 4
	churnSide       = 32    // session windows are 32×32
	churnReach      = 4     // events land up to 4 cells outside the window
	churnRate       = 300.0 // mutate requests per second
	churnHotShare   = 0.5   // share of requests on the hot session 0
	churnMaxEvents  = 16    // events per request: uniform in 1..16
	churnRadius     = 3     // Chebyshev radius of a hotspot
	churnSubs       = 1000  // in-process subscribers on the hot session
	churnSampleSubs = 8     // in-process copies checked at the end
	churnReconnect  = 512   // hot epochs between stream reconnects
	// churnWarm is how long the script runs before its requests count:
	// the process warms up and the first repair escalations settle.
	churnWarm = 3 * time.Second
)

var churnPlan = service.PlanSpec{Tile: service.TileSpec{Name: "cross:2:1"}}

// churnWindow is session s's window.
func churnWindow(s int) service.WindowSpec {
	return service.WindowSpec{Lo: []int{s * 100, 0}, Hi: []int{s*100 + churnSide - 1, churnSide - 1}}
}

// cell is a 2-D sensor position.
type cell [2]int

// churnReq is one scripted mutate request.
type churnReq struct {
	due    time.Duration // send time relative to the run start
	sess   int
	bin    bool
	epoch  uint64 // the session's epoch before this batch
	events []service.EventSpec
	body   []byte
}

// churnScript is the seeded request sequence for one run length.
type churnScript struct {
	reqs   []churnReq
	hotDue []time.Duration // hotDue[e-1] is the due time of hot epoch e
	events int
}

// sessModel is the generator's view of one session: which cells host a
// live sensor, and the hotspots events cluster on.
type sessModel struct {
	lo       cell // corner of the reachable region
	size     int
	alive    []bool
	hotspots []cell
}

func newSessModel(s int) *sessModel {
	w := churnWindow(s)
	m := &sessModel{lo: cell{w.Lo[0] - churnReach, w.Lo[1] - churnReach}, size: churnSide + 2*churnReach}
	m.alive = make([]bool, m.size*m.size)
	for x := churnReach; x < churnReach+churnSide; x++ {
		for y := churnReach; y < churnReach+churnSide; y++ {
			m.alive[x*m.size+y] = true
		}
	}
	// The hotspots sit at fixed places — the centre, an edge and a
	// corner, where joins may land outside the window — so every seed
	// churns the same kind of neighbourhoods; the seed draws the events.
	for _, at := range hotspotAt {
		m.hotspots = append(m.hotspots, cell{w.Lo[0] + at[0], w.Lo[1] + at[1]})
	}
	return m
}

// hotspotAt are the hotspot positions relative to a window's low corner.
var hotspotAt = []cell{{churnSide / 2, churnSide / 2}, {0, churnSide / 3}, {churnSide - 1, churnSide - 1}}

func (m *sessModel) idx(c cell) int { return (c[0]-m.lo[0])*m.size + c[1] - m.lo[1] }

// near lists the reachable cells around hotspot h whose liveness is alive.
func (m *sessModel) near(h cell, alive bool) []cell {
	var out []cell
	for dx := -churnRadius; dx <= churnRadius; dx++ {
		for dy := -churnRadius; dy <= churnRadius; dy++ {
			c := cell{h[0] + dx, h[1] + dy}
			x, y := c[0]-m.lo[0], c[1]-m.lo[1]
			if x >= 0 && y >= 0 && x < m.size && y < m.size && m.alive[m.idx(c)] == alive {
				out = append(out, c)
			}
		}
	}
	return out
}

// event draws one valid event near a random hotspot and applies it to
// the model: joins land on empty cells, leaves, fails and moves start
// from live ones.
func (m *sessModel) event(rng *rand.Rand) service.EventSpec {
	h := m.hotspots[rng.IntN(len(m.hotspots))]
	live, free := m.near(h, true), m.near(h, false)
	pick := func(cs []cell) cell { return cs[rng.IntN(len(cs))] }
	for {
		switch op := rng.IntN(10); {
		case op < 3 && len(free) > 0:
			c := pick(free)
			m.alive[m.idx(c)] = true
			return service.EventSpec{Op: "join", P: c[:]}
		case op >= 3 && op < 6 && len(live) > 0:
			c := pick(live)
			m.alive[m.idx(c)] = false
			return service.EventSpec{Op: "leave", P: c[:]}
		case op >= 6 && op < 7 && len(live) > 0:
			c := pick(live)
			m.alive[m.idx(c)] = false
			return service.EventSpec{Op: "fail", P: c[:]}
		case op >= 7 && len(live) > 0 && len(free) > 0:
			from, to := pick(live), pick(free)
			m.alive[m.idx(from)] = false
			m.alive[m.idx(to)] = true
			return service.EventSpec{Op: "move", P: from[:], To: to[:]}
		}
	}
}

// genChurnScript draws the Poisson arrivals and event batches due
// within d, and encodes each request (even requests JSON, odd binary).
func genChurnScript(seed uint64, d time.Duration) (*churnScript, error) {
	rng := rand.New(rand.NewPCG(seed, 0x636875726e))
	models := make([]*sessModel, churnSessions)
	for s := range models {
		models[s] = newSessModel(s)
	}
	epochs := make([]uint64, churnSessions)
	sc := &churnScript{}
	var at float64
	for i := 0; ; i++ {
		at += rng.ExpFloat64() / churnRate
		due := time.Duration(at * float64(time.Second))
		if due >= d {
			break
		}
		s := 0
		if rng.Float64() >= churnHotShare {
			s = 1 + rng.IntN(churnSessions-1)
		}
		r := churnReq{due: due, sess: s, bin: i%2 == 1, epoch: epochs[s]}
		n := 1 + rng.IntN(churnMaxEvents)
		for k := 0; k < n; k++ {
			r.events = append(r.events, models[s].event(rng))
		}
		epochs[s]++
		if s == 0 {
			sc.hotDue = append(sc.hotDue, due)
		}
		body, err := encodeMutate(r.sess, r.events, &r.epoch, false, r.bin)
		if err != nil {
			return nil, err
		}
		r.body = body
		sc.events += n
		sc.reqs = append(sc.reqs, r)
	}
	return sc, nil
}

// encodeMutate renders a mutate request in the codec.
func encodeMutate(sess int, events []service.EventSpec, epoch *uint64, full, bin bool) ([]byte, error) {
	req := service.MutateRequest{Plan: churnPlan, Window: churnWindow(sess), Events: events, Epoch: epoch, Full: full}
	if !bin {
		return json.Marshal(req)
	}
	e := binwire.Get()
	defer binwire.Put(e)
	if err := service.EncodeMutateBinary(e, req, ""); err != nil {
		return nil, err
	}
	return bytes.Clone(e.Bytes()), nil
}

// decodeMutate decodes a mutate reply in the codec.
func decodeMutate(bin bool, body []byte) (service.MutateResponse, error) {
	if bin {
		return service.DecodeMutateStream(body)
	}
	var resp service.MutateResponse
	err := json.Unmarshal(body, &resp)
	return resp, err
}

// assignment is a sensor → slot map, as clients hold it.
type assignment map[cell]int

// apply patches a with a delta's changes (replacing it when full).
func (a assignment) apply(full bool, changes []service.ChangeSpec) assignment {
	if full {
		a = assignment{}
	}
	for _, ch := range changes {
		c := cell{ch.P[0], ch.P[1]}
		if ch.Slot < 0 {
			delete(a, c)
		} else {
			a[c] = ch.Slot
		}
	}
	return a
}

// diff describes the first difference between two assignments.
func (a assignment) diff(b assignment) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d sensors vs %d", len(a), len(b))
	}
	for c, s := range a {
		if t, ok := b[c]; !ok || t != s {
			return fmt.Errorf("sensor %v: slot %d vs %d (present %v)", c, s, t, ok)
		}
	}
	return nil
}

// benchTmp is the scratch directory under the checkout's build dir.
func benchTmp() (string, error) {
	dir := filepath.Join(".bench_build", "tmp")
	return dir, os.MkdirAll(dir, 0o755)
}

// churnEnv is a churn server with its seeded sessions and subscribers.
type churnEnv struct {
	lb      *loopback
	dir     string
	feeds   []*service.Subscription
	initial assignment // the hot session's seed assignment
	stream  *liveStream
}

// close releases the subscribers, the stream, the server and its data.
func (e *churnEnv) close() {
	if e.stream != nil {
		e.stream.close()
	}
	for _, f := range e.feeds {
		f.Close()
	}
	if e.lb != nil {
		e.lb.close()
	}
	if e.dir != "" {
		_ = os.RemoveAll(e.dir) // scratch data of this run only
	}
}

// churnOptions selects the stage-2 handler variants of the traced run.
type churnOptions struct {
	persist bool
	subs    int
	listen  bool // serve on loopback and open the live stream
}

// churnSetup starts a server with persistence on a fresh directory,
// seeds every session through a full-resync request, attaches the
// in-process subscribers to the hot session, and opens the live stream.
func churnSetup(o churnOptions) (*churnEnv, error) {
	env := &churnEnv{}
	ok := false
	defer func() {
		if !ok {
			env.close()
		}
	}()
	srv := newServer()
	if o.persist {
		tmp, err := benchTmp()
		if err != nil {
			return nil, err
		}
		if env.dir, err = os.MkdirTemp(tmp, "churn-"); err != nil {
			return nil, err
		}
		if err := srv.EnablePersistence(service.PersistOptions{Dir: env.dir}); err != nil {
			return nil, err
		}
	}
	if o.listen {
		lb, err := listen(srv)
		if err != nil {
			return nil, err
		}
		env.lb = lb
	} else {
		env.lb = &loopback{srv: srv}
	}
	for s := 0; s < churnSessions; s++ {
		resp, err := env.resync(s)
		if err != nil {
			return nil, fmt.Errorf("seeding session %d: %w", s, err)
		}
		if s == 0 {
			env.initial = assignment{}.apply(true, resp.Changed)
		}
	}
	zero := uint64(0)
	for i := 0; i < o.subs; i++ {
		f, err := srv.Subscribe(churnPlan, churnWindow(0), &zero)
		if err != nil {
			return nil, fmt.Errorf("subscriber %d: %w", i, err)
		}
		env.feeds = append(env.feeds, f)
	}
	if o.listen {
		env.stream = &liveStream{lb: env.lb, copy: maps.Clone(env.initial)}
		env.stream.ctx, env.stream.cancel = context.WithCancel(context.Background())
		if err := env.stream.open(false); err != nil {
			return nil, fmt.Errorf("opening the stream: %w", err)
		}
	}
	ok = true
	return env, nil
}

// resync fetches session s's full assignment (seeding it on first use).
func (e *churnEnv) resync(s int) (service.MutateResponse, error) {
	body, err := encodeMutate(s, nil, nil, true, false)
	if err != nil {
		return service.MutateResponse{}, err
	}
	status, reply, err := e.mutate(false, body)
	if err != nil {
		return service.MutateResponse{}, err
	}
	if status != http.StatusOK {
		return service.MutateResponse{}, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(reply))
	}
	return decodeMutate(false, reply)
}

// mutate sends one mutate body over loopback, or straight into ServeHTTP
// when the environment has no listener.
func (e *churnEnv) mutate(bin bool, body []byte) (int, []byte, error) {
	if e.lb.hs == nil {
		rec, _, _ := serveRecorded(e.lb.srv, "/v1/plan:mutate", contentType(bin), body)
		return rec.Code, rec.Body.Bytes(), nil
	}
	var buf bytes.Buffer
	status, err := e.lb.post("/v1/plan:mutate", contentType(bin), body, &buf)
	return status, buf.Bytes(), err
}

// liveStream is the benchmark's subscribe-stream client on the hot
// session: a local assignment copy kept current from pushed deltas.
type liveStream struct {
	lb     *loopback
	ctx    context.Context
	cancel context.CancelFunc
	body   io.ReadCloser
	st     *service.SubscribeStream
	bin    bool
	epoch  uint64
	copy   assignment
	// capture, when non-nil, receives every stream byte (traced run).
	capture *[][]byte
	raw     *bytes.Buffer
}

// open (re)connects in the codec, resuming from the applied epoch.
func (ls *liveStream) open(bin bool) error {
	ls.bin = bin
	epoch := ls.epoch
	req := service.SubscribeRequest{Plan: churnPlan, Window: churnWindow(0), Epoch: &epoch}
	var body []byte
	if bin {
		e := binwire.Get()
		service.EncodeSubscribeBinary(e, req, "")
		body = bytes.Clone(e.Bytes())
		binwire.Put(e)
	} else {
		var err error
		if body, err = json.Marshal(req); err != nil {
			return err
		}
	}
	hreq, err := http.NewRequestWithContext(ls.ctx, http.MethodPost, ls.lb.base+"/v1/plan:subscribe", bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", contentType(bin))
	resp, err := ls.lb.client.Do(hreq)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body) // best effort: the status is the error
		resp.Body.Close()
		return fmt.Errorf("subscribe: status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	ls.body = resp.Body
	var r io.Reader = resp.Body
	if ls.capture != nil {
		ls.raw = &bytes.Buffer{}
		*ls.capture = append(*ls.capture, nil)
		r = io.TeeReader(resp.Body, ls.raw)
	}
	st, err := service.OpenSubscribeStream(r, resp.Header.Get("Content-Type"))
	if err != nil {
		resp.Body.Close()
		return err
	}
	if h := st.Hello(); h.Epoch < ls.epoch {
		resp.Body.Close()
		return fmt.Errorf("subscribe hello at epoch %d, behind the applied %d", h.Epoch, ls.epoch)
	}
	ls.st = st
	return nil
}

// closeConn ends the current connection, keeping what it captured.
func (ls *liveStream) closeConn() {
	if ls.body == nil {
		return
	}
	ls.body.Close()
	ls.body = nil
	if ls.capture != nil {
		(*ls.capture)[len(*ls.capture)-1] = ls.raw.Bytes()
	}
}

func (ls *liveStream) close() {
	ls.cancel()
	ls.closeConn()
}

// churnRec is what one churn pass measured.
type churnRec struct {
	warm          time.Duration
	start         time.Time
	measureStart  time.Time // due time of the first counted request
	lastAck       time.Time
	events        int     // events of the counted requests
	sent          int     // requests sent (a prefix of the script)
	mutate        []int64 // due → ack
	mutateAt      []int64 // due − warm, per mutate sample
	sendAck       []int64 // send → ack, per sent request
	sendStart     []int64 // send offset from start, per sent request
	late          []int64 // due → send
	propagation   []int64 // hot epoch due → decoded on the stream
	propagationAt []int64 // due − warm, per propagation sample
	catchup       []int64 // reconnect → stream caught up
	inprocNs      float64 // Σ publish → in-process receive
	inprocN       int64
	decodeNs      float64 // Σ client decode time of mutate replies
	reassigned    int
	fullRecolor   int
	compactions   int
}

// churnPass drives the script's requests due within warm+d against env
// and follows the hot session on the stream and the feeds; latencies
// count for requests due from warm on. It returns once every sent epoch
// has reached the stream and the feeds.
func churnPass(env *churnEnv, sc *churnScript, warm, d time.Duration, t *tally) *churnRec {
	rec := &churnRec{warm: warm}
	n := 0
	for n < len(sc.reqs) && sc.reqs[n].due < warm+d {
		n++
	}
	finalHot := uint64(0)
	for _, r := range sc.reqs[:n] {
		if r.sess == 0 {
			finalHot++
		}
	}
	var hotAcked atomic.Uint64
	fs := newFeedState(env)
	rec.start = time.Now()
	var wg sync.WaitGroup
	if env.stream != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			followStream(env.stream, fs, sc, rec, finalHot, &hotAcked, t)
		}()
	}
	var buf bytes.Buffer
	for i, r := range sc.reqs[:n] {
		due := rec.start.Add(r.due)
		waitUntil(due)
		send := time.Now()
		status, err := env.lb.post("/v1/plan:mutate", contentType(r.bin), r.body, &buf)
		ack := time.Now()
		rec.sent++
		rec.sendStart = append(rec.sendStart, int64(send.Sub(rec.start)))
		rec.sendAck = append(rec.sendAck, int64(ack.Sub(send)))
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(buf.Bytes()))
		}
		var resp service.MutateResponse
		if err == nil {
			resp, err = decodeMutate(r.bin, buf.Bytes())
			rec.decodeNs += float64(time.Since(ack))
		}
		if err == nil && (resp.Epoch != r.epoch+1 || resp.Disruption.Events != len(r.events) || resp.Error != "") {
			err = fmt.Errorf("epoch %d (want %d), %d of %d events applied %s",
				resp.Epoch, r.epoch+1, resp.Disruption.Events, len(r.events), resp.Error)
		}
		if err != nil {
			t.fail("mutate %d (session %d): %v", i, r.sess, err)
			continue
		}
		t.ok(1)
		rec.reassigned += resp.Disruption.Reassigned
		if resp.Disruption.FullRecolor {
			rec.fullRecolor++
		}
		if resp.Disruption.Compacted {
			rec.compactions++
		}
		if r.sess == 0 {
			hotAcked.Store(resp.Epoch)
		}
		if r.due < warm {
			continue
		}
		if rec.events == 0 {
			rec.measureStart = due
		}
		rec.lastAck = ack
		rec.events += len(r.events)
		rec.mutate = append(rec.mutate, int64(ack.Sub(due)))
		rec.mutateAt = append(rec.mutateAt, int64(r.due-warm))
		rec.late = append(rec.late, int64(send.Sub(due)))
	}
	if env.stream != nil {
		// The stream must deliver the last hot epoch promptly; past the
		// grace period the connection is cut and the gap counts as failed.
		watchdog := time.AfterFunc(10*time.Second, env.stream.cancel)
		wg.Wait()
		watchdog.Stop()
	}
	// The hub may still be handing the last epoch to some feeds when the
	// stream already has it: drain until every live feed is current.
	for deadline := time.Now().Add(10 * time.Second); !fs.current(finalHot) && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		fs.drain(nil, t)
	}
	for i, last := range fs.last {
		if !fs.gone[i] && last != finalHot {
			t.fail("in-process subscriber %d ended at epoch %d, want %d", i, last, finalHot)
		} else if !fs.gone[i] {
			t.ok(1)
		}
	}
	if err := checkChurn(env, sc.reqs[:n], fs.copies); err != nil {
		t.fail("final check: %v", err)
	} else {
		t.ok(1)
	}
	return rec
}

// spinWindow is how long before a due time the generator stops sleeping
// and yields in a loop instead, since timer wake-ups can run late.
const spinWindow = 1500 * time.Microsecond

// waitUntil returns at due: it sleeps until spinWindow before it, then
// yields the processor until the time has come.
func waitUntil(due time.Time) {
	if wait := time.Until(due) - spinWindow; wait > 0 {
		time.Sleep(wait)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}

// followStream applies pushed hot-session deltas to the stream's copy,
// records their propagation latency, drains the in-process feeds after
// each one, and reconnects in the other codec every churnReconnect
// epochs. It returns when the stream reaches finalHot.
func followStream(ls *liveStream, fs *feedState, sc *churnScript, rec *churnRec, finalHot uint64,
	hotAcked *atomic.Uint64, t *tally) {
	defer ls.closeConn()
	nextReconnect := ls.epoch + churnReconnect
	var reconnStart time.Time
	var reconnTarget uint64
	for ls.epoch < finalHot {
		d, err := ls.st.Next()
		now := time.Now()
		if err != nil {
			t.fail("stream at epoch %d: %v", ls.epoch, err)
			return
		}
		if !d.Full && d.Epoch != ls.epoch+1 {
			t.fail("stream jumped from epoch %d to %d", ls.epoch, d.Epoch)
			return
		}
		for e := ls.epoch + 1; e <= d.Epoch && int(e) <= len(sc.hotDue); e++ {
			if due := sc.hotDue[e-1]; due >= rec.warm {
				rec.propagation = append(rec.propagation, int64(now.Sub(rec.start.Add(due))))
				rec.propagationAt = append(rec.propagationAt, int64(due-rec.warm))
			}
		}
		t.ok(int64(max(d.Epoch, ls.epoch) - ls.epoch))
		ls.copy = ls.copy.apply(d.Full, d.Changed)
		ls.epoch = d.Epoch
		fs.drain(rec, t)
		if !reconnStart.IsZero() && ls.epoch >= reconnTarget {
			rec.catchup = append(rec.catchup, int64(time.Since(reconnStart)))
			reconnStart = time.Time{}
		}
		if ls.epoch >= nextReconnect && ls.epoch < finalHot {
			nextReconnect = ls.epoch + churnReconnect
			ls.closeConn()
			reconnStart, reconnTarget = time.Now(), hotAcked.Load()
			if err := ls.open(!ls.bin); err != nil {
				t.fail("stream reconnect at epoch %d: %v", ls.epoch, err)
				return
			}
			if ls.epoch >= reconnTarget {
				rec.catchup = append(rec.catchup, int64(time.Since(reconnStart)))
				reconnStart = time.Time{}
			}
		}
	}
	fs.drain(rec, t)
}

// feedState tracks the in-process feeds: the last epoch each received,
// which were dropped, and the sampled feeds' assignment copies.
type feedState struct {
	feeds  []*service.Subscription
	last   []uint64
	gone   []bool
	copies []assignment
}

func newFeedState(env *churnEnv) *feedState {
	fs := &feedState{feeds: env.feeds, last: make([]uint64, len(env.feeds)), gone: make([]bool, len(env.feeds))}
	for i := 0; i < min(churnSampleSubs, len(env.feeds)); i++ {
		fs.copies = append(fs.copies, maps.Clone(env.initial))
	}
	return fs
}

// current reports whether every live feed has received epoch e.
func (fs *feedState) current(e uint64) bool {
	for i, last := range fs.last {
		if !fs.gone[i] && last < e {
			return false
		}
	}
	return true
}

// drain receives every queued delta from the in-process feeds without
// blocking, marks it delivered, and patches the sampled copies.
func (fs *feedState) drain(rec *churnRec, t *tally) {
	for i, f := range fs.feeds {
		if fs.gone[i] {
			continue
		}
	drain:
		for {
			select {
			case d, ok := <-f.C:
				if !ok {
					t.fail("in-process subscriber %d dropped: %s", i, f.Reason())
					fs.gone[i] = true
					break drain
				}
				if rec != nil {
					rec.inprocNs += float64(time.Since(d.PubTime))
					rec.inprocN++
				}
				f.Mark(d)
				fs.last[i] = d.Epoch
				if i < len(fs.copies) {
					fs.copies[i] = fs.copies[i].apply(d.Full, d.Changed)
				}
			default:
				break drain
			}
		}
	}
}

// replaySession applies one session's scripted batches to an independent
// mutator seeded like the server's sessions, and checks that it stays
// collision-free.
func replaySession(s int, reqs []churnReq) (*dynamic.Mutator, error) {
	plan, err := service.NewRegistry(0).GetSpec(churnPlan)
	if err != nil {
		return nil, err
	}
	win, err := churnWindow(s).Window()
	if err != nil {
		return nil, err
	}
	mut, err := dynamic.NewMutator(plan.Deployment(), win, plan.Schedule(), dynamic.Options{Residues: tiling.IdentityResidues(2)})
	if err != nil {
		return nil, err
	}
	for _, r := range reqs {
		if r.sess != s {
			continue
		}
		if _, _, err := mut.Apply(toEvents(r.events)); err != nil {
			return nil, fmt.Errorf("replaying epoch %d: %w", r.epoch+1, err)
		}
	}
	if err := mut.Verify(); err != nil {
		return nil, fmt.Errorf("replayed schedule: %w", err)
	}
	return mut, nil
}

// toEvents converts wire events to mutator events.
func toEvents(specs []service.EventSpec) []dynamic.Event {
	kinds := map[string]dynamic.EventKind{"join": dynamic.Join, "leave": dynamic.Leave, "fail": dynamic.Fail, "move": dynamic.Move}
	out := make([]dynamic.Event, len(specs))
	for i, es := range specs {
		out[i] = dynamic.Event{Kind: kinds[es.Op], P: lattice.Point(es.P)}
		if es.To != nil {
			out[i].To = lattice.Point(es.To)
		}
	}
	return out
}

// checkChurn compares each session's final full resync with an
// independent replay of its batches, and the stream's and sampled
// in-process copies with the hot session's resync.
func checkChurn(env *churnEnv, reqs []churnReq, copies []assignment) error {
	var errs []error
	for s := 0; s < churnSessions; s++ {
		resp, err := env.resync(s)
		if err != nil {
			errs = append(errs, fmt.Errorf("session %d resync: %w", s, err))
			continue
		}
		mut, err := replaySession(s, reqs)
		if err != nil {
			errs = append(errs, fmt.Errorf("session %d: %w", s, err))
			continue
		}
		want := assignment{}
		mut.EachAssignment(func(p lattice.Point, slot int) bool {
			want[cell{p[0], p[1]}] = slot
			return true
		})
		got := assignment{}.apply(true, resp.Changed)
		if err := got.diff(want); err != nil {
			errs = append(errs, fmt.Errorf("session %d resync vs replay: %w", s, err))
		}
		if s != 0 {
			continue
		}
		if env.stream != nil {
			if err := env.stream.copy.diff(got); err != nil {
				errs = append(errs, fmt.Errorf("stream copy vs resync: %w", err))
			}
		}
		for i, c := range copies {
			if err := c.diff(got); err != nil {
				errs = append(errs, fmt.Errorf("in-process copy %d vs resync: %w", i, err))
			}
		}
	}
	return errors.Join(errs...)
}

// churnParams records the workload's parameters.
func churnParams(sc *churnScript) map[string]any {
	return map[string]any{
		"loop": "open", "rate_per_s": churnRate, "arrivals": "poisson", "conns": maxConns,
		"plan": churnPlan.Tile.Name, "sessions": churnSessions, "window": fmt.Sprintf("%dx%d", churnSide, churnSide),
		"hot_share": churnHotShare, "events_per_request": fmt.Sprintf("1..%d", churnMaxEvents),
		"hotspots": len(hotspotAt), "hotspot_radius": churnRadius, "inproc_subscribers": churnSubs,
		"reconnect_every_epochs": churnReconnect, "persistence": "wal, fsync off", "codec": "alternating json/binary",
		"script_requests": len(sc.reqs), "script_events": sc.events, "setup_rounds": setupRounds,
		"warm_s": churnWarm.Seconds(),
	}
}

// liveOptions is the churn environment the workload measures.
var liveOptions = churnOptions{persist: true, subs: churnSubs, listen: true}

// runChurn is the untraced churn run.
func runChurn(cfg config, t *tally) (map[string]metric, map[string]any, error) {
	sc, err := genChurnScript(cfg.seed, churnWarm+cfg.duration())
	if err != nil {
		return nil, nil, err
	}
	env, setupS, err := timedSetups(func() (*churnEnv, error) { return churnSetup(liveOptions) }, (*churnEnv).close)
	if err != nil {
		return nil, nil, err
	}
	defer env.close()
	rec := churnPass(env, sc, churnWarm, cfg.duration(), t)
	m := map[string]metric{
		"setup_s":   {setupS, "s"},
		"ops_per_s": {float64(rec.events) / rec.lastAck.Sub(rec.measureStart).Seconds(), "1/s"},
	}
	params := churnParams(sc)
	latencyMetrics(m, params, "op", rec.mutate, rec.mutateAt, cfg.duration())
	latencyMetrics(m, params, "answer", rec.propagation, rec.propagationAt, cfg.duration())
	return m, params, nil
}
