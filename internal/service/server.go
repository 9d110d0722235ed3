package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"tilingsched/internal/core"
	"tilingsched/internal/obs/trace"
)

// ServerOptions bounds a server's per-request work. Zero values select
// the defaults.
type ServerOptions struct {
	// MaxBatch caps the number of explicit points per batch request and
	// the number of events per mutate request.
	MaxBatch int
	// MaxWindow caps the number of points a window shorthand may expand
	// to, and the size of a dynamic session's window.
	MaxWindow int
	// MaxBody caps the request body size in bytes.
	MaxBody int64
	// MaxSessions caps the live dynamic-deployment sessions
	// (DefaultMaxSessions when zero).
	MaxSessions int
	// MaxSubscribers caps the push subscribers attached to one session
	// (DefaultMaxSubscribers when zero); beyond it, subscribe answers
	// 503.
	MaxSubscribers int
	// SubscribeQueue is the per-subscriber delta-queue depth
	// (DefaultSubscribeQueue when zero): the number of epochs a slow
	// consumer may lag before it is dropped to a resync.
	SubscribeQueue int
	// SlowThreshold, when positive, samples requests slower than it
	// into SlowLog (at most one per 100ms): endpoint, codec, plan
	// signature, batch size, and decode/engine/encode phase times.
	SlowThreshold time.Duration
	// SlowLog receives the sampled slow-request traces. Nil disables
	// slow-request logging regardless of SlowThreshold.
	SlowLog func(SlowRequest)
	// TraceSampleEvery samples 1 in N requests into the span recorder
	// (DESIGN.md §14); 0 disables sampling. Slow requests and callers
	// propagating a sampled trace context are always recorded.
	TraceSampleEvery int
	// TraceRing is the number of recent traces retained for
	// /debug/traces (trace.DefaultRing when zero).
	TraceRing int
	// Logf, when non-nil, receives operational log lines (dirty session
	// evictions, persistence recoveries). Daemons wire it to log.Printf.
	Logf func(format string, args ...any)
}

const (
	defaultMaxBatch  = 1 << 16
	defaultMaxWindow = 1 << 20
	defaultMaxBody   = 8 << 20
)

// Server is the HTTP wire layer over a plan registry — the handler
// behind cmd/latticed. Endpoints:
//
//	POST /v1/plan               compile (or fetch) a plan, describe it
//	POST /v1/slots:batch        slots of a point batch or window
//	POST /v1/maybroadcast:batch may-broadcast bits at time t
//	POST /v1/plan:mutate        churn a dynamic deployment session
//	POST /v1/plan:subscribe     stream a session's epoch deltas (push)
//	GET  /healthz               liveness + cached plan count
//
// One handler per POST endpoint serves both codecs (codec.go). Bodies
// and query buffers are pooled, so steady-state engine work allocates
// nothing beyond JSON's own. Every counter lives in the server's
// Metrics registry (metrics.go), read through WriteMetrics and Statusz.
type Server struct {
	reg      *Registry
	opts     ServerOptions
	mux      *http.ServeMux
	bufs     sync.Pool // of *queryBuf
	traces   sync.Pool // of *reqTrace
	sessions *sessionTable
	met      *Metrics
	rec      *trace.Recorder
	subSeq   atomic.Uint64 // subscriber identity for deliver spans
}

// queryBuf carries one request's scratch between pool uses: the raw
// body, the batch decode arena both codecs fill, and the slot run both
// batch endpoints answer from.
type queryBuf struct {
	body  []byte
	sc    BinScratch
	slots []int32
}

// putBuf returns buf to the pool, dropping the arena's aliases into the
// last request's data so the pool does not pin it.
func (s *Server) putBuf(buf *queryBuf) {
	buf.sc.Release()
	s.bufs.Put(buf)
}

// NewServer builds the HTTP handler over the registry.
func NewServer(reg *Registry, opts ServerOptions) *Server {
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = defaultMaxBatch
	}
	if opts.MaxWindow <= 0 {
		opts.MaxWindow = defaultMaxWindow
	}
	if opts.MaxBody <= 0 {
		opts.MaxBody = defaultMaxBody
	}
	if opts.MaxSubscribers <= 0 {
		opts.MaxSubscribers = DefaultMaxSubscribers
	}
	if opts.SubscribeQueue <= 0 {
		opts.SubscribeQueue = DefaultSubscribeQueue
	}
	s := &Server{reg: reg, opts: opts, mux: http.NewServeMux(), met: newServerMetrics(opts)}
	s.rec = trace.NewRecorder(opts.TraceSampleEvery, opts.TraceRing)
	s.sessions = newSessionTable(opts.MaxSessions, s.met)
	s.sessions.logf = opts.Logf
	reg.instrument(s.met)
	s.bufs.New = func() any { return new(queryBuf) }
	s.traces.New = func() any { return new(reqTrace) }
	s.mux.HandleFunc("POST /v1/plan", s.instrument(epPlan, s.handlePlan))
	s.mux.HandleFunc("POST /v1/slots:batch", s.instrument(epSlots, s.handleBatch))
	s.mux.HandleFunc("POST /v1/maybroadcast:batch", s.instrument(epMay, s.handleBatch))
	s.mux.HandleFunc("POST /v1/plan:mutate", s.instrument(epMutate, s.handleMutate))
	s.mux.HandleFunc("POST /v1/plan:subscribe", s.instrument(epSubscribe, s.handleSubscribe))
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	return s
}

// EnablePersistence turns on durable sessions (DESIGN.md §12): every
// mutation batch appends to a per-session WAL under o.Dir, snapshots
// bound the log, evicted sessions flush-then-restore instead of losing
// churn, and RestoreSessions reloads the directory on start. Call it
// before the server handles traffic (the store pointer is read without
// synchronization on the session path).
func (s *Server) EnablePersistence(o PersistOptions) error {
	store, err := newSessionStore(o, s.met, s.opts.Logf)
	if err != nil {
		return err
	}
	s.sessions.store = store
	return nil
}

// FlushSessions snapshots every dirty live session to the data
// directory and returns the number flushed — the graceful-shutdown
// hook. A no-op (returning 0) without persistence.
func (s *Server) FlushSessions() int {
	return s.sessions.flushAll()
}

// RestoreSessions reloads every session persisted in the data directory
// (restore-on-start): each on-disk identity recompiles its plan through
// the registry and re-enters the table via the normal restore path,
// oldest first so the most recently written sessions end up at the LRU
// front. An identity whose plan no longer compiles to the recorded
// signature, or whose window exceeds MaxWindow, is skipped with a log
// line, never fatal. Returns the number restored; without persistence
// it is a no-op.
func (s *Server) RestoreSessions() (int, error) {
	st := s.sessions
	if st.store == nil {
		return 0, nil
	}
	idents, err := st.store.list()
	if err != nil {
		return 0, err
	}
	n := 0
	for _, id := range idents {
		// The same bound a mutate request's window meets: a session
		// allocates a live bit per window point.
		if size, err := id.win.SizeChecked(); err != nil || size > s.opts.MaxWindow {
			st.logfSafe("latticed: restore: session %s|%s: window exceeds %d points, skipping", id.sig, id.win, s.opts.MaxWindow)
			continue
		}
		tile := make([][]int, len(id.tile))
		for i, pt := range id.tile {
			tile[i] = pt
		}
		plan, err := s.reg.GetSpec(PlanSpec{Lattice: id.lat, Tile: TileSpec{Points: tile}})
		if err != nil {
			st.logfSafe("latticed: restore: compiling plan for %s: %v", id.sig, err)
			continue
		}
		if plan.Signature() != id.sig {
			st.logfSafe("latticed: restore: plan %s compiled to signature %s, skipping", id.sig, plan.Signature())
			continue
		}
		if _, err := st.get(plan, id.win); err != nil {
			st.logfSafe("latticed: restore: session %s|%s: %v", id.sig, id.win, err)
			continue
		}
		n++
	}
	return n, nil
}

// handleMutate churns a dynamic deployment session in either codec:
// resolve the plan, apply the event batch through mutateCore, and answer
// the post-batch epoch with the slot deltas. A stale request epoch is a
// 409 whose result still carries the current epoch, so the client can
// resync (re-request with full set).
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request, c codec, tr *reqTrace) {
	buf, body, ok := s.readBody(w, r, c, tr)
	if !ok {
		return
	}
	defer s.putBuf(buf)
	req, err := c.decodeMutate(body, s.limits())
	if err != nil {
		c.writeErr(w, wireStatus(err), err.Error())
		return
	}
	plan, ok := s.resolvePlan(w, c, tr, req.Plan)
	if !ok {
		return
	}
	tr.batch = len(req.Events)
	if err := checkDim(plan, req.Window.Dim(), "window"); err != nil {
		c.writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	tr.phase(phaseEngine)
	resp, status, err := s.mutateCore(plan, &req, tr.span)
	if err != nil {
		c.writeErr(w, status, err.Error())
		return
	}
	tr.phase(phaseEncode)
	c.writeMutate(w, status, resp)
}

// mutateCore is the session half of handleMutate: find or seed the
// session for (plan, window), apply the event batch under the session
// lock, and assemble the response. Returns the response and its HTTP
// status (200, 400 on a partial apply, 409 on a stale epoch — the
// conflict response carries the current epoch so the client can
// resync); a non-nil error means there is no MutateResponse payload
// (session-table or WAL-append failure, 500). tsp, when non-nil, is the
// request's trace: the epoch timeline stamps (overlay-apply,
// wal-append, hub-publish) land on it, and the published delta carries
// it so subscriber deliveries complete the span tree (DESIGN.md §14).
func (s *Server) mutateCore(plan *core.Plan, req *BinMutate, tsp *trace.Trace) (MutateResponse, int, error) {
	events := req.Events
	// The session lock covers state mutation and response assembly only;
	// it is released before any bytes go to the client, so a slow reader
	// cannot stall the deployment's mutation pipeline.
	sess, err := s.sessions.lock(plan, req.Window)
	if err != nil {
		return MutateResponse{}, http.StatusInternalServerError, err
	}
	if req.HasEpoch && req.Epoch != sess.epoch {
		conflict := MutateResponse{
			Signature: plan.Signature(),
			Epoch:     sess.epoch,
			M:         plan.Slots(),
			Alive:     sess.live.alive,
			Error:     fmt.Sprintf("stale epoch %d (current %d): resync with full=true", req.Epoch, sess.epoch),
		}
		sess.mu.Unlock()
		s.met.sessConfl.Inc()
		return conflict, http.StatusConflict, nil
	}
	resp := MutateResponse{Signature: plan.Signature()}
	if len(events) > 0 {
		applyStart := tsp.Clock()
		d, touched, aerr := sess.live.apply(events)
		// The response and the published delta share this slice,
		// read-only from here on; the full branch below builds its own.
		resp.Changed = sess.live.changes(plan, touched)
		if d.Events > 0 {
			sess.epoch++
			tsp.EpochSpan("overlay-apply", int64(sess.epoch), applyStart, tsp.Clock())
			if sess.disk != nil {
				walStart := tsp.Clock()
				// Log the applied prefix (apply stops at the first bad
				// event, so events[:d.Events] is exactly what changed
				// state) stamped with the post-batch epoch. A batch the
				// log does not hold is never acknowledged: the session
				// ends, and the next request restores the last durable
				// epoch rather than serve this one again with other
				// contents.
				if perr := sess.disk.append(sess.epoch, events[:d.Events]); perr != nil {
					s.sessions.logfSafe("latticed: session %s: %v (session dropped at its last durable epoch)", sess.key, perr)
					s.sessions.drop(sess)
					return MutateResponse{}, http.StatusInternalServerError, perr
				}
				tsp.EpochSpan("wal-append", int64(sess.epoch), walStart, tsp.Clock())
				if sess.disk.shouldSnapshot() {
					if perr := sess.disk.snapshot(plan, sess.live, sess.epoch); perr != nil {
						s.sessions.logfSafe("latticed: session %s: %v", sess.key, perr)
					}
				}
			}
			s.met.sessMutations.Inc()
			s.met.sessEvents.Add(uint64(d.Events))
			for _, ev := range events[:d.Events] {
				s.met.opEvents[ev.Kind].Inc()
			}
			// Fan the applied batch out to subscribers while still under
			// the session lock, so every subscriber queue observes epochs
			// in order. Publishing never blocks — a full queue drops its
			// subscriber instead.
			if sess.hub.active() {
				fanStart := time.Now()
				pubStart := tsp.Clock()
				pd := &Delta{Epoch: sess.epoch, M: plan.Slots(), Alive: sess.live.alive, Changed: resp.Changed,
					PubTime: fanStart, trace: tsp, pubNs: pubStart}
				delivered, dropped := sess.hub.publish(pd)
				tsp.EpochSpan("hub-publish", int64(sess.epoch), pubStart, tsp.Clock())
				sess.lastPubNs.Store(fanStart.UnixNano())
				s.met.deltasPushed.Add(uint64(delivered))
				s.met.fanoutNs.Record(uint64(time.Since(fanStart)))
				if dropped > 0 {
					s.met.subsDropped.Add(uint64(dropped))
					s.sessions.logfSafe("latticed: session %s: dropped %d slow subscriber(s) at epoch %d",
						sess.key, dropped, sess.epoch)
				}
			}
		}
		resp.Disruption = d
		if aerr != nil {
			// The applied prefix stands; report it alongside the error.
			resp.Error = aerr.Error()
		}
	}
	if req.Full {
		// [:0:0] keeps a nil list nil (JSON null) but never appends into
		// the published delta's array.
		resp.Changed = sess.live.appendAssignment(resp.Changed[:0:0], plan)
	}
	resp.Epoch = sess.epoch
	resp.M = plan.Slots()
	resp.Alive = sess.live.alive
	sess.mu.Unlock()
	status := http.StatusOK
	if resp.Error != "" {
		status = http.StatusBadRequest
	}
	return resp, status, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{OK: true, Plans: s.reg.Len()})
}

// handlePlan compiles (or fetches) a plan and describes it. The plan
// endpoint speaks JSON whatever the request's codec.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request, _ codec, tr *reqTrace) {
	c := jsonCodec{}
	buf, body, ok := s.readBody(w, r, c, tr)
	if !ok {
		return
	}
	defer s.putBuf(buf)
	var req PlanRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		c.writeErr(w, http.StatusBadRequest, fmt.Sprintf("decoding request: %v", err))
		return
	}
	plan, ok := s.resolvePlan(w, c, tr, BinPlanRef{Spec: req.Plan})
	if !ok {
		return
	}
	tr.phase(phaseEncode)
	period := plan.Tiling().Period()
	rows := make([][]int64, period.Rows())
	for i := range rows {
		rows[i] = make([]int64, period.Cols())
		for j := range rows[i] {
			rows[i][j] = period.At(i, j)
		}
	}
	tilePts := plan.Tile().Points()
	tile := make([][]int, len(tilePts))
	for i, pt := range tilePts {
		tile[i] = pt
	}
	writeJSON(w, http.StatusOK, PlanResponse{
		Signature: plan.Signature(),
		Lattice:   plan.Lattice().Name(),
		Dim:       plan.Tile().Dim(),
		Slots:     plan.Slots(),
		Period:    rows,
		Tile:      tile,
	})
}

// handleBatch serves slots and may-broadcast batches in either codec:
// decode the request, resolve the plan, and check the query dimension
// once — so the engine cannot fail after a binary head frame is out —
// before the codec runs the engine and writes the answer.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request, c codec, tr *reqTrace) {
	buf, body, ok := s.readBody(w, r, c, tr)
	if !ok {
		return
	}
	defer s.putBuf(buf)
	req, err := c.decodeBatch(body, batchKinds[tr.ep], s.limits(), buf)
	if err != nil {
		c.writeErr(w, wireStatus(err), err.Error())
		return
	}
	plan, ok := s.resolvePlan(w, c, tr, req.Plan)
	if !ok {
		return
	}
	dim, total := req.Window.Dim(), len(req.Points)
	if req.UseWindow {
		total = req.Window.Size()
	} else if total > 0 {
		dim = len(req.Points[0])
	}
	if err := checkDim(plan, dim, "query"); err != nil {
		c.writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	tr.phase(phaseEngine)
	// Past the first point, only a ragged JSON batch can still fail the
	// engine; the JSON codec has written nothing by then.
	if err := c.writeBatch(w, plan, req, total, buf, tr); err != nil {
		c.writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	tr.batch = total
}

// answerSlots runs the engine over a batch and hands the slots to emit
// in runs of at most chunk, through buf's pooled slice: a window answer
// never materializes beyond one run, and that run stays in buf for the
// next request. It is the one engine walk of both batch endpoints: a
// may-broadcast codec encodes its flags from these runs. emit returning
// false abandons the query (the client hung up).
func answerSlots(plan *core.Plan, req *BinBatch, chunk int, buf *queryBuf, emit func([]int32) bool) error {
	if req.UseWindow {
		return QueryWindowSlotsChunked(plan, req.Window, chunk, buf.slots[:0], func(run []int32) bool {
			buf.slots = run
			return emit(run)
		})
	}
	var err error
	buf.slots, err = QuerySlots(plan, req.Points, buf.slots[:0])
	for off := 0; err == nil && off < len(buf.slots); off += chunk {
		if !emit(buf.slots[off:min(off+chunk, len(buf.slots))]) {
			break
		}
	}
	return err
}

// readBody reads the size-capped request body into a pooled queryBuf —
// the one body read of every endpoint — answering a failed read through
// c (413 oversized, 400 otherwise; the buffer is then already back in
// the pool). It strips a binary trace-extension prefix and joins its
// context onto tr when the caller sampled and no traceparent header
// already started a span (the header outranks the in-band frame); the
// request clock then runs on the joined trace, offset by the time
// already spent. The returned bytes alias buf.body; the caller hands
// buf back with putBuf once nothing it still uses aliases them.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, c codec, tr *reqTrace) (*queryBuf, []byte, bool) {
	buf := s.bufs.Get().(*queryBuf)
	// Hand-rolled: bytes.Buffer.ReadFrom would heap-allocate the reader.
	rd := http.MaxBytesReader(w, r.Body, s.opts.MaxBody)
	b, err := buf.body[:0], error(nil)
	for n := 0; err == nil; b = b[:len(b)+n] {
		if len(b) == cap(b) {
			b = slices.Grow(b, 4096)
		}
		n, err = rd.Read(b[len(b):cap(b)])
	}
	buf.body = b
	if err != io.EOF {
		s.putBuf(buf)
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		c.writeErr(w, status, fmt.Sprintf("reading request: %v", err))
		return nil, nil, false
	}
	ctx, body := c.traceExt(buf.body)
	if ctx.Valid() && ctx.Sampled && tr.span == nil {
		tr.base = tr.clock()
		tr.span = s.rec.Join(epNames[tr.ep], ctx.TraceID, ctx.Parent)
	}
	return buf, body, true
}

// limits bundles the server's decode bounds.
func (s *Server) limits() Limits {
	return Limits{MaxBatch: s.opts.MaxBatch, MaxWindow: s.opts.MaxWindow}
}

// wireStatus maps a decode-funnel error to its HTTP status: ErrLimit is
// 413, everything else (ErrSpec, malformed bytes) 400.
func wireStatus(err error) int {
	if errors.Is(err, ErrLimit) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// resolvePlan resolves a request's plan reference and records its
// signature on tr, answering failures through c: a signature is a pure
// cache lookup (404 on a miss, so the client re-sends the spec); a spec
// compiles through the registry (planErrStatus).
func (s *Server) resolvePlan(w http.ResponseWriter, c codec, tr *reqTrace, ref BinPlanRef) (*core.Plan, bool) {
	var plan *core.Plan
	if ref.Signature != "" {
		var ok bool
		if plan, ok = s.reg.Lookup(ref.Signature); !ok {
			c.writeErr(w, http.StatusNotFound,
				fmt.Sprintf("unknown plan signature %q: re-send the full plan spec", ref.Signature))
			return nil, false
		}
	} else {
		var err error
		if plan, err = s.reg.GetSpec(ref.Spec); err != nil {
			c.writeErr(w, planErrStatus(err), err.Error())
			return nil, false
		}
	}
	tr.sig = plan.Signature()
	return plan, true
}

// planErrStatus maps a plan-compilation failure to its HTTP status:
// malformed specs are 400, inexact prototiles 422, and anything else 500.
// That includes a plan whose served slot function failed its certificate
// (core.ErrUncertified, counted by latticed_registry_uncertified_total):
// the tile is exact, so the fault is the server's, never the client's.
func planErrStatus(err error) int {
	switch {
	case errors.Is(err, ErrSpec):
		return http.StatusBadRequest
	case errors.Is(err, core.ErrNotExact):
		return http.StatusUnprocessableEntity
	}
	return http.StatusInternalServerError
}

// checkDim is the one check that a request's query or window dimension
// (named by what) matches the plan's.
func checkDim(plan *core.Plan, dim int, what string) error {
	if want := plan.Tile().Dim(); dim != want {
		return fmt.Errorf("%s dimension %d ≠ plan dimension %d", what, dim, want)
	}
	return nil
}
