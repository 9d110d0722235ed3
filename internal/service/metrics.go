package service

// Server telemetry: every request that reaches the wire layer is
// counted, timed, and traced through a per-server internal/obs
// registry, the server's one counter store. The instrument wrapper
// around each endpoint handler does the uniform work (request/error
// counters, end-to-end latency split by endpoint × codec); handlers
// fill in a pooled reqTrace with the request's plan signature, batch
// size, and phase boundaries (decode → engine → encode), one clock
// read each. That one record feeds the phase histograms, the per-plan
// traffic sketch, the request's span trace, and — past the configured
// threshold — a sampled slow-request log. Recording is pre-resolved
// atomic handles only: no locks, no allocations on the request path
// beyond the pooled trace.

import (
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"tilingsched/internal/dynamic"
	"tilingsched/internal/obs"
	"tilingsched/internal/obs/trace"
)

// Instrumented endpoints, in mux order. /healthz and the daemon's
// /metrics are deliberately uninstrumented: they are the ops plane
// reading the telemetry, not traffic worth telemetering.
const (
	epPlan = iota
	epSlots
	epMay
	epMutate
	epSubscribe
	numEndpoints
)

// Codecs a request can select via Content-Type.
const (
	codecJSON = iota
	codecBin
	numCodecs
)

// Request phases, in order. A request's phases run back to back from
// the wrapper's start: decode until the handler enters the engine,
// engine until it starts encoding, encode until it returns. A phase
// the handler never enters is not recorded.
const (
	phaseDecode = iota
	phaseEngine
	phaseEncode
	numPhases
	// noPhase closes the open phase without opening another: the rest
	// of the request (a subscribe stream) is not a phase.
	noPhase = numPhases
)

var (
	epNames    = [numEndpoints]string{"plan", "slots", "maybroadcast", "mutate", "subscribe"}
	codecNames = [numCodecs]string{"json", "bin"}
	phaseNames = [numPhases]string{"decode", "engine", "encode"}
)

// planTrafficK bounds the per-plan-signature traffic sketch: at most
// this many signatures are tracked (space-saving top-K), so exposition
// cardinality stays fixed no matter how many plans clients request.
const planTrafficK = 32

// slowLogMinInterval rate-limits the slow-request log: at most one
// entry per interval, so a latency storm degrades to a sample instead
// of a log flood.
const slowLogMinInterval = 100 * time.Millisecond

// SlowRequest is one sampled slow-request trace, handed to the
// ServerOptions.SlowLog callback when a request's end-to-end time
// crosses ServerOptions.SlowThreshold.
type SlowRequest struct {
	// Endpoint and Codec identify the request ("slots", "bin", ...).
	Endpoint, Codec string
	// Signature is the plan's canonical signature ("" if the request
	// died before plan resolution).
	Signature string
	// BatchPoints is the answer size (points, flags, or events).
	BatchPoints int
	// Status is the HTTP status the handler answered.
	Status int
	// Total is the end-to-end handler time; Decode, Engine, and Encode
	// are the phase splits (Encode is zero on the binary streaming
	// path, where encoding interleaves with the engine phase).
	Total, Decode, Engine, Encode time.Duration
	// Trace is the request's hex trace ID, linking the log line to its
	// span tree at /debug/traces. Slow requests that lost the sampling
	// draw get a forced trace built from the same phase record
	// (always-sample-on-slow).
	Trace string
}

// Metrics is a server's telemetry plane: one obs.Registry per server
// (no process globals — tests and multi-handler processes keep
// independent counters) plus pre-resolved handles for everything the
// request path records. Snapshot it through WritePrometheus via
// (*Server).WriteMetrics.
type Metrics struct {
	reg *obs.Registry

	// Per-endpoint × codec request accounting.
	requests [numEndpoints][numCodecs]*obs.Counter
	errors   [numEndpoints][numCodecs]*obs.Counter
	latency  [numEndpoints][numCodecs]*obs.Histogram

	// Request-phase wall times and batch-size distribution.
	phaseNs   [numPhases]*obs.Histogram
	batchSize *obs.Histogram

	// Per-plan-signature traffic (points answered), bounded top-K.
	planTraffic *obs.TopK
	plans       *obs.Gauge // cached plans; set at scrape time

	// Plan-registry traffic; regUncertified counts the failed
	// compilations whose plan failed its certificate (core.ErrUncertified).
	regHits, regMisses, regCompilations *obs.Counter
	regEvictions, regErrors, regDedup   *obs.Counter
	regUncertified                      *obs.Counter

	// Dynamic-session traffic; opEvents counts applied events by
	// dynamic.EventKind, sessReanchored restores re-anchored (§12).
	sessLive                             *obs.Gauge
	sessCreated, sessEvicted             *obs.Counter
	sessEvictedDirty, sessRestored       *obs.Counter
	sessReanchored                       *obs.Counter
	sessMutations, sessEvents, sessConfl *obs.Counter
	opEvents                             [dynamic.Move + 1]*obs.Counter

	// Session-persistence plane (DESIGN.md §12): WAL appends and their
	// wall time, per-record fsyncs, snapshot writes, events replayed on
	// restore, failed appends (each ends its session with a 500), and
	// the three recovery modes kept distinct — torn WAL tails truncated,
	// corrupt snapshots dropped, and unusable WALs (corrupt header or a
	// base epoch past the restored state) reset.
	walAppends, walFsyncs, snapshots    *obs.Counter
	tornTails, snapsDropped, walResets  *obs.Counter
	replayedEvents, walAppendFails      *obs.Counter
	walAppendNs, walFsyncNs, snapshotNs *obs.Histogram

	// Push plane (DESIGN.md §13): live/attached subscriber accounting,
	// the three terminal modes (slow-consumer drops, session-eviction
	// closes and element writes past their deadline), deltas fanned out,
	// per-batch fan-out wall time, and the two stale-attach recovery
	// modes kept distinct — WAL catch-ups vs full resyncs.
	subsLive                            *obs.Gauge
	subsTotal, subsDropped, subsEvicted *obs.Counter
	subsTimedOut                        *obs.Counter
	deltasPushed                        *obs.Counter
	subCatchups, subResyncs             *obs.Counter
	fanoutNs                            *obs.Histogram

	// Propagation plane (DESIGN.md §14): publish→deliver latency per
	// delta delivery, plus subscriber lag watermarks (epochs-behind and
	// time-behind, indexed by lagMin/lagP50/lagMax) set at scrape time
	// from the live session table. Exemplar trace IDs for sampled
	// deliveries sit in a small lock-free ring, surfaced on /statusz.
	propagationNs *obs.Histogram
	lagEpochs     [numLagQs]*obs.Gauge
	lagTimeNs     [numLagQs]*obs.Gauge
	propExSeq     atomic.Uint64
	propExemplars [propExemplarRing]atomic.Pointer[PropExemplar]

	slowThreshold time.Duration
	slowLog       func(SlowRequest)
	lastSlow      atomic.Int64 // unix nanos of the last slow-log entry
}

// newServerMetrics registers the server's metric families and
// resolves their recording handles once, so the request path never
// touches the registry map.
func newServerMetrics(opts ServerOptions) *Metrics {
	r := obs.NewRegistry()
	m := &Metrics{
		reg:           r,
		planTraffic:   obs.NewTopK(planTrafficK),
		slowThreshold: opts.SlowThreshold,
		slowLog:       opts.SlowLog,
	}
	for ep := 0; ep < numEndpoints; ep++ {
		for c := 0; c < numCodecs; c++ {
			labels := `{endpoint="` + epNames[ep] + `",codec="` + codecNames[c] + `"}`
			m.requests[ep][c] = r.Counter("latticed_requests_total" + labels)
			m.errors[ep][c] = r.Counter("latticed_errors_total" + labels)
			m.latency[ep][c] = r.Histogram("latticed_request_ns" + labels)
		}
	}
	for p, name := range phaseNames {
		m.phaseNs[p] = r.Histogram(`latticed_phase_ns{phase="` + name + `"}`)
	}
	m.batchSize = r.Histogram("latticed_batch_points")
	m.plans = r.Gauge("latticed_plans")
	m.regHits = r.Counter("latticed_registry_hits_total")
	m.regMisses = r.Counter("latticed_registry_misses_total")
	m.regCompilations = r.Counter("latticed_registry_compilations_total")
	m.regEvictions = r.Counter("latticed_registry_evictions_total")
	m.regErrors = r.Counter("latticed_registry_errors_total")
	m.regDedup = r.Counter("latticed_registry_singleflight_dedup_total")
	m.regUncertified = r.Counter("latticed_registry_uncertified_total")
	m.sessLive = r.Gauge("latticed_sessions_live")
	m.sessCreated = r.Counter("latticed_sessions_created_total")
	m.sessEvicted = r.Counter("latticed_sessions_evicted_total")
	m.sessEvictedDirty = r.Counter("latticed_sessions_evicted_dirty_total")
	m.sessRestored = r.Counter("latticed_sessions_restored_total")
	m.sessReanchored = r.Counter("latticed_sessions_reanchored_total")
	m.sessMutations = r.Counter("latticed_mutations_total")
	m.sessEvents = r.Counter("latticed_mutation_events_total")
	m.sessConfl = r.Counter("latticed_epoch_conflicts_total")
	for k := range m.opEvents {
		m.opEvents[k] = r.Counter(`latticed_dynamic_events_total{op="` + dynamic.EventKind(k).String() + `"}`)
	}
	m.walAppends = r.Counter("latticed_wal_appends_total")
	m.walFsyncs = r.Counter("latticed_wal_fsyncs_total")
	m.snapshots = r.Counter("latticed_snapshots_total")
	m.tornTails = r.Counter("latticed_wal_torn_tails_total")
	m.snapsDropped = r.Counter("latticed_snapshots_dropped_total")
	m.walResets = r.Counter("latticed_wal_resets_total")
	m.replayedEvents = r.Counter("latticed_wal_replayed_events_total")
	m.walAppendFails = r.Counter("latticed_wal_append_failures_total")
	m.walAppendNs = r.Histogram("latticed_wal_append_ns")
	m.walFsyncNs = r.Histogram("latticed_wal_fsync_ns")
	m.snapshotNs = r.Histogram("latticed_snapshot_ns")
	m.subsLive = r.Gauge("latticed_subscribers_live")
	m.subsTotal = r.Counter("latticed_subscribers_total")
	m.subsDropped = r.Counter("latticed_subscribers_dropped_total")
	m.subsEvicted = r.Counter("latticed_subscribers_evicted_total")
	m.subsTimedOut = r.Counter("latticed_subscribers_timed_out_total")
	m.deltasPushed = r.Counter("latticed_deltas_pushed_total")
	m.subCatchups = r.Counter("latticed_subscriber_catchups_total")
	m.subResyncs = r.Counter("latticed_subscriber_resyncs_total")
	m.fanoutNs = r.Histogram("latticed_fanout_ns")
	m.propagationNs = r.Histogram("latticed_propagation_ns")
	for q, name := range lagQNames {
		m.lagEpochs[q] = r.Gauge(`latticed_subscriber_lag_epochs{q="` + name + `"}`)
		m.lagTimeNs[q] = r.Gauge(`latticed_subscriber_lag_ns{q="` + name + `"}`)
	}
	return m
}

// Lag-watermark quantile indexes (and their exposition labels).
const (
	lagMin = iota
	lagP50
	lagMax
	numLagQs
)

var lagQNames = [numLagQs]string{"min", "p50", "max"}

// propExemplarRing is how many recent propagation exemplars are kept.
const propExemplarRing = 4

// PropExemplar links one sampled delta delivery's propagation latency
// to its trace, so an operator reading the latency histogram can jump
// to the span tree that produced an outlier. Surfaced on /statusz.
type PropExemplar struct {
	// TraceID is the hex trace ID (look it up at /debug/traces).
	TraceID string `json:"trace_id"`
	// Epoch is the delivered session epoch.
	Epoch uint64 `json:"epoch"`
	// LatencyNs is the publish→deliver latency.
	LatencyNs int64 `json:"latency_ns"`
}

// recordExemplar publishes one sampled delivery into the exemplar ring.
func (m *Metrics) recordExemplar(ex *PropExemplar) {
	slot := (m.propExSeq.Add(1) - 1) % propExemplarRing
	m.propExemplars[slot].Store(ex)
}

// exemplars returns the retained propagation exemplars, newest first.
func (m *Metrics) exemplars() []PropExemplar {
	out := make([]PropExemplar, 0, propExemplarRing)
	seq := m.propExSeq.Load()
	for i := uint64(0); i < propExemplarRing; i++ {
		slot := (seq + propExemplarRing - 1 - i) % propExemplarRing
		if ex := m.propExemplars[slot].Load(); ex != nil {
			out = append(out, *ex)
		}
	}
	return out
}

// Registry exposes the underlying obs registry (tests and embedders
// that want to render or extend it).
func (m *Metrics) Registry() *obs.Registry { return m.reg }

// ObserveBatch folds one engine batch into the telemetry plane without
// going through the HTTP wrapper — for embedders (and the repository
// benchmarks) that call QuerySlots directly but still account traffic
// in this server's registry. It records the slots endpoint's request
// counter and latency, the engine-phase histogram, the batch-size
// distribution, and the plan's traffic sketch — the exact recording
// work a served batch pays.
func (m *Metrics) ObserveBatch(sig string, points int, engine time.Duration) {
	tr := reqTrace{sig: sig, batch: points}
	tr.at[phaseEngine] = [2]int64{0, int64(engine)}
	m.observe(epSlots, codecJSON, 200, engine, &tr)
}

// reqTrace is one request's record, shared by its handler and the
// instrument wrapper, which stamps ep (the endpoint served) and start.
// Pooled; zeroed at checkout, which leaves the decode phase open from
// the start.
type reqTrace struct {
	ep    int
	sig   string
	batch int
	// start is the wrapper's start, the origin of the request clock —
	// unless the wrapper sampled the request, whose clock is then the
	// trace's own, so the phases share a timeline with the epoch spans
	// mutateCore stamps on it.
	start time.Time
	// base is the request-clock offset of span's origin: 0 when the
	// wrapper started span, the body-read time when the request joined
	// a binary trace-extension context mid-decode.
	base int64
	// cur is the open phase (noPhase once none is); at holds each
	// phase's start and end offsets on the request clock, both 0 for a
	// phase the request never entered.
	cur int
	at  [numPhases][2]int64
	// span is the request's sampled trace (nil for the unsampled
	// majority). The wrapper starts it — from the sampling draw or a
	// propagated traceparent — and finishes it; the body read sets it
	// itself when it finds a binary FrameTraceExt.
	span *trace.Trace
}

// clock reads the request clock: nanoseconds since the request began.
func (tr *reqTrace) clock() int64 {
	if tr.span != nil {
		return tr.base + tr.span.Clock()
	}
	return int64(time.Since(tr.start))
}

// phase is the one phase boundary: at a single clock read it ends the
// open phase and opens next (noPhase opens none). It returns the read.
func (tr *reqTrace) phase(next int) int64 {
	now := tr.clock()
	if tr.cur != noPhase {
		tr.at[tr.cur][1] = now
	}
	if next != noPhase {
		tr.at[next][0] = now
	}
	tr.cur = next
	return now
}

// dur returns how long the request spent in phase p.
func (tr *reqTrace) dur(p int) time.Duration {
	return time.Duration(tr.at[p][1] - tr.at[p][0])
}

// stampPhases records the request's phases as spans of sp, on sp's own
// timeline. No-op on a nil trace.
func (tr *reqTrace) stampPhases(sp *trace.Trace) {
	for p, at := range tr.at {
		if at[1] > at[0] {
			sp.Span(phaseNames[p], at[0]-tr.base, at[1]-tr.base)
		}
	}
}

// observe folds one finished request into the metrics plane. It is
// the wrapper's single recording call: counters, latency and phase
// histograms, batch size, and plan-traffic sketch — all lock-free
// atomic adds except the sketch (a short mutex hold, skipped when the
// request resolved no plan).
func (m *Metrics) observe(ep, codec, status int, total time.Duration, tr *reqTrace) {
	m.requests[ep][codec].Inc()
	m.latency[ep][codec].Record(uint64(total))
	if status >= 400 {
		m.errors[ep][codec].Inc()
	}
	for p, h := range m.phaseNs {
		if d := tr.dur(p); d > 0 {
			h.Record(uint64(d))
		}
	}
	if tr.batch > 0 {
		m.batchSize.Record(uint64(tr.batch))
		if tr.sig != "" {
			m.planTraffic.Record(tr.sig, uint64(tr.batch))
		}
	}
}

// slowSample reports whether a request of the given duration should
// be handed to the slow log: configured, past the threshold, and not
// rate-limited (one entry per slowLogMinInterval, claimed by CAS so
// concurrent slow requests log once).
func (m *Metrics) slowSample(total time.Duration, now int64) bool {
	if m.slowLog == nil || m.slowThreshold <= 0 || total < m.slowThreshold {
		return false
	}
	last := m.lastSlow.Load()
	if now-last < int64(slowLogMinInterval) {
		return false
	}
	return m.lastSlow.CompareAndSwap(last, now)
}

// statusRecorder captures the status a handler answered so the
// instrument wrapper can count errors without parsing bodies. A
// handler that writes a body without WriteHeader keeps the implicit
// 200.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

// WriteHeader records the status and forwards it.
func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

// Unwrap exposes the wrapped writer so http.ResponseController reaches
// the connection's Flush / SetWriteDeadline through the instrument
// wrapper — the subscribe stream needs both.
func (sr *statusRecorder) Unwrap() http.ResponseWriter { return sr.ResponseWriter }

// traceparentHeader is the canonical MIME form of the W3C trace-context
// header. Indexing the header map with the canonical constant skips
// textproto canonicalization, which would allocate on every request —
// including the untraced majority.
const traceparentHeader = "Traceparent"

// instrument wraps an endpoint handler with the uniform telemetry:
// codec negotiation (once per request; the handler gets the codec),
// status capture, trace sampling and traceparent propagation, and the
// observe/slow-log calls. Handlers receive the pooled record to fill in
// signature, batch size, and phase boundaries; the wrapper's last clock
// read closes the open phase and is the request's total. A request that
// lost the sampling draw but crossed the slow threshold gets a trace
// built from that record (always-sample-on-slow), so every slow-log
// line links to a span tree.
func (s *Server) instrument(ep int, h func(w http.ResponseWriter, r *http.Request, c codec, tr *reqTrace)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		cid := codecJSON
		if isBinaryRequest(r) {
			cid = codecBin
		}
		tr := s.traces.Get().(*reqTrace)
		*tr = reqTrace{ep: ep}
		// Join the caller's propagated context when it sampled, else run
		// the recorder's own 1-in-N draw. The nil span is the common case
		// and costs one map index plus one atomic load.
		if vals := r.Header[traceparentHeader]; len(vals) > 0 {
			if c, ok := trace.ParseTraceparent(vals[0]); ok && c.Sampled {
				tr.span = s.rec.Join(epNames[ep], c.TraceID, c.Parent)
			}
		}
		if tr.span == nil {
			tr.span = s.rec.Start(epNames[ep])
		}
		if tr.span != nil {
			// Echo the context so the caller can link its trace to ours.
			w.Header().Set(traceparentHeader,
				trace.FormatTraceparent(tr.span.ID(), tr.span.Root(), true))
		}
		sr := statusRecorder{ResponseWriter: w, status: 200}
		tr.start = time.Now()
		h(&sr, r, codecs[cid], tr)
		total := time.Duration(tr.phase(noPhase))
		s.met.observe(ep, cid, sr.status, total, tr)
		slow := s.met.slowSample(total, tr.start.Add(total).UnixNano())
		span := tr.span
		if span == nil && slow {
			span = s.rec.StartAt(epNames[ep], tr.start)
		}
		if span != nil {
			tr.stampPhases(span)
			s.rec.Finish(span)
		}
		if slow {
			s.met.slowLog(SlowRequest{
				Endpoint:    epNames[ep],
				Codec:       codecNames[cid],
				Signature:   tr.sig,
				BatchPoints: tr.batch,
				Status:      sr.status,
				Total:       total,
				Decode:      tr.dur(phaseDecode),
				Engine:      tr.dur(phaseEngine),
				Encode:      tr.dur(phaseEncode),
				Trace:       span.ID().String(),
			})
		}
		s.traces.Put(tr)
	}
}

// Metrics returns the server's telemetry plane.
func (s *Server) Metrics() *Metrics { return s.met }

// Traces returns the server's span recorder (DESIGN.md §14), so
// embedders can adjust the sampling rate or read the ring directly.
func (s *Server) Traces() *trace.Recorder { return s.rec }

// WriteMetrics renders the server's full telemetry in Prometheus text
// exposition format: scrape-time gauges (cached plans, subscriber lag
// watermarks), every registered family, then the per-plan traffic
// sketch. The daemon's /metrics handler calls this and appends
// obs.WriteGoRuntime.
func (s *Server) WriteMetrics(w io.Writer) error {
	s.met.plans.Set(int64(s.reg.Len()))
	s.setLagGauges()
	if err := s.met.reg.WritePrometheus(w); err != nil {
		return err
	}
	return obs.WriteTopK(w, "latticed_plan_points_total", "signature", s.met.planTraffic)
}

// setLagGauges recomputes the global subscriber lag watermarks from the
// live session table (cold path: scrape and statusz time only).
func (s *Server) setLagGauges() {
	_, epochsBehind, timeBehind := s.statuszCollect()
	eMin, eP50, eMax := watermarksU(epochsBehind)
	tMin, tP50, tMax := watermarksI(timeBehind)
	s.met.lagEpochs[lagMin].Set(int64(eMin))
	s.met.lagEpochs[lagP50].Set(int64(eP50))
	s.met.lagEpochs[lagMax].Set(int64(eMax))
	s.met.lagTimeNs[lagMin].Set(tMin)
	s.met.lagTimeNs[lagP50].Set(tP50)
	s.met.lagTimeNs[lagMax].Set(tMax)
}
