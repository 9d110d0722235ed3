// Command latticed serves tiling schedules over HTTP: compile a plan
// once, answer batches of SlotOf / MayBroadcast queries with O(1)
// integer arithmetic per point, and churn dynamic deployment sessions
// whose every live sensor keeps its Theorem 1 slot, so churn
// reschedules no one (internal/service).
//
// Usage:
//
//	go run ./cmd/latticed [-addr :8370] [-cache 256] [-max-batch N] [-max-window N]
//	                      [-sessions 16] [-max-subscribers N] [-sub-queue N]
//	                      [-slow-ms 0] [-trace-sample N] [-trace-ring N]
//	                      [-data DIR] [-fsync] [-debug]
//
// With -data DIR, dynamic mutation sessions are durable (DESIGN.md
// §12): every applied batch appends to a per-session write-ahead log,
// snapshots bound the log, evicted sessions flush first and reload on
// the next touch, and a restart restores every persisted session at its
// last epoch before serving. -fsync additionally syncs the WAL per
// batch (power-loss durability at a per-mutation fsync cost; without
// it appends still survive process restarts).
//
// Sessions also push (DESIGN.md §13): POST /v1/plan:subscribe holds the
// connection open and streams one delta per applied mutation batch, so
// sensors learn reassignments without polling. A subscriber that falls
// more than -sub-queue epochs behind is dropped with a terminal "resync
// required" element rather than ever stalling the mutate path; one that
// reconnects with a stale epoch is caught up from the WAL when -data
// covers the gap, and answered with a full resync otherwise.
//
// Endpoints:
//
//	POST /v1/plan               {"plan":{"tile":{"name":"cross:2:1"}}}
//	POST /v1/slots:batch        {"plan":{...},"points":[[3,4],[0,0]]}
//	                            {"plan":{...},"window":{"lo":[-4,-4],"hi":[4,4]}}
//	POST /v1/maybroadcast:batch {"plan":{...},"points":[[3,4]],"t":12345}
//	POST /v1/plan:mutate        {"plan":{...},"window":{...},"events":[{"op":"leave","p":[0,0]}]}
//	POST /v1/plan:subscribe     {"plan":{...},"window":{...},"epoch":12} — streams
//	                            session deltas (ndjson, or frames under the
//	                            binary content type) until the client leaves
//	GET  /healthz               liveness and the cached plan count
//	GET  /metrics               Prometheus text exposition (always on):
//	                            request/error/latency by endpoint × codec,
//	                            phase and batch-size histograms, plan-cache
//	                            and session traffic, applied events by op,
//	                            per-plan traffic top-K, Go runtime stats
//	GET  /statusz               live introspection (always on): sessions with
//	                            epochs, subscriber counts, queue depths, WAL
//	                            sizes, subscriber lag watermarks, propagation
//	                            latency with exemplar trace IDs — JSON, or a
//	                            minimal HTML page with ?format=html
//	GET  /debug/traces          recent request span trees as JSON (always on;
//	                            populated when -trace-sample is set or a
//	                            -slow-ms request forces a trace)
//	GET  /debug/pprof/          CPU/heap/goroutine profiles (opt-in: -debug;
//	                            profiles cost CPU and leak internals, so
//	                            keep them off on untrusted networks)
//
// Telemetry is per-handler (no process globals): every handler built by
// newHandler carries its own metrics registry — the one counter store
// behind /metrics and /statusz — so tests and multi-server processes
// observe independent counters. Recording on the request path is
// lock-free atomic adds, amortized over a batch, so the engine's
// per-point cost survives instrumentation (DESIGN.md §11). -slow-ms N samples requests slower
// than N milliseconds into the log with their decode/engine/encode
// phase split (at most one entry per 100ms) and the ID of a span trace
// at /debug/traces, both read from the request's one phase record.
// -trace-sample N additionally records an end-to-end span tree for 1 in
// N requests — mutate traces carry the epoch timeline (overlay-apply,
// wal-append, hub-publish, per-subscriber deliver) inside the engine
// phase — joining a caller's W3C traceparent (or its binary
// trace-extension frame) when one is propagated (DESIGN.md §14).
//
// Compiled plans are cached in an LRU keyed by the canonical
// (lattice, tile) signature; concurrent first requests for one plan
// compile it exactly once. Dynamic sessions are keyed by
// signature + window and versioned by an epoch, so clients track churn
// through delta responses. Measure throughput against a running daemon
// with the load generator: go run ./cmd/bench -load http://localhost:8370.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os/signal"
	"syscall"
	"time"

	"tilingsched/internal/obs"
	"tilingsched/internal/service"
)

// daemonOptions are newHandler's knobs — the flag set, minus the
// listen address.
type daemonOptions struct {
	cache       int    // plan-cache capacity
	maxBatch    int    // points per batch / events per mutate (0 = default)
	maxWindow   int    // points per window shorthand (0 = default)
	sessions    int    // live dynamic sessions (0 = default)
	maxSubs     int    // push subscribers per session (0 = default)
	subQueue    int    // per-subscriber delta-queue depth (0 = default)
	slowMs      int    // slow-request log threshold in ms (0 = off)
	traceSample int    // trace 1 in N requests (0 = off)
	traceRing   int    // retained traces at /debug/traces (0 = default)
	data        string // session data directory ("" = sessions not durable)
	fsync       bool   // fsync the session WAL per mutation batch
	debug       bool
	logf        func(format string, args ...any) // nil = log.Printf
}

// logSlow is the daemon's slow-request sink: one structured log line
// per sampled trace. trace= is the span-tree ID at /debug/traces
// (slow requests are always traced, whatever -trace-sample says).
func logSlow(sr service.SlowRequest) {
	log.Printf("latticed: slow request endpoint=%s codec=%s status=%d sig=%q points=%d total=%s decode=%s engine=%s encode=%s trace=%s",
		sr.Endpoint, sr.Codec, sr.Status, sr.Signature, sr.BatchPoints,
		sr.Total, sr.Decode, sr.Engine, sr.Encode, sr.Trace)
}

// newHandler assembles the daemon's full HTTP wiring — registry, batch
// engine, dynamic sessions, wire layer, the always-on /metrics
// exposition, and (when debug is set) the pprof plane — from its
// knobs. Split from main so the end-to-end tests drive exactly what
// the binary serves via httptest.
func newHandler(o daemonOptions) http.Handler {
	h, _, err := newDaemon(o)
	if err != nil {
		// Only reachable with a data directory configured and unusable.
		log.Fatalf("latticed: %v", err)
	}
	return h
}

// newDaemon is newHandler plus the underlying service server (for the
// shutdown flush and the restart tests) and the persistence setup:
// with a data directory set, durable sessions are enabled and every
// persisted session is restored before the handler serves traffic.
func newDaemon(o daemonOptions) (http.Handler, *service.Server, error) {
	logf := o.logf
	if logf == nil {
		logf = log.Printf
	}
	opts := service.ServerOptions{
		MaxBatch:         o.maxBatch,
		MaxWindow:        o.maxWindow,
		MaxSessions:      o.sessions,
		MaxSubscribers:   o.maxSubs,
		SubscribeQueue:   o.subQueue,
		TraceSampleEvery: o.traceSample,
		TraceRing:        o.traceRing,
		Logf:             logf,
	}
	if o.slowMs > 0 {
		opts.SlowThreshold = time.Duration(o.slowMs) * time.Millisecond
		opts.SlowLog = logSlow
	}
	srv := service.NewServer(service.NewRegistry(o.cache), opts)
	if o.data != "" {
		if err := srv.EnablePersistence(service.PersistOptions{Dir: o.data, Fsync: o.fsync}); err != nil {
			return nil, nil, err
		}
		n, err := srv.RestoreSessions()
		if err != nil {
			return nil, nil, err
		}
		if n > 0 {
			logf("latticed: restored %d session(s) from %s", n, o.data)
		}
	}
	mux := http.NewServeMux()
	mux.Handle("/", srv)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", obs.ContentType)
		if err := srv.WriteMetrics(w); err != nil {
			return // client hung up mid-scrape; nothing to answer
		}
		_ = obs.WriteGoRuntime(w)
	})
	// The introspection plane (DESIGN.md §14) is always on, like
	// /metrics: it reads state, leaks no profiles, and an operator's
	// first question ("is it keeping up?") should never need a restart
	// with -debug.
	mux.HandleFunc("GET /statusz", srv.HandleStatusz)
	mux.HandleFunc("GET /debug/traces", srv.HandleTraces)
	if !o.debug {
		return mux, srv, nil
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux, srv, nil
}

func main() {
	addr := flag.String("addr", ":8370", "listen address")
	cache := flag.Int("cache", 256, "plan cache capacity (compiled plans)")
	maxBatch := flag.Int("max-batch", 0, "max points per explicit batch and events per mutate (0 = default)")
	maxWindow := flag.Int("max-window", 0, "max points per window shorthand or session window (0 = default)")
	sessions := flag.Int("sessions", 0, "max live dynamic deployment sessions (0 = default)")
	maxSubs := flag.Int("max-subscribers", 0, "max push subscribers per session, 503 beyond (0 = default)")
	subQueue := flag.Int("sub-queue", 0, "per-subscriber delta-queue depth before a slow consumer is dropped (0 = default)")
	slowMs := flag.Int("slow-ms", 0, "log requests slower than this many milliseconds (0 = off)")
	traceSample := flag.Int("trace-sample", 0, "record a span trace for 1 in N requests, served at /debug/traces (0 = off; slow requests are always traced)")
	traceRing := flag.Int("trace-ring", 0, "recent traces retained for /debug/traces (0 = default)")
	data := flag.String("data", "", "session data directory: mutation sessions persist (WAL + snapshots) and survive restarts (\"\" = off)")
	fsync := flag.Bool("fsync", false, "with -data: fsync the session WAL after every mutation batch")
	debug := flag.Bool("debug", false, "serve /debug/pprof (keep off on untrusted networks)")
	flag.Parse()

	handler, svc, err := newDaemon(daemonOptions{
		cache:       *cache,
		maxBatch:    *maxBatch,
		maxWindow:   *maxWindow,
		sessions:    *sessions,
		maxSubs:     *maxSubs,
		subQueue:    *subQueue,
		slowMs:      *slowMs,
		traceSample: *traceSample,
		traceRing:   *traceRing,
		data:        *data,
		fsync:       *fsync,
		debug:       *debug,
	})
	if err != nil {
		log.Fatalf("latticed: %v", err)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutdownCtx)
	}()

	log.Printf("latticed: serving on %s (plan cache %d)", *addr, *cache)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("latticed: %v", err)
	}
	// ErrServerClosed means Shutdown ran: wait for in-flight requests to
	// drain, then checkpoint every dirty session so a restart over the
	// same data directory replays nothing.
	<-shutdownDone
	if n := svc.FlushSessions(); n > 0 {
		log.Printf("latticed: flushed %d dirty session(s) to %s", n, *data)
	}
	log.Printf("latticed: shut down")
}
