package service

// The /statusz introspection plane (DESIGN.md §14): a one-page live
// answer to "what is this daemon doing right now" — sessions with
// their epochs, subscriber counts, queue depths, and WAL sizes, plus
// the subscriber lag watermarks and propagation-latency summary with
// exemplar trace IDs linking into /debug/traces. Collection is a cold
// path (statusz request or metrics scrape): it snapshots the session
// table, then walks each live session under its own lock, so it never
// stalls the mutate pipeline for more than one session's critical
// section at a time.

import (
	"encoding/json"
	"fmt"
	"html"
	"net/http"
	"sort"
	"strings"
	"time"
)

// StatuszSession is one live mutation session's row on /statusz.
type StatuszSession struct {
	// Key is the session key (plan signature + window).
	Key string `json:"key"`
	// Epoch is the session's current epoch.
	Epoch uint64 `json:"epoch"`
	// Subscribers is the number of attached push subscribers.
	Subscribers int `json:"subscribers"`
	// QueueMax and QueueSum are the deepest and the summed subscriber
	// queue backlogs (undelivered deltas) at collection time.
	QueueMax int `json:"queue_max"`
	QueueSum int `json:"queue_sum"`
	// WALBytes and WALEvents are the session's write-ahead-log size and
	// the events logged since its last snapshot; zero when persistence
	// is off or disabled for this session.
	WALBytes  int64 `json:"wal_bytes"`
	WALEvents int   `json:"wal_events"`
	// Lag watermarks across this session's subscribers: epochs behind
	// the session epoch and time behind the last publish (nanoseconds).
	// All zero when every subscriber is current — the "churn stopped,
	// everyone caught up" signal.
	LagEpochsMin uint64 `json:"lag_epochs_min"`
	LagEpochsP50 uint64 `json:"lag_epochs_p50"`
	LagEpochsMax uint64 `json:"lag_epochs_max"`
	LagTimeNsMin int64  `json:"lag_time_ns_min"`
	LagTimeNsP50 int64  `json:"lag_time_ns_p50"`
	LagTimeNsMax int64  `json:"lag_time_ns_max"`
}

// StatuszResponse is the JSON body of GET /statusz.
type StatuszResponse struct {
	// Now is the collection wall-clock time.
	Now time.Time `json:"now"`
	// Plans is the number of cached compiled plans.
	Plans int `json:"plans"`
	// SubscribersLive is the number of open subscription streams (the
	// latticed_subscribers_live gauge).
	SubscribersLive int64 `json:"subscribers_live"`
	// Sessions lists every live mutation session, LRU order (least
	// recently used first).
	Sessions []StatuszSession `json:"sessions"`
	// Global subscriber lag watermarks across all sessions (the same
	// numbers the latticed_subscriber_lag_* gauges export).
	LagEpochsMin uint64 `json:"lag_epochs_min"`
	LagEpochsP50 uint64 `json:"lag_epochs_p50"`
	LagEpochsMax uint64 `json:"lag_epochs_max"`
	LagTimeNsMin int64  `json:"lag_time_ns_min"`
	LagTimeNsP50 int64  `json:"lag_time_ns_p50"`
	LagTimeNsMax int64  `json:"lag_time_ns_max"`
	// PropagationP50Ns and PropagationP99Ns summarize the
	// publish→deliver latency histogram.
	PropagationP50Ns float64 `json:"propagation_p50_ns"`
	PropagationP99Ns float64 `json:"propagation_p99_ns"`
	// PropagationExemplars links recent sampled deliveries to their
	// traces at /debug/traces, newest first.
	PropagationExemplars []PropExemplar `json:"propagation_exemplars,omitempty"`
	// TraceSampleEvery is the recorder's 1-in-N sampling rate (0:
	// tracing disabled); TracesStarted and TracesFinished its counters.
	TraceSampleEvery int    `json:"trace_sample_every"`
	TracesStarted    uint64 `json:"traces_started"`
	TracesFinished   uint64 `json:"traces_finished"`
}

// statuszCollect walks the live session table and returns the per-
// session rows plus the flattened per-subscriber lag samples
// (epochs-behind, time-behind-ns) feeding the global watermarks. Cold
// path: table lock to snapshot the pointers, then one session lock at
// a time (lock order sess.mu → hub.mu; table.mu is never held with
// either, here or anywhere else).
func (s *Server) statuszCollect() ([]StatuszSession, []uint64, []int64) {
	st := s.sessions
	st.mu.Lock()
	sessions := make([]*dynSession, 0, st.lru.Len())
	for e := st.lru.Front(); e != nil; e = e.Next() {
		sessions = append(sessions, e.Value.(*dynSession))
	}
	st.mu.Unlock()

	rows := make([]StatuszSession, 0, len(sessions))
	var allEpochs []uint64
	var allTimes []int64
	for _, sess := range sessions {
		sess.mu.Lock()
		if sess.gone {
			sess.mu.Unlock()
			continue
		}
		row := StatuszSession{Key: sess.key, Epoch: sess.epoch}
		if sess.disk != nil {
			row.WALBytes = sess.disk.walBytes
			row.WALEvents = sess.disk.walEvents
		}
		lastPub := sess.lastPubNs.Load()
		var epochsBehind []uint64
		var timesBehind []int64
		sess.hub.mu.Lock()
		row.Subscribers = len(sess.hub.subs)
		for _, e := range sess.hub.subs {
			sub := e.sub
			q := len(e.ch)
			row.QueueSum += q
			if q > row.QueueMax {
				row.QueueMax = q
			}
			var eb uint64
			if le := sub.lastEpoch.Load(); le < row.Epoch {
				eb = row.Epoch - le
			}
			epochsBehind = append(epochsBehind, eb)
			var tb int64
			if subPub := sub.lastPubNs.Load(); lastPub > 0 && subPub > 0 && subPub < lastPub {
				tb = lastPub - subPub
			}
			timesBehind = append(timesBehind, tb)
		}
		sess.hub.mu.Unlock()
		sess.mu.Unlock()
		row.LagEpochsMin, row.LagEpochsP50, row.LagEpochsMax = watermarksU(epochsBehind)
		row.LagTimeNsMin, row.LagTimeNsP50, row.LagTimeNsMax = watermarksI(timesBehind)
		rows = append(rows, row)
		allEpochs = append(allEpochs, epochsBehind...)
		allTimes = append(allTimes, timesBehind...)
	}
	return rows, allEpochs, allTimes
}

// watermarksU reduces lag samples to (min, p50, max); zeros when no
// subscriber exists. The slice is sorted in place.
func watermarksU(v []uint64) (lo, mid, hi uint64) {
	if len(v) == 0 {
		return 0, 0, 0
	}
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	return v[0], v[len(v)/2], v[len(v)-1]
}

// watermarksI is watermarksU for signed time-behind samples.
func watermarksI(v []int64) (lo, mid, hi int64) {
	if len(v) == 0 {
		return 0, 0, 0
	}
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	return v[0], v[len(v)/2], v[len(v)-1]
}

// Statusz assembles the full introspection snapshot (the JSON body of
// GET /statusz), exported so embedders and tests can read it without
// HTTP framing.
func (s *Server) Statusz() StatuszResponse {
	rows, epochs, times := s.statuszCollect()
	resp := StatuszResponse{
		Now:                  time.Now(),
		Plans:                s.reg.Len(),
		SubscribersLive:      s.met.subsLive.Load(),
		Sessions:             rows,
		PropagationExemplars: s.met.exemplars(),
		TraceSampleEvery:     s.rec.SampleEvery(),
		TracesStarted:        s.rec.Started.Load(),
		TracesFinished:       s.rec.Finished.Load(),
	}
	resp.LagEpochsMin, resp.LagEpochsP50, resp.LagEpochsMax = watermarksU(epochs)
	resp.LagTimeNsMin, resp.LagTimeNsP50, resp.LagTimeNsMax = watermarksI(times)
	snap := s.met.propagationNs.Snapshot()
	resp.PropagationP50Ns = snap.Quantile(0.50)
	resp.PropagationP99Ns = snap.Quantile(0.99)
	return resp
}

// HandleStatusz serves GET /statusz: the introspection snapshot as
// indented JSON, or as a minimal HTML page when the request asks for
// one (?format=html, or an Accept header preferring text/html). The
// daemon mounts it unconditionally, like /metrics — it is the ops
// plane, not traffic.
func (s *Server) HandleStatusz(w http.ResponseWriter, r *http.Request) {
	resp := s.Statusz()
	wantHTML := r.URL.Query().Get("format") == "html" ||
		strings.Contains(r.Header.Get("Accept"), "text/html")
	if !wantHTML {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(resp)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	var b strings.Builder
	b.WriteString("<!DOCTYPE html><html><head><title>latticed /statusz</title></head><body>")
	fmt.Fprintf(&b, "<h1>latticed</h1><p>%s — %d plan(s), %d session(s), %d live subscriber(s)</p>",
		html.EscapeString(resp.Now.Format(time.RFC3339)), resp.Plans, len(resp.Sessions), resp.SubscribersLive)
	fmt.Fprintf(&b, "<p>lag watermarks: epochs behind min/p50/max = %d/%d/%d, time behind min/p50/max = %s/%s/%s</p>",
		resp.LagEpochsMin, resp.LagEpochsP50, resp.LagEpochsMax,
		time.Duration(resp.LagTimeNsMin), time.Duration(resp.LagTimeNsP50), time.Duration(resp.LagTimeNsMax))
	fmt.Fprintf(&b, "<p>propagation p50 = %s, p99 = %s; traces: 1-in-%d sampling, %d started, %d finished (<a href=\"/debug/traces\">/debug/traces</a>)</p>",
		time.Duration(resp.PropagationP50Ns), time.Duration(resp.PropagationP99Ns),
		resp.TraceSampleEvery, resp.TracesStarted, resp.TracesFinished)
	if len(resp.PropagationExemplars) > 0 {
		b.WriteString("<p>recent exemplars:")
		for _, ex := range resp.PropagationExemplars {
			fmt.Fprintf(&b, " <code>%s</code>@%d (%s)", html.EscapeString(ex.TraceID), ex.Epoch, time.Duration(ex.LatencyNs))
		}
		b.WriteString("</p>")
	}
	b.WriteString("<table border=\"1\" cellpadding=\"4\"><tr><th>session</th><th>epoch</th><th>subs</th>" +
		"<th>queue max/sum</th><th>WAL bytes/events</th><th>lag epochs min/p50/max</th><th>lag time min/p50/max</th></tr>")
	for _, row := range resp.Sessions {
		fmt.Fprintf(&b, "<tr><td><code>%s</code></td><td>%d</td><td>%d</td><td>%d / %d</td><td>%d / %d</td>"+
			"<td>%d / %d / %d</td><td>%s / %s / %s</td></tr>",
			html.EscapeString(row.Key), row.Epoch, row.Subscribers, row.QueueMax, row.QueueSum,
			row.WALBytes, row.WALEvents,
			row.LagEpochsMin, row.LagEpochsP50, row.LagEpochsMax,
			time.Duration(row.LagTimeNsMin), time.Duration(row.LagTimeNsP50), time.Duration(row.LagTimeNsMax))
	}
	b.WriteString("</table></body></html>\n")
	_, _ = w.Write([]byte(b.String()))
}

// HandleTraces serves GET /debug/traces: the recorder's retained
// traces as JSON, newest first (trace.Recorder.WriteJSON).
func (s *Server) HandleTraces(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = s.rec.WriteJSON(w)
}
