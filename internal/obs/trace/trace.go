// Package trace is a low-overhead span recorder for epoch-propagation
// tracing (DESIGN.md §14). A Recorder samples requests at a configurable
// 1-in-N rate (with a forced path for always-sample-on-slow), hands out
// pooled *Trace builders stamped with monotonic timestamps, and publishes
// finished traces into a lock-free ring buffer of recent traces that
// /debug/traces renders as JSON.
//
// The untraced hot path costs one atomic load and zero allocations: an
// unsampled Start returns a nil *Trace, and every *Trace method is a
// nil-receiver-safe no-op. Traces stay mutable after Finish so late
// per-subscriber delivery spans can attach to an already-published epoch
// trace; Snapshot copies each trace under its lock, so concurrent
// readers always observe an internally consistent view.
package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// ID is a 16-byte W3C trace ID. The zero ID is invalid.
type ID [16]byte

// SpanID is an 8-byte W3C parent/span ID. The zero SpanID is invalid.
type SpanID [8]byte

const hexDigits = "0123456789abcdef"

// String renders the ID as 32 lowercase hex digits.
func (id ID) String() string {
	var b [32]byte
	for i, v := range id {
		b[2*i] = hexDigits[v>>4]
		b[2*i+1] = hexDigits[v&0xf]
	}
	return string(b[:])
}

// IsZero reports whether the ID is the invalid all-zero ID.
func (id ID) IsZero() bool { return id == ID{} }

// String renders the SpanID as 16 lowercase hex digits.
func (s SpanID) String() string {
	var b [16]byte
	for i, v := range s {
		b[2*i] = hexDigits[v>>4]
		b[2*i+1] = hexDigits[v&0xf]
	}
	return string(b[:])
}

// IsZero reports whether the SpanID is the invalid all-zero SpanID.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// Span is one timed phase inside a Trace. Offsets are nanoseconds since
// the trace start (monotonic clock).
type Span struct {
	// Name is the phase name ("decode", "wal-append", "deliver", ...).
	Name string `json:"name"`
	// StartNs is the span start as nanoseconds since trace start.
	StartNs int64 `json:"start_ns"`
	// EndNs is the span end as nanoseconds since trace start.
	EndNs int64 `json:"end_ns"`
	// Epoch is the session epoch the span belongs to, or 0.
	Epoch int64 `json:"epoch,omitempty"`
	// Note carries optional free-form detail (session key, subscriber id).
	Note string `json:"note,omitempty"`
}

// maxSpans bounds the per-trace span slice so a trace with thousands of
// subscribers cannot grow without limit; overflow is counted in Dropped.
const maxSpans = 64

// Trace is one sampled request or epoch timeline. All methods are safe
// on a nil receiver (no-ops), which is how the unsampled hot path stays
// allocation-free, and safe for concurrent use: late spans may attach
// after the trace is published to the ring.
type Trace struct {
	mu      sync.Mutex
	id      ID
	root    SpanID
	parent  SpanID
	kind    string
	start   time.Time // carries a monotonic reading
	endNs   int64     // 0 until Finish
	remote  bool      // joined a caller's trace (propagated context)
	forced  bool      // retro-sampled because the request was slow
	spans   []Span
	dropped int
}

// ID returns the trace ID, or the zero ID on a nil receiver.
func (t *Trace) ID() ID {
	if t == nil {
		return ID{}
	}
	t.mu.Lock()
	id := t.id
	t.mu.Unlock()
	return id
}

// Root returns the root span ID, or the zero SpanID on a nil receiver.
func (t *Trace) Root() SpanID {
	if t == nil {
		return SpanID{}
	}
	t.mu.Lock()
	s := t.root
	t.mu.Unlock()
	return s
}

// Clock returns nanoseconds elapsed since the trace started, using the
// monotonic clock. On a nil receiver it returns 0, so call sites can
// stamp offsets unconditionally. The start is read under the trace's
// lock: a late caller may hold a trace the recorder is recycling.
func (t *Trace) Clock() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	start := t.start
	t.mu.Unlock()
	return int64(time.Since(start))
}

// Span appends a completed span with the given name and [startNs, endNs]
// offsets (as returned by Clock). No-op on a nil receiver.
func (t *Trace) Span(name string, startNs, endNs int64) {
	t.span(Span{Name: name, StartNs: startNs, EndNs: endNs})
}

// EpochSpan appends a completed span tagged with a session epoch.
// No-op on a nil receiver.
func (t *Trace) EpochSpan(name string, epoch int64, startNs, endNs int64) {
	t.span(Span{Name: name, StartNs: startNs, EndNs: endNs, Epoch: epoch})
}

// NoteSpan appends a completed span with a free-form note (session key,
// subscriber identity). No-op on a nil receiver.
func (t *Trace) NoteSpan(name, note string, startNs, endNs int64) {
	t.span(Span{Name: name, StartNs: startNs, EndNs: endNs, Note: note})
}

// EpochNoteSpan appends a completed span with both an epoch tag and a
// note. No-op on a nil receiver.
func (t *Trace) EpochNoteSpan(name, note string, epoch int64, startNs, endNs int64) {
	t.span(Span{Name: name, StartNs: startNs, EndNs: endNs, Epoch: epoch, Note: note})
}

func (t *Trace) span(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// View is an immutable copy of a Trace taken under its lock, safe to
// render after the original has been recycled.
type View struct {
	// TraceID is the 32-hex-digit trace ID.
	TraceID string `json:"trace_id"`
	// SpanID is the root span ID for this process's part of the trace.
	SpanID string `json:"span_id"`
	// ParentSpanID is the caller's span ID for joined traces, "" otherwise.
	ParentSpanID string `json:"parent_span_id,omitempty"`
	// Kind names what was traced ("mutate", "batch", "epoch", ...).
	Kind string `json:"kind"`
	// Start is the wall-clock start time.
	Start time.Time `json:"start"`
	// DurationNs is Finish-Start in nanoseconds (0 if unfinished).
	DurationNs int64 `json:"duration_ns"`
	// Remote marks traces joined from a caller's propagated context.
	Remote bool `json:"remote,omitempty"`
	// Forced marks traces retro-sampled by the slow-request path.
	Forced bool `json:"forced,omitempty"`
	// Spans lists the recorded phases, in append order.
	Spans []Span `json:"spans"`
	// DroppedSpans counts spans discarded past the per-trace cap.
	DroppedSpans int `json:"dropped_spans,omitempty"`
}

// view snapshots the trace under its lock.
func (t *Trace) view() View {
	t.mu.Lock()
	v := View{
		TraceID: t.id.String(),
		SpanID:  t.root.String(),
		Kind:    t.kind,

		Start:        t.start,
		DurationNs:   t.endNs,
		Remote:       t.remote,
		Forced:       t.forced,
		Spans:        append([]Span(nil), t.spans...),
		DroppedSpans: t.dropped,
	}
	if !t.parent.IsZero() {
		v.ParentSpanID = t.parent.String()
	}
	t.mu.Unlock()
	return v
}

// Recorder samples traces and retains the most recent ones in a
// lock-free ring buffer. The zero Recorder is unusable; use NewRecorder.
type Recorder struct {
	every atomic.Int64  // sample 1 in N starts; 0 disables sampling
	ticks atomic.Uint64 // start counter driving the 1-in-N decision
	rng   atomic.Uint64 // splitmix64 state for ID generation
	seq   atomic.Uint64 // next ring slot
	ring  []atomic.Pointer[Trace]
	pool  sync.Pool

	// Started counts sampled or forced traces handed out.
	Started atomic.Uint64
	// Finished counts traces published to the ring.
	Finished atomic.Uint64
}

// DefaultRing is the ring capacity used when NewRecorder is given a
// non-positive size.
const DefaultRing = 256

// NewRecorder returns a Recorder sampling 1 in sampleEvery Start calls
// (0 or negative disables sampling; forced traces still work) and
// retaining the last ringSize finished traces.
func NewRecorder(sampleEvery, ringSize int) *Recorder {
	if ringSize <= 0 {
		ringSize = DefaultRing
	}
	r := &Recorder{ring: make([]atomic.Pointer[Trace], ringSize)}
	r.every.Store(int64(sampleEvery))
	r.rng.Store(uint64(time.Now().UnixNano()) | 1)
	r.pool.New = func() any { return &Trace{spans: make([]Span, 0, 16)} }
	return r
}

// SetSampleEvery changes the sampling rate to 1 in n Start calls
// (n <= 0 disables sampling).
func (r *Recorder) SetSampleEvery(n int) { r.every.Store(int64(n)) }

// SampleEvery returns the current 1-in-N sampling rate (0 = disabled).
func (r *Recorder) SampleEvery() int { return int(r.every.Load()) }

// splitmix64 advances the recorder's ID stream.
func (r *Recorder) splitmix64() uint64 {
	x := r.rng.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// newID generates a fresh non-zero trace ID.
func (r *Recorder) newID() (id ID) {
	for id.IsZero() {
		a, b := r.splitmix64(), r.splitmix64()
		for i := 0; i < 8; i++ {
			id[i] = byte(a >> (8 * i))
			id[8+i] = byte(b >> (8 * i))
		}
	}
	return id
}

// NewSpanID generates a fresh non-zero span ID, for callers that need
// to mint a child span ID when propagating context downstream.
func (r *Recorder) NewSpanID() (s SpanID) {
	for s.IsZero() {
		v := r.splitmix64()
		for i := 0; i < 8; i++ {
			s[i] = byte(v >> (8 * i))
		}
	}
	return s
}

// Start begins a trace of the given kind if this call wins the 1-in-N
// sampling draw, and returns nil otherwise. The nil return is the
// common case and costs one atomic load and one atomic add.
func (r *Recorder) Start(kind string) *Trace {
	n := r.every.Load()
	if n <= 0 {
		return nil
	}
	if n > 1 && r.ticks.Add(1)%uint64(n) != 0 {
		return nil
	}
	return r.start(kind, r.newID(), SpanID{}, false, false)
}

// StartForced begins a trace unconditionally, bypassing sampling. The
// slow-request path uses it to retro-sample requests that crossed the
// slow threshold (always-sample-on-slow).
func (r *Recorder) StartForced(kind string) *Trace {
	return r.start(kind, r.newID(), SpanID{}, false, true)
}

// Join begins a trace that continues a caller's propagated context
// (traceparent header or binary trace-extension frame). The caller's
// sampled flag has already been honored upstream: Join always records.
func (r *Recorder) Join(kind string, id ID, parent SpanID) *Trace {
	if id.IsZero() {
		return r.StartForced(kind)
	}
	return r.start(kind, id, parent, true, false)
}

func (r *Recorder) start(kind string, id ID, parent SpanID, remote, forced bool) *Trace {
	t := r.pool.Get().(*Trace)
	t.mu.Lock()
	t.id = id
	t.root = r.NewSpanID()
	t.parent = parent
	t.kind = kind
	t.start = time.Now()
	t.endNs = 0
	t.remote = remote
	t.forced = forced
	t.spans = t.spans[:0]
	t.dropped = 0
	t.mu.Unlock()
	r.Started.Add(1)
	return t
}

// StartAt is StartForced with an explicit start time, for synthesizing
// a trace after the fact from phase timings already measured (the slow
// path learns a request was slow only once it has finished).
func (r *Recorder) StartAt(kind string, start time.Time) *Trace {
	t := r.start(kind, r.newID(), SpanID{}, false, true)
	t.mu.Lock()
	t.start = start
	t.mu.Unlock()
	return t
}

// Finish stamps the trace duration and publishes it into the ring.
// No-op when t is nil. The trace remains append-able after Finish so
// late delivery spans can attach; the evicted ring occupant is recycled
// through the pool.
func (r *Recorder) Finish(t *Trace) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.endNs = int64(time.Since(t.start))
	t.mu.Unlock()
	slot := (r.seq.Add(1) - 1) % uint64(len(r.ring))
	old := r.ring[slot].Swap(t)
	r.Finished.Add(1)
	if old != nil {
		r.pool.Put(old)
	}
}

// Abandon returns an unpublished trace to the pool without recording
// it. No-op when t is nil.
func (r *Recorder) Abandon(t *Trace) {
	if t == nil {
		return
	}
	r.pool.Put(t)
}

// Snapshot copies the ring's current traces, newest first. Each trace
// is copied under its own lock, so the result is safe to render while
// recording continues.
func (r *Recorder) Snapshot() []View {
	n := len(r.ring)
	out := make([]View, 0, n)
	seq := r.seq.Load()
	for i := 0; i < n; i++ {
		// Walk backwards from the most recently written slot.
		slot := (seq + uint64(n) - 1 - uint64(i)) % uint64(n)
		t := r.ring[slot].Load()
		if t == nil {
			continue
		}
		out = append(out, t.view())
	}
	return out
}

// Lookup returns the view of the ring trace with the given hex trace
// ID, or false if it has been evicted.
func (r *Recorder) Lookup(hexID string) (View, bool) {
	for i := range r.ring {
		t := r.ring[i].Load()
		if t != nil && t.ID().String() == hexID {
			return t.view(), true
		}
	}
	return View{}, false
}
