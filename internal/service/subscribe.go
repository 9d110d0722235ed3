package service

// Epoch-delta push (DESIGN.md §13): POST /v1/plan:subscribe attaches a
// client to a dynamic mutation session and streams every subsequent
// epoch's slot changes, so sensors learn reassignments without polling.
// Each session carries a subHub — a set of bounded per-subscriber
// queues. mutateCore publishes one immutable Delta per applied batch
// under the session lock (so subscribers observe epochs in order), and
// publishing never blocks: a subscriber whose queue is full is dropped
// on the spot and its stream ends with a "resync required" terminal
// frame. A subscriber arriving with a stale epoch is caught up from the
// persisted WAL (§12) when the gap is covered, and answered with a full
// resync snapshot otherwise. Lock order: sess.mu → subHub.mu (publish
// runs under the session lock; detach takes only the hub lock), and
// table.mu is never held with either.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tilingsched/internal/core"
	"tilingsched/internal/lattice"
	"tilingsched/internal/obs/trace"
	"tilingsched/internal/service/binwire"
)

const (
	// DefaultSubscribeQueue is a subscriber's delta-queue depth when
	// ServerOptions leaves SubscribeQueue zero: the number of epochs a
	// slow consumer may lag before it is dropped to a resync.
	DefaultSubscribeQueue = 256
	// DefaultMaxSubscribers bounds the subscribers attached to one
	// session when ServerOptions leaves MaxSubscribers zero.
	DefaultMaxSubscribers = 1024
)

// Subscriber terminal-frame reasons (the Bye text of the ending delta).
const (
	byeSlow    = "resync required: subscriber queue overflow"
	byeEvicted = "resync required: session evicted"
)

// SubscribeRequest is the body of POST /v1/plan:subscribe. The
// (plan, window) pair names the mutation session exactly as in
// MutateRequest. Epoch, when non-nil, is the last epoch the client has
// applied: the stream resumes from there (WAL catch-up) when the gap is
// covered, and opens with a full resync delta otherwise. A nil epoch
// always opens with a full resync delta.
type SubscribeRequest struct {
	Plan   PlanSpec   `json:"plan"`
	Window WindowSpec `json:"window"`
	Epoch  *uint64    `json:"epoch,omitempty"`
}

// SubscribeHello is the first element of a subscription stream: the
// session's identity and its epoch, slot count m, and live count at
// attach time. Every delta that follows has a strictly larger epoch
// (after any catch-up deltas, which close the gap up to Epoch).
type SubscribeHello struct {
	Signature string `json:"signature"`
	Epoch     uint64 `json:"epoch"`
	M         int    `json:"m"`
	Alive     int    `json:"alive"`
}

// SubscribeDelta is one pushed stream element: the slot changes that
// take a copy of the assignment from the previous epoch to Epoch. Full
// marks a resync delta — Changed is the complete live assignment and
// replaces the copy instead of patching it. A non-empty Bye terminates
// the stream: the server stopped pushing (slow-consumer drop, session
// eviction) and the client must reconnect and resync.
type SubscribeDelta struct {
	Epoch   uint64       `json:"epoch"`
	M       int          `json:"m"`
	Alive   int          `json:"alive"`
	Full    bool         `json:"full,omitempty"`
	Changed []ChangeSpec `json:"changed"`
	Bye     string       `json:"bye,omitempty"`
}

// Delta is the fan-out unit of the push plane: one epoch's slot changes
// (or, with Full set, a complete assignment snapshot), shared immutably
// by every subscriber queue it is published to. In-process subscribers
// (Server.Subscribe) receive *Delta directly; the wire handler's codec
// renders it as a SubscribeDelta line or a FrameDelta frame.
type Delta struct {
	// Epoch is the session epoch this delta produces.
	Epoch uint64
	// M and Alive are the plan's slot count m and the post-epoch
	// live-sensor count.
	M, Alive int
	// Full marks a resync snapshot: Changed is the complete live
	// assignment and replaces the subscriber's copy.
	Full bool
	// Changed is the slot-change set (Slot -1 marks a departure). The
	// slice and its points are shared across subscribers: read-only.
	Changed []ChangeSpec
	// PubTime is the wall-clock instant the delta was published to the
	// hub — the base of the propagation-latency measurement. Zero on
	// catch-up and resync deltas, which were never fanned out live.
	PubTime time.Time

	// trace is the mutate request's sampled trace, when it drew one:
	// each subscriber delivery appends a deliver span to it, completing
	// the mutate→WAL→publish→deliver span tree (DESIGN.md §14). A very
	// late delivery may stamp a trace the ring has since recycled —
	// race-safe (the trace's own mutex covers the append) and benign
	// for debug tooling, documented rather than defended against.
	trace *trace.Trace
	// pubNs is the publish stamp on the trace's monotonic clock, the
	// deliver span's start.
	pubNs int64
}

// subscriber is one attached stream: a bounded delta queue plus the
// terminal reason. reason is written under the hub lock strictly before
// ch is closed, so a receiver that observed the close may read it
// without further synchronization. It lives inside its Subscription, so
// a feed is one object.
type subscriber struct {
	ch     chan *Delta
	reason string
	// slot is the subscriber's index in its hub's dense slice while
	// attached, -1 once detached, dropped or closed. Guarded by the hub
	// lock.
	slot int
	// seq is the server-wide attach sequence number; deliver spans name
	// the subscriber "sub-<seq>".
	seq uint64
	// lastEpoch is the latest epoch the relay has delivered (attach
	// epoch until then); lastPubNs the publish wall-clock of the latest
	// live delta delivered (0 until one arrives). Both feed the lag
	// watermarks (/statusz, metrics) — written by the relay goroutine,
	// read by the cold statusz/scrape path, hence atomics.
	lastEpoch atomic.Uint64
	lastPubNs atomic.Int64
	// delivered counts live deliveries for propagation-histogram
	// decimation. Only the subscriber's own consumer (the relay
	// goroutine or the in-process Mark caller) touches it, so it is a
	// plain field, not an atomic.
	delivered uint64
}

// propSampleMask decimates shared propagation-histogram records to one
// in eight deliveries per subscriber: the histogram's three shared
// atomics would otherwise serialize fan-out at 10k+ subscribers, while
// one-in-eight keeps quantile estimates stable at any realistic rate.
// Traced deltas always record, so exemplars stay coherent. The per-
// subscriber lag marks are exact regardless — they are uncontended.
const propSampleMask = 7

// subHub is a session's subscriber set: a dense slice in attach order
// (reordered by removals), each entry carrying its queue inline so
// publish reads one slice front to back. Attach and publish run under
// the owning session's mutex (hub lock nested inside), so a subscriber
// can never miss the epoch it attached at; detach takes only the hub
// lock, so a disconnecting client never touches the mutate path.
type subHub struct {
	mu   sync.Mutex
	subs []hubEntry
}

// hubEntry is one attached subscriber: its queue, and the subscriber
// itself, which publish touches only to drop it.
type hubEntry struct {
	ch  chan *Delta
	sub *subscriber
}

// attach adds sub unless the session already has max subscribers.
func (h *subHub) attach(sub *subscriber, max int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.subs) >= max {
		return false
	}
	sub.slot = len(h.subs)
	h.subs = append(h.subs, hubEntry{ch: sub.ch, sub: sub})
	return true
}

// removeLocked swap-removes the entry at i: the last entry moves into
// slot i. Caller holds h.mu.
func (h *subHub) removeLocked(i int) {
	h.subs[i].sub.slot = -1
	last := len(h.subs) - 1
	if i != last {
		h.subs[i] = h.subs[last]
		h.subs[i].sub.slot = i
	}
	h.subs[last] = hubEntry{}
	h.subs = h.subs[:last]
}

// detach removes sub if still attached (false when the hub already
// dropped or closed it). It never closes the channel — the hub owns
// closes, the streamer owns detach.
func (h *subHub) detach(sub *subscriber) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sub.slot
	if i < 0 || i >= len(h.subs) || h.subs[i].sub != sub {
		return false
	}
	h.removeLocked(i)
	return true
}

// active reports whether any subscriber is attached — the mutate path's
// cheap pre-check before it builds a Delta.
func (h *subHub) active() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs) > 0
}

// publish hands d to every subscriber without ever blocking: a full
// queue means the subscriber cannot keep up, so it is dropped on the
// spot (reason set, channel closed) rather than stalling the mutation
// pipeline. A drop moves the last entry into the dropped slot, which is
// visited next. Returns the deliveries and drops.
func (h *subHub) publish(d *Delta) (delivered, dropped int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := 0; i < len(h.subs); {
		select {
		case h.subs[i].ch <- d:
			delivered++
			i++
		default:
			sub := h.subs[i].sub
			sub.reason = byeSlow
			close(sub.ch)
			h.removeLocked(i)
			dropped++
		}
	}
	return delivered, dropped
}

// closeAll terminates every subscriber with the given reason (session
// eviction) and returns how many were closed.
func (h *subHub) closeAll(reason string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := len(h.subs)
	for _, e := range h.subs {
		e.sub.slot = -1
		e.sub.reason = reason
		close(e.ch)
	}
	h.subs = nil
	return n
}

// DecodeSubscribeRequest parses a subscribe request body and enforces
// its structural contract: valid JSON and a well-formed window within
// lim.MaxWindow points. It is the JSON decoding funnel of the subscribe
// endpoint (fuzzed by FuzzDecodeSubscribeRequest) under the same
// never-panic contract as DecodeMutateRequest. Violations wrap ErrSpec
// (400) or ErrLimit (413).
func DecodeSubscribeRequest(data []byte, lim Limits) (SubscribeRequest, lattice.Window, error) {
	lim = lim.withDefaults()
	var req SubscribeRequest
	if err := json.Unmarshal(data, &req); err != nil {
		return SubscribeRequest{}, lattice.Window{}, fmt.Errorf("%w: decoding request: %v", ErrSpec, err)
	}
	win, err := req.Window.bounded(lim.MaxWindow)
	if err != nil {
		return SubscribeRequest{}, lattice.Window{}, err
	}
	return req, win, nil
}

// Subscription is an in-process subscriber feed (Server.Subscribe): the
// attach-time hello, any catch-up deltas that close the gap from the
// requested epoch, and the live delta channel. C closes when the server
// stops pushing (slow-consumer drop or session eviction); Reason then
// says why. Callers that stop reading must Close, or the feed lingers
// until the hub drops it as slow.
type Subscription struct {
	// Hello is the session state at attach time.
	Hello SubscribeHello
	// Catch holds the deltas that bring a stale subscriber from its
	// requested epoch up to Hello.Epoch, oldest first (nil when the
	// subscriber attached current). Apply them before reading C.
	Catch []*Delta
	// C delivers every epoch published after Hello.Epoch, in order.
	C <-chan *Delta

	// sub is the feed's hub state; the hub entry points here.
	sub    subscriber
	sess   *dynSession
	srv    *Server
	closed bool
}

// Mark records one delivered delta for this feed: lag-watermark
// bookkeeping, the propagation-latency histogram, and the delta's
// deliver span. The wire relays call it per send; in-process consumers
// (embedders, the push bench) should call it per received delta so
// /statusz lag watermarks cover them too. Harmless to skip — the feed
// still works, it just reads as lagging.
func (f *Subscription) Mark(d *Delta) { f.srv.markDelivered(&f.sub, d) }

// markDelivered is the delivery bookkeeping behind Subscription.Mark:
// advance the subscriber's lag marks, then record the delivery.
func (s *Server) markDelivered(sub *subscriber, d *Delta) {
	sub.advance(d)
	s.recordDelivery(sub, d)
}

// advance moves the subscriber's lag watermarks to d. The wire relay
// calls it before writing d, so a client that has decoded d can never
// read /statusz behind it (DESIGN.md §14).
func (sub *subscriber) advance(d *Delta) {
	sub.lastEpoch.Store(d.Epoch)
	if !d.PubTime.IsZero() { // catch-up and resync deltas were never fanned out live
		sub.lastPubNs.Store(d.PubTime.UnixNano())
	}
}

// recordDelivery records propagation latency for a delivered live delta
// and completes the publishing trace's span tree with a deliver span.
func (s *Server) recordDelivery(sub *subscriber, d *Delta) {
	if d.PubTime.IsZero() {
		return
	}
	n := sub.delivered
	sub.delivered = n + 1
	if d.trace == nil && n&propSampleMask != 0 {
		return
	}
	lat := time.Since(d.PubTime)
	s.met.propagationNs.Record(uint64(lat))
	if d.trace != nil {
		note := "sub-" + strconv.FormatUint(sub.seq, 10)
		d.trace.EpochNoteSpan("deliver", note, int64(d.Epoch), d.pubNs, d.trace.Clock())
		s.met.recordExemplar(&PropExemplar{
			TraceID: d.trace.ID().String(), Epoch: d.Epoch, LatencyNs: int64(lat)})
	}
}

// Reason returns why the feed ended ("" while C is open). Valid only
// after a receive from C observed it closed.
func (f *Subscription) Reason() string { return f.sub.reason }

// Close detaches the feed. Idempotent; safe concurrently with the
// server dropping the feed on its own.
func (f *Subscription) Close() {
	f.sess.hub.detach(&f.sub)
	if !f.closed {
		f.closed = true
		f.srv.met.subsLive.Add(-1)
	}
}

// Subscribe attaches an in-process subscriber to the mutation session
// for (plan, window) — the push plane without HTTP framing, for
// embedders and the push benchmarks. epoch has SubscribeRequest.Epoch
// semantics (nil: open with a full resync delta). The returned feed
// must be Closed when done.
func (s *Server) Subscribe(spec PlanSpec, ws WindowSpec, epoch *uint64) (*Subscription, error) {
	plan, err := s.reg.GetSpec(spec)
	if err != nil {
		return nil, err
	}
	win, err := ws.Window()
	if err == nil {
		err = checkDim(plan, win.Dim(), "window")
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSpec, err)
	}
	var e uint64
	if epoch != nil {
		e = *epoch
	}
	feed, _, err := s.subscribeAttach(plan, win, epoch != nil, e)
	return feed, err
}

// subscribeAttach resolves the live session for (plan, win), attaches a
// subscriber, and computes the catch-up deltas for the client's epoch:
// none when current, per-epoch WAL replays when the persisted log
// covers the gap, one full resync delta otherwise (unknown or future
// epoch, no persistence, gap not covered). On failure the returned
// status is the HTTP answer (503 when the session's subscriber cap is
// reached, 500 on a session-table failure).
func (s *Server) subscribeAttach(plan *core.Plan, win lattice.Window, hasEpoch bool, epoch uint64) (*Subscription, int, error) {
	maxSubs := s.opts.MaxSubscribers
	queue := s.opts.SubscribeQueue
	for {
		sess, err := s.sessions.lock(plan, win)
		if err != nil {
			return nil, http.StatusInternalServerError, err
		}
		feed := &Subscription{sess: sess, srv: s}
		sub := &feed.sub
		sub.ch = make(chan *Delta, queue)
		sub.seq = s.subSeq.Add(1)
		if !sess.hub.attach(sub, maxSubs) {
			sess.mu.Unlock()
			return nil, http.StatusServiceUnavailable,
				fmt.Errorf("session has %d subscribers (limit): retry or raise MaxSubscribers", maxSubs)
		}
		cur := sess.epoch
		sub.lastEpoch.Store(cur)
		feed.Hello = SubscribeHello{Signature: plan.Signature(), Epoch: cur,
			M: plan.Slots(), Alive: sess.live.alive}
		feed.C = sub.ch
		needWAL := false
		switch {
		case hasEpoch && epoch == cur:
			// Current: the stream resumes with the next published delta.
		case hasEpoch && epoch < cur && sess.disk != nil:
			// Stale with a persisted history: try the WAL outside the
			// session lock (reading files under it would stall mutators).
			needWAL = true
		default:
			// Unknown base (no epoch, future epoch, or no persisted
			// history): full resync, captured under the lock so it is
			// exactly the assignment at cur.
			feed.Catch = []*Delta{fullDeltaLocked(sess)}
			s.met.subResyncs.Inc()
		}
		sess.mu.Unlock()
		if needWAL {
			deltas, ok := s.sessions.store.catchUp(plan, win, epoch, cur)
			if ok {
				feed.Catch = deltas
				s.met.subCatchups.Inc()
			} else {
				// Gap not covered (snapshot past the client's epoch, torn
				// tail, rotated log): fall back to a full resync. The
				// session may have moved on — or been evicted — since the
				// attach; re-take the lock and re-stamp the hello.
				sess.mu.Lock()
				if sess.gone {
					sess.mu.Unlock()
					sess.hub.detach(sub)
					continue
				}
				feed.Hello.Epoch = sess.epoch
				sub.lastEpoch.Store(sess.epoch)
				feed.Hello.Alive = sess.live.alive
				feed.Catch = []*Delta{fullDeltaLocked(sess)}
				sess.mu.Unlock()
				s.met.subResyncs.Inc()
			}
		}
		s.met.subsTotal.Inc()
		s.met.subsLive.Add(1)
		return feed, http.StatusOK, nil
	}
}

// fullDeltaLocked captures a resync delta — the complete live
// assignment at the session's current epoch. Caller holds sess.mu.
func fullDeltaLocked(sess *dynSession) *Delta {
	return &Delta{Epoch: sess.epoch, M: sess.plan.Slots(), Alive: sess.live.alive, Full: true,
		Changed: sess.live.appendAssignment(make([]ChangeSpec, 0, sess.live.alive), sess.plan)}
}

// handleSubscribe opens a push stream in either codec: decode the
// request, attach to the session, answer the hello plus any catch-up
// deltas, then relay published deltas until the client leaves or the
// server terminates the stream (slow drop, eviction) with a bye.
// Failures before the stream opens answer the codec's error form; a
// stream that fails mid-flight just ends (binary: without End, the
// client's truncation signal, as on the batch path).
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request, c codec, tr *reqTrace) {
	buf, body, ok := s.readBody(w, r, c, tr)
	if !ok {
		return
	}
	req, err := c.decodeSubscribe(body, s.limits())
	// Neither codec's decoded request aliases the body, so the pooled
	// buffer goes back now rather than after the stream ends.
	s.putBuf(buf)
	if err != nil {
		c.writeErr(w, wireStatus(err), err.Error())
		return
	}
	plan, ok := s.resolvePlan(w, c, tr, req.Plan)
	if !ok {
		return
	}
	if err := checkDim(plan, req.Window.Dim(), "window"); err != nil {
		c.writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	// Decode is a subscription's only phase: the stream is not one.
	tr.phase(noPhase)
	feed, status, err := s.subscribeAttach(plan, req.Window, req.HasEpoch, req.Epoch)
	if err != nil {
		c.writeErr(w, status, err.Error())
		return
	}
	defer feed.Close()

	// The stream outlives any server-level write timeout; clear the
	// deadline for this response (best effort — recorders without
	// deadline support still stream) and flush per element so idle
	// sensors see each epoch as it happens.
	rc := http.NewResponseController(w)
	_ = rc.SetWriteDeadline(time.Time{})
	w.Header().Set("Content-Type", c.streamType())
	w.WriteHeader(http.StatusOK)
	// send encodes one element into a pooled buffer and writes it out.
	// The buffer goes straight back, so an idle stream pins none.
	send := func(encode func(e *binwire.Buffer)) bool {
		e := binwire.Get()
		defer binwire.Put(e)
		encode(e)
		_, err := w.Write(e.Bytes())
		return err == nil && rc.Flush() == nil
	}
	last := feed.Hello.Epoch
	deliver := func(d *Delta) bool {
		// The watermark moves before any of d's bytes can reach the
		// client; a failed write ends the stream and detaches the
		// subscriber, so the early mark never outlives a lost delta.
		feed.sub.advance(d)
		if !send(func(e *binwire.Buffer) { c.delta(e, d) }) {
			return false
		}
		s.recordDelivery(&feed.sub, d)
		last = max(last, d.Epoch)
		return true
	}
	if !send(func(e *binwire.Buffer) { c.hello(e, feed.Hello) }) {
		return
	}
	// The stream drops its catch-up deltas as it sends them, so an idle
	// stream pins none (a full resync is the whole live assignment).
	catch := feed.Catch
	feed.Catch = nil
	for i, d := range catch {
		catch[i] = nil
		if !deliver(d) {
			return
		}
	}
	tr.batch = len(catch)
	ctx := r.Context()
	for {
		select {
		case d, open := <-feed.C:
			if !open {
				send(func(e *binwire.Buffer) { c.bye(e, last, feed.Reason()) })
				return
			}
			// Skip deltas the catch-up already covered (published while
			// the WAL fallback re-snapshotted at a later epoch).
			if !d.Full && d.Epoch <= last {
				continue
			}
			if !deliver(d) {
				return
			}
			tr.batch++
		case <-ctx.Done():
			return
		}
	}
}

// ndjsonContentType is the JSON subscription stream's content type:
// one JSON value per line (hello, then deltas).
const ndjsonContentType = "application/x-ndjson"

// deltaWire renders a fan-out delta as its JSON stream element.
func deltaWire(d *Delta) SubscribeDelta {
	return SubscribeDelta{Epoch: d.Epoch, M: d.M, Alive: d.Alive, Full: d.Full, Changed: d.Changed}
}
