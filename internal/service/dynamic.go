package service

// Dynamic-deployment sessions. A session is a mutable deployment — a
// compiled plan restricted to a window, churned by Join/Leave/Move/Fail
// events — identified by the plan's canonical core.Signature plus the
// window, and versioned by an epoch that increments once per applied
// mutation batch. Its whole state is its live set (liveset.go): every
// live sensor holds its Theorem 1 slot plan.SlotOf(p). Clients track
// churn by applying the delta responses (changed slot assignments) in
// epoch order; an epoch mismatch means missed deltas, answered with 409
// so the client resyncs with a full snapshot request.
//
// Sessions live in a small LRU (they carry per-sensor state, unlike the
// immutable plans of the Registry); each is guarded by its own mutex, so
// mutations on different deployments proceed concurrently while one
// deployment's events serialize.

import (
	"container/list"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"tilingsched/internal/core"
	"tilingsched/internal/dynamic"
	"tilingsched/internal/lattice"
)

// DefaultMaxSessions bounds the dynamic-session LRU when ServerOptions
// leaves it zero. Sessions hold O(window) state (a live bit per window
// point), so the bound is deliberately far below the plan cache's.
const DefaultMaxSessions = 16

// sessionTable is the LRU of live dynamic sessions. Lookup and eviction
// hold the table lock; event application holds only the session lock,
// and counts into the metrics registry without any table lock.
//
// Persistence makes per-key ordering load-bearing: a session's on-disk
// WAL and snapshot are renamed over by first-open, periodic snapshots,
// and eviction flushes, so two goroutines touching the same key's files
// concurrently can strand a live O_APPEND handle on an unlinked inode —
// silently discarding every subsequent append. The table therefore
// gives a key's files one owner at a time: the live session, or else
// the holder of the key's `busy` barrier — a first open (concurrent
// misses wait instead of racing duplicate opens) or an eviction flush
// (a re-open waits until it has closed the old handle and finished its
// renames).
type sessionTable struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*dynSession
	lru     *list.List // of *dynSession
	met     *Metrics

	// busy holds one channel per key whose files a first open or an
	// eviction flush owns; a miss for the key waits on it. The owner
	// closes (and removes) it when done.
	busy map[string]chan struct{}

	// store, when non-nil, makes sessions durable (DESIGN.md §12):
	// lookups restore evicted sessions from disk, evictions flush dirty
	// ones first. Set by Server.EnablePersistence before traffic.
	store *SessionStore
	// logf receives operational log lines (dirty evictions, persistence
	// recoveries); nil discards them.
	logf func(format string, args ...any)
}

// dynSession is one mutable deployment.
type dynSession struct {
	key  string
	elem *list.Element

	mu    sync.Mutex
	plan  *core.Plan
	live  *liveSet
	epoch uint64
	// disk is the session's WAL handle when persistence is on; nil once
	// the session is gone (appends stop, the files on disk stand).
	disk *sessionDisk
	// gone marks the session ended: evicted (its flush has run or is
	// running) or dropped after a failed WAL append, and the table no
	// longer knows it. A handler holding a stale pointer must look the
	// key up again (sessionTable.lock) instead of mutating an
	// unreachable — and, with persistence on, no-longer-durable — ghost.
	gone bool
	// hub fans applied batches out to this session's push subscribers
	// (DESIGN.md §13). Attaches and publishes run under mu; eviction
	// closes every subscriber so none can hold the ghost session alive.
	hub subHub

	// lastPubNs is the wall-clock nanosecond stamp of the session's most
	// recent hub publish (0 until one happens) — the reference point the
	// subscriber time-behind watermarks are measured against. Atomic so
	// the statusz/scrape path can read it without the session lock.
	lastPubNs atomic.Int64
}

func newSessionTable(capacity int, met *Metrics) *sessionTable {
	if capacity <= 0 {
		capacity = DefaultMaxSessions
	}
	return &sessionTable{
		cap:     capacity,
		entries: make(map[string]*dynSession),
		lru:     list.New(),
		met:     met,
		busy:    make(map[string]chan struct{}),
	}
}

// appendSessionKey appends a session's key, "<signature>|[lo .. hi]", to
// dst: the session table's map key, the text /statusz shows and, hashed,
// the stem of the session's files (SessionStore.paths).
func appendSessionKey(dst []byte, sig string, w lattice.Window) []byte {
	dst = append(dst, sig...)
	dst = append(dst, '|')
	return w.AppendString(dst)
}

// get returns the session for (plan, window), creating it on first use
// with every window point live, which costs one bit per window point.
// With persistence on, a session that was evicted (or predates this
// process) restores from its snapshot + WAL instead of reseeding at
// epoch 0.
func (st *sessionTable) get(plan *core.Plan, w lattice.Window) (*dynSession, error) {
	var buf [128]byte
	key := string(appendSessionKey(buf[:0], plan.Signature(), w))
	for {
		st.mu.Lock()
		if s, ok := st.entries[key]; ok {
			st.lru.MoveToFront(s.elem)
			st.mu.Unlock()
			return s, nil
		}
		// A first open or an eviction flush owns this key's files
		// (snapshot + WAL renames, the old handle); wait for it rather
		// than race its renames with our open, which could leave the
		// published session appending to an unlinked inode.
		ch, busy := st.busy[key]
		if !busy {
			break
		}
		st.mu.Unlock()
		<-ch
	}
	// Build outside the table lock (the costly part): this goroutine
	// owns the key until it publishes the session — concurrent misses
	// wait on the barrier and then find it — so the disk open, restore,
	// and fresh-WAL creation never run twice for one key.
	own := make(chan struct{})
	st.busy[key] = own
	st.mu.Unlock()
	var (
		live  *liveSet
		disk  *sessionDisk
		epoch uint64
	)
	if st.store != nil {
		var err error
		if disk, live, epoch, err = st.store.open(plan, w); err != nil {
			st.release(key)
			return nil, err
		}
	}
	restored := live != nil
	if live == nil {
		live = newLiveSet(w, true)
	}
	s := &dynSession{key: key, plan: plan, live: live, epoch: epoch, disk: disk}
	st.mu.Lock()
	delete(st.busy, key)
	s.elem = st.lru.PushFront(s)
	st.entries[key] = s
	st.met.sessCreated.Inc()
	if restored {
		st.met.sessRestored.Inc()
	}
	var evicted []*dynSession
	for st.lru.Len() > st.cap {
		back := st.lru.Back()
		ev := back.Value.(*dynSession)
		st.lru.Remove(back)
		delete(st.entries, ev.key)
		st.met.sessEvicted.Inc()
		// The eviction barrier goes up in the same critical section that
		// removes the key, so a miss for it can never slip between
		// removal and the flush.
		st.busy[ev.key] = make(chan struct{})
		evicted = append(evicted, ev)
	}
	st.met.sessLive.Set(int64(st.lru.Len()))
	st.mu.Unlock()
	close(own)
	// The eviction flush needs the evicted session's lock, which is never
	// taken under the table lock: table.mu is held with no other lock.
	for _, ev := range evicted {
		st.finishEvict(ev)
	}
	return s, nil
}

// finishEvict completes an eviction outside the table lock: a dirty
// session (epoch > 0) is counted and logged, and — with persistence on —
// flushed to a snapshot before its WAL handle is released. Taking the
// session lock first means an in-flight mutate on the evicted session
// finishes (and lands in the flush) before the handle goes away; marking
// the session gone sends later stale-pointer mutates back through lock.
// Closing the hub in the same critical section terminates every
// subscriber stream with a resync-required Bye — a subscriber must never
// hold a flushed ghost session alive, and once gone is set no new
// subscriber can attach (sessionTable.lock skips it). Only then does the
// eviction barrier come down, so a re-open for the key reads the
// flushed files with no live handle left behind.
func (st *sessionTable) finishEvict(s *dynSession) {
	s.mu.Lock()
	s.gone = true
	dirty := s.epoch > 0
	epoch := s.epoch
	if s.disk != nil {
		if dirty {
			if err := s.disk.snapshot(s.plan, s.live, s.epoch); err != nil {
				st.logfSafe("latticed: flushing evicted session %s: %v", s.key, err)
			}
		}
		s.disk.close()
		s.disk = nil
	}
	subsClosed := s.hub.closeAll(byeEvicted)
	s.mu.Unlock()
	st.release(s.key)
	if subsClosed > 0 {
		st.met.subsEvicted.Add(uint64(subsClosed))
		st.logfSafe("latticed: evicted session %s: terminated %d subscriber(s) at epoch %d",
			s.key, subsClosed, epoch)
	}
	if dirty {
		st.met.sessEvictedDirty.Inc()
		st.logfSafe("latticed: evicted dirty session %s at epoch %d", s.key, epoch)
	}
}

// release ends the first open or eviction flush that owns key's files
// and wakes the misses waiting on it.
func (st *sessionTable) release(key string) {
	st.mu.Lock()
	ch := st.busy[key]
	delete(st.busy, key)
	st.mu.Unlock()
	close(ch)
}

// lock returns the live session for (plan, w) with its lock held. A
// session evicted between lookup and lock has been flushed and its hub
// closed, and the table no longer knows it, so anything done to it
// would be unreachable (and, with persistence on, not durable): lock
// looks up its live successor instead.
func (st *sessionTable) lock(plan *core.Plan, w lattice.Window) (*dynSession, error) {
	for {
		s, err := st.get(plan, w)
		if err != nil {
			return nil, err
		}
		s.mu.Lock()
		if !s.gone {
			return s, nil
		}
		s.mu.Unlock()
	}
}

// drop ends a session whose WAL append failed, with s.mu held, and
// releases the lock. It goes like an eviction but without a flush: the
// WAL handle closes, subscribers get a resync bye, and the table
// forgets the session, so the next lookup restores the last durable
// epoch instead of serving the lost batch's epoch again.
func (st *sessionTable) drop(s *dynSession) {
	s.gone = true
	s.disk.close()
	s.disk = nil
	subsClosed := s.hub.closeAll(byeEvicted)
	s.mu.Unlock()
	st.mu.Lock()
	if st.entries[s.key] == s {
		st.lru.Remove(s.elem)
		delete(st.entries, s.key)
		st.met.sessLive.Set(int64(st.lru.Len()))
	}
	st.mu.Unlock()
	st.met.subsEvicted.Add(uint64(subsClosed))
}

// flushAll snapshots every live dirty session to the data directory
// (graceful shutdown); sessions stay live and keep their WAL handles.
// Returns the number of sessions flushed.
func (st *sessionTable) flushAll() int {
	st.mu.Lock()
	live := make([]*dynSession, 0, st.lru.Len())
	for e := st.lru.Front(); e != nil; e = e.Next() {
		live = append(live, e.Value.(*dynSession))
	}
	st.mu.Unlock()
	n := 0
	for _, s := range live {
		s.mu.Lock()
		if s.disk != nil && s.epoch > 0 {
			if err := s.disk.snapshot(s.plan, s.live, s.epoch); err != nil {
				st.logfSafe("latticed: flushing session %s: %v", s.key, err)
			} else {
				n++
			}
		}
		s.mu.Unlock()
	}
	return n
}

// logfSafe logs through the table's sink when one is configured.
func (st *sessionTable) logfSafe(format string, args ...any) {
	if st.logf != nil {
		st.logf(format, args...)
	}
}

// --- Wire types -----------------------------------------------------------

// EventSpec is one deployment mutation over the wire.
type EventSpec struct {
	// Op is "join", "leave", "fail", or "move".
	Op string `json:"op"`
	// P is the position the event acts on.
	P []int `json:"p"`
	// To is the destination of a move.
	To []int `json:"to,omitempty"`
}

// MutateRequest is the body of POST /v1/plan:mutate. The (plan, window)
// pair names the session; Events apply in order. Epoch, when non-nil,
// must match the session's current epoch (optimistic concurrency: a
// client that missed deltas is told to resync instead of applying
// against a stale base). Full requests the complete live assignment in
// the response's Changed list — the resync path — and may carry zero
// events.
type MutateRequest struct {
	Plan   PlanSpec    `json:"plan"`
	Window WindowSpec  `json:"window"`
	Events []EventSpec `json:"events"`
	Epoch  *uint64     `json:"epoch,omitempty"`
	Full   bool        `json:"full,omitempty"`
}

// DisruptionSpec reports a mutate batch's events, joins and departures.
// Sessions never reassign a sensor, so the fields kept from the wire
// form of dynamic.Disruption — Reassigned onwards — are always zero.
type DisruptionSpec struct {
	Events      int  `json:"events"`
	Joined      int  `json:"joined"`
	Departed    int  `json:"departed"`
	Reassigned  int  `json:"reassigned"`
	ColorsDelta int  `json:"colors_delta"`
	FullRecolor bool `json:"full_recolor"`
	Compacted   bool `json:"compacted"`
}

// ChangeSpec is one slot delta: the sensor at P now holds Slot, or has
// departed when Slot is -1.
type ChangeSpec struct {
	P    []int `json:"p"`
	Slot int   `json:"slot"`
}

// MutateResponse answers a mutate request. Epoch is the session's epoch
// after this batch; a client holding epoch E applies Changed to reach E.
// M is the plan's slot count m. On a 409 (stale epoch) the response
// carries the current epoch with no changes, and the Error field says
// why.
type MutateResponse struct {
	Signature  string         `json:"signature"`
	Epoch      uint64         `json:"epoch"`
	M          int            `json:"m"`
	Alive      int            `json:"alive"`
	Disruption DisruptionSpec `json:"disruption"`
	Changed    []ChangeSpec   `json:"changed"`
	Error      string         `json:"error,omitempty"`
}

// DecodeMutateRequest parses a mutate request body and enforces its
// structural contract: valid JSON, a well-formed window within
// lim.MaxWindow points, at most lim.MaxBatch events (MaxBatch bounds
// both point batches and event batches — one knob for per-request work),
// and every event a known op with sane coordinates. It is the decoding
// funnel of the mutate endpoint, shaped like DecodeBatchRequest so the
// same never-panic contract holds for untrusted bytes. Violations wrap
// ErrSpec (400) or ErrLimit (413).
func DecodeMutateRequest(data []byte, lim Limits) (MutateRequest, lattice.Window, []dynamic.Event, error) {
	lim = lim.withDefaults()
	var req MutateRequest
	if err := json.Unmarshal(data, &req); err != nil {
		return MutateRequest{}, lattice.Window{}, nil, fmt.Errorf("%w: decoding request: %v", ErrSpec, err)
	}
	win, err := req.Window.bounded(lim.MaxWindow)
	if err != nil {
		return MutateRequest{}, lattice.Window{}, nil, err
	}
	if len(req.Events) > lim.MaxBatch {
		return MutateRequest{}, lattice.Window{}, nil, fmt.Errorf("%w: %d events exceed limit %d",
			ErrLimit, len(req.Events), lim.MaxBatch)
	}
	if len(req.Events) == 0 && !req.Full {
		return MutateRequest{}, lattice.Window{}, nil, fmt.Errorf("%w: no events and full not requested", ErrSpec)
	}
	// Growth bound: every event position must stay within MutateMargin of
	// the session window, so the live set's band (and the snapshot frame
	// it widens) cannot be exploded by a single far-away join.
	bound := growMargin(win)
	events := make([]dynamic.Event, len(req.Events))
	dim := win.Dim()
	for i, es := range req.Events {
		ev, err := es.event(dim)
		if err != nil {
			return MutateRequest{}, lattice.Window{}, nil, fmt.Errorf("event %d: %w", i, err)
		}
		if !inMargin(bound, ev) {
			return MutateRequest{}, lattice.Window{}, nil, fmt.Errorf("%w: event %d outside the window's %d-cell margin",
				ErrLimit, i, MutateMargin)
		}
		events[i] = ev
	}
	return req, win, events, nil
}

// MutateMargin is how far outside its declared window a session's
// deployment may grow: mutate events beyond window ± MutateMargin are
// rejected (413). It bounds the session's worst-case bounding window —
// and with it snapshot sizes — regardless of event content.
const MutateMargin = 32

// growMargin returns win widened by MutateMargin per axis, on fresh
// corners, with saturating arithmetic: a window corner within
// MutateMargin of the int extremes clamps instead of wrapping, which
// would invert the bound and misclassify every event.
func growMargin(win lattice.Window) lattice.Window {
	bound := lattice.Window{Lo: win.Lo.Clone(), Hi: win.Hi.Clone()}
	for a := range bound.Lo {
		bound.Lo[a] = satAdd(bound.Lo[a], -MutateMargin)
		bound.Hi[a] = satAdd(bound.Hi[a], MutateMargin)
	}
	return bound
}

// inMargin reports whether ev stays within bound (a growMargin window):
// the check of both decode funnels and of the WAL fold.
func inMargin(bound lattice.Window, ev dynamic.Event) bool {
	return bound.Contains(ev.P) && (ev.Kind != dynamic.Move || bound.Contains(ev.To))
}

// satAdd returns a+b clamped to the int range instead of wrapping.
func satAdd(a, b int) int {
	s := a + b
	if b > 0 && s < a {
		return math.MaxInt
	}
	if b < 0 && s > a {
		return math.MinInt
	}
	return s
}

// event validates and converts one wire event.
func (es EventSpec) event(dim int) (dynamic.Event, error) {
	checkPt := func(c []int, what string) (lattice.Point, error) {
		if len(c) != dim {
			return nil, fmt.Errorf("%w: %s has dimension %d, want %d", ErrSpec, what, len(c), dim)
		}
		return lattice.Point(c), nil
	}
	p, err := checkPt(es.P, "p")
	if err != nil {
		return dynamic.Event{}, err
	}
	switch es.Op {
	case "join":
		return dynamic.Event{Kind: dynamic.Join, P: p}, nil
	case "leave":
		return dynamic.Event{Kind: dynamic.Leave, P: p}, nil
	case "fail":
		return dynamic.Event{Kind: dynamic.Fail, P: p}, nil
	case "move":
		to, err := checkPt(es.To, "to")
		if err != nil {
			return dynamic.Event{}, err
		}
		return dynamic.Event{Kind: dynamic.Move, P: p, To: to}, nil
	}
	return dynamic.Event{}, fmt.Errorf("%w: unknown op %q", ErrSpec, es.Op)
}
