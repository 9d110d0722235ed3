package service

// Dynamic-deployment sessions: the serving-side face of internal/dynamic.
// A session is a mutable deployment — a compiled plan restricted to a
// window, churned by Join/Leave/Move/Fail events — identified by the
// plan's canonical core.Signature plus the window, and versioned by an
// epoch that increments once per applied mutation batch. Clients track
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
	"tilingsched/internal/graph"
	"tilingsched/internal/lattice"
	"tilingsched/internal/tiling"
)

// DefaultMaxSessions bounds the dynamic-session LRU when ServerOptions
// leaves it zero. Sessions hold O(window) state (slot table + tombstone
// bitset), so the bound is deliberately far below the plan cache's.
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
// serializes the full per-key file lifecycle: `building` single-flights
// the first open (concurrent misses wait instead of racing duplicate
// opens), and `evicting` is a barrier a re-open waits on until the
// eviction flush has closed the old handle and finished its renames.
type sessionTable struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*dynSession
	lru     *list.List // of *dynSession
	met     *Metrics

	// building holds one channel per key whose first build/open is in
	// flight; concurrent misses wait on it. evicting holds one channel
	// per key whose eviction flush is in flight; a re-open waits on it.
	// Both are closed (and removed) when the owning operation finishes.
	building map[string]chan struct{}
	evicting map[string]chan struct{}

	// store, when non-nil, makes sessions durable (DESIGN.md §12):
	// lookups restore evicted sessions from disk, evictions flush dirty
	// ones first. Set by Server.EnablePersistence before traffic.
	store *SessionStore
	// logf receives operational log lines (dirty evictions, persistence
	// recoveries); nil discards them.
	logf func(format string, args ...any)

	// baseMode, when not Auto, builds session mutators over an explicit
	// conflict-graph mode instead of the implicit periodic stencil — a
	// test hook for the subscriber oracle's mode sweep (production
	// sessions always use identity residues).
	baseMode graph.Mode
}

// dynSession is one mutable deployment.
type dynSession struct {
	key  string
	elem *list.Element

	mu    sync.Mutex
	mut   *dynamic.Mutator
	epoch uint64
	// disk is the session's WAL handle when persistence is on; nil once
	// the session is evicted (appends stop, the on-disk flush stands).
	disk *sessionDisk
	// gone marks the session evicted: its flush has run (or is running)
	// and the table no longer knows it. A handler holding a stale pointer
	// must re-get instead of mutating an unreachable — and, with
	// persistence on, no-longer-durable — ghost.
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
		cap:      capacity,
		entries:  make(map[string]*dynSession),
		lru:      list.New(),
		met:      met,
		building: make(map[string]chan struct{}),
		evicting: make(map[string]chan struct{}),
	}
}

// get returns the session for (plan, window), creating it on first use:
// the mutator is seeded with the plan's Theorem 1 schedule over an
// implicit periodic base graph, so creation costs O(window) slot lookups
// and a stencil build, never an explicit edge materialization. With
// persistence on, a session that was evicted (or predates this process)
// restores from its snapshot + WAL instead of reseeding at epoch 0.
func (st *sessionTable) get(plan *core.Plan, w lattice.Window) (*dynSession, error) {
	key := plan.Signature() + "|" + w.String()
	var build chan struct{}
	for {
		st.mu.Lock()
		if s, ok := st.entries[key]; ok {
			st.lru.MoveToFront(s.elem)
			st.mu.Unlock()
			return s, nil
		}
		// A pending eviction flush or an in-flight first build owns this
		// key's on-disk state (snapshot + WAL renames, the old handle);
		// wait for it to finish rather than racing its renames with our
		// open, which could leave the published session appending to an
		// unlinked inode.
		if ch, ok := st.evicting[key]; ok {
			st.mu.Unlock()
			<-ch
			continue
		}
		if ch, ok := st.building[key]; ok {
			st.mu.Unlock()
			<-ch
			continue
		}
		build = make(chan struct{})
		st.building[key] = build
		st.mu.Unlock()
		break
	}
	// Build outside the table lock (the costly part): this goroutine is
	// the key's sole builder — concurrent misses wait on the build
	// channel and then find the published session — so the disk open,
	// restore, and fresh-WAL creation never run twice for one key.
	fail := func(err error) (*dynSession, error) {
		st.mu.Lock()
		delete(st.building, key)
		st.mu.Unlock()
		close(build)
		return nil, err
	}
	opts := st.dynOpts(w)
	var (
		mut   *dynamic.Mutator
		disk  *sessionDisk
		epoch uint64
		err   error
	)
	if st.store != nil {
		disk, mut, epoch, err = st.store.open(plan, w, opts)
		if err != nil {
			return fail(err)
		}
	}
	restored := mut != nil
	if mut == nil {
		mut, err = dynamic.NewMutator(plan.Deployment(), w, plan.Schedule(), opts)
		if err != nil {
			if disk != nil {
				disk.close()
			}
			return fail(err)
		}
	}
	s := &dynSession{key: key, mut: mut, epoch: epoch, disk: disk}
	st.mu.Lock()
	delete(st.building, key)
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
		st.evicting[ev.key] = make(chan struct{})
		evicted = append(evicted, ev)
	}
	st.met.sessLive.Set(int64(st.lru.Len()))
	st.mu.Unlock()
	close(build)
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
// the session gone sends later stale-pointer mutates back through get.
// Closing the hub in the same critical section terminates every
// subscriber stream with a resync-required Bye — a subscriber must never
// hold a flushed ghost session alive, and once gone is set no new
// subscriber can attach (subscribeAttach re-gets). Only then does the
// eviction barrier come down, so a re-open for the key reads the
// flushed files with no live handle left behind.
func (st *sessionTable) finishEvict(s *dynSession) {
	s.mu.Lock()
	s.gone = true
	dirty := s.epoch > 0
	epoch := s.epoch
	if s.disk != nil {
		if dirty {
			if err := s.disk.snapshot(s.mut, s.epoch); err != nil {
				st.logfSafe("latticed: flushing evicted session %s: %v", s.key, err)
			}
		}
		s.disk.close()
		s.disk = nil
	}
	subsClosed := s.hub.closeAll(byeEvicted)
	s.mu.Unlock()
	st.mu.Lock()
	ch := st.evicting[s.key]
	delete(st.evicting, s.key)
	st.mu.Unlock()
	if ch != nil {
		close(ch)
	}
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
			if err := s.disk.snapshot(s.mut, s.epoch); err != nil {
				st.logfSafe("latticed: flushing session %s: %v", s.key, err)
			} else {
				n++
			}
		}
		s.mu.Unlock()
	}
	return n
}

// dynOpts builds the mutator options every session of this table is
// seeded, restored, and caught up with: the plan's implicit periodic
// base (identity residues) plus the table's metrics sink — or, when the
// oracle's mode hook forces an explicit adjacency mode, that mode with
// no residues.
func (st *sessionTable) dynOpts(w lattice.Window) dynamic.Options {
	opts := dynamic.Options{Metrics: st.met.dyn}
	if st.baseMode == graph.Auto {
		opts.Residues = tiling.IdentityResidues(w.Dim())
	} else {
		opts.BaseMode = st.baseMode
	}
	return opts
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

// DisruptionSpec is the wire form of dynamic.Disruption.
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
// On a 409 (stale epoch) the response carries the current epoch with no
// changes, and the Error field says why.
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
	// the session window, so the deployment's bounding window (which
	// compaction re-freezes over, and which sizes the per-sensor tables)
	// cannot be exploded by a single far-away join.
	bound := growMargin(win)
	events := make([]dynamic.Event, len(req.Events))
	dim := win.Dim()
	for i, es := range req.Events {
		ev, err := es.event(dim)
		if err != nil {
			return MutateRequest{}, lattice.Window{}, nil, fmt.Errorf("event %d: %w", i, err)
		}
		if !bound.Contains(ev.P) || (ev.Kind == dynamic.Move && !bound.Contains(ev.To)) {
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
// and with it compaction cost and per-sensor table sizes — regardless of
// event content.
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
