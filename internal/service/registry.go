// Package service is the schedule-serving subsystem: it turns the
// compile-once / query-forever structure of the paper's schedules into a
// concurrent engine that answers slot queries at scale.
//
// The package is layered:
//
//   - Registry (registry.go): an LRU cache of compiled core.Plan values
//     keyed by the canonical core.Signature, with singleflight compilation
//     — concurrent requests for the same signature compile the plan
//     exactly once and share the result.
//   - Batch engine (engine.go): QuerySlots / QueryMayBroadcast and their
//     window-shorthand variants answer batches of queries through the
//     dense coset tables with zero allocations per query in steady state
//     (the caller reuses the destination slice). Compiled plans are
//     immutable, so any number of goroutines may query one concurrently.
//   - Wire layer (wire.go, server.go): a compact JSON request/response
//     format and the HTTP handlers behind cmd/latticed.
//   - Binary wire layer (binary.go, binary_mutate.go, server_binary.go,
//     over the binwire subpackage's framing primitives): a
//     length-prefixed varint protocol served by the same handlers,
//     negotiated by Content-Type (BinaryContentType), with streamed
//     chunked responses and the same Limits-bounded decode funnels as
//     the JSON plane.
//
// See DESIGN.md §5 for the subsystem's contracts.
package service

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"

	"tilingsched/internal/core"
)

// DefaultRegistryCapacity is the plan capacity used when NewRegistry is
// given a non-positive capacity.
const DefaultRegistryCapacity = 128

// CompileFunc produces the plan for a signature on a cache miss.
type CompileFunc func() (*core.Plan, error)

// Registry is a concurrency-safe LRU cache of compiled plans keyed by
// canonical plan signature (core.Signature). Lookups that miss trigger
// exactly one compilation per signature no matter how many goroutines
// ask at once (singleflight); failed compilations are reported to every
// waiter but never cached, so a later request retries. Its traffic is
// counted in the metrics of the Server that instruments it: hits
// include requests that joined an in-flight compilation, and
// compilations count successes only, so a signature requested from N
// goroutines at once contributes exactly one compilation.
type Registry struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*regEntry
	lru     *list.List // of *regEntry; front = most recently used
	met     *Metrics   // nil until a Server instruments this registry

	// sigs memoizes (lattice, tile-name) → canonical signature for
	// named tile specs, so a warm GetSpec skips materializing the tile
	// just to derive its cache key. Bounded (maxSigMemo) because the
	// spec grammar admits unboundedly many names; explicit-points specs
	// bypass it entirely.
	sigs    sync.Map
	sigSize atomic.Int64
}

// maxSigMemo bounds the named-spec signature memo.
const maxSigMemo = 4096

// regEntry is one cached (or in-flight) plan. ready is closed when plan
// and err are final; elem is non-nil once the entry is on the LRU list
// (successful compiles only).
type regEntry struct {
	sig   string
	ready chan struct{}
	plan  *core.Plan
	err   error
	elem  *list.Element
}

// NewRegistry builds a registry that retains up to capacity compiled
// plans (DefaultRegistryCapacity when capacity <= 0).
func NewRegistry(capacity int) *Registry {
	if capacity <= 0 {
		capacity = DefaultRegistryCapacity
	}
	return &Registry{
		cap:     capacity,
		entries: make(map[string]*regEntry),
		lru:     list.New(),
	}
}

// Get returns the plan cached under sig, compiling it with compile on a
// miss. Concurrent Gets for one signature run compile exactly once; the
// others block until it finishes and share the plan (or the error).
// compile runs outside the registry lock, so slow tiling searches do not
// stall queries for other signatures.
func (r *Registry) Get(sig string, compile CompileFunc) (*core.Plan, error) {
	r.mu.Lock()
	if e, ok := r.entries[sig]; ok {
		if r.met != nil {
			r.met.regHits.Inc()
			// A hit on an entry not yet on the LRU joined an in-flight
			// compilation: singleflight saved a duplicate compile.
			if e.elem == nil {
				r.met.regDedup.Inc()
			}
		}
		if e.elem != nil {
			r.lru.MoveToFront(e.elem)
		}
		r.mu.Unlock()
		<-e.ready
		return e.plan, e.err
	}
	e := &regEntry{sig: sig, ready: make(chan struct{})}
	r.entries[sig] = e
	if r.met != nil {
		r.met.regMisses.Inc()
	}
	r.mu.Unlock()

	plan, err := runCompile(sig, compile)

	r.mu.Lock()
	e.plan, e.err = plan, err
	if err != nil {
		// Failures are reported to waiters but not cached.
		if r.met != nil {
			r.met.regErrors.Inc()
		}
		delete(r.entries, sig)
	} else {
		if r.met != nil {
			r.met.regCompilations.Inc()
		}
		e.elem = r.lru.PushFront(e)
		for r.lru.Len() > r.cap {
			back := r.lru.Back()
			ev := back.Value.(*regEntry)
			r.lru.Remove(back)
			delete(r.entries, ev.sig)
			if r.met != nil {
				r.met.regEvictions.Inc()
			}
		}
	}
	r.mu.Unlock()
	close(e.ready)
	return plan, err
}

// instrument points the registry's counters at a server's metrics
// plane. A registry shared by several servers reports to whichever
// instrumented it last.
func (r *Registry) instrument(m *Metrics) {
	r.mu.Lock()
	r.met = m
	r.mu.Unlock()
}

// runCompile invokes compile, converting a panic into an error so the
// singleflight entry is always finalized — otherwise a panicking tiling
// search would leave every waiter (and all future requests for the
// signature) blocked on a ready channel that never closes.
func runCompile(sig string, compile CompileFunc) (plan *core.Plan, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			plan, err = nil, fmt.Errorf("service: compiling %q panicked: %v", sig, rec)
		}
	}()
	return compile()
}

// GetSpec resolves a wire-level plan spec and serves it through the
// cache: the spec's canonical signature is the cache key, and a miss
// compiles core.NewPlan.
func (r *Registry) GetSpec(spec PlanSpec) (*core.Plan, error) {
	compile := func() (*core.Plan, error) {
		lat, tile, err := spec.Resolve()
		if err != nil {
			return nil, err
		}
		return core.NewPlan(lat, tile)
	}
	var memoKey string
	// Only pure-name specs may use the memo: a spec that also carries
	// points is malformed, and skipping Resolve here would mask that
	// on a warm cache.
	if spec.Tile.Name != "" && len(spec.Tile.Points) == 0 {
		memoKey = spec.Lattice + "\x00" + spec.Tile.Name
		if sig, ok := r.sigs.Load(memoKey); ok {
			return r.Get(sig.(string), compile)
		}
	}
	lat, tile, err := spec.Resolve()
	if err != nil {
		return nil, err
	}
	sig := core.Signature(lat, tile)
	if memoKey != "" && r.sigSize.Load() < maxSigMemo {
		if _, loaded := r.sigs.LoadOrStore(memoKey, sig); !loaded {
			r.sigSize.Add(1)
		}
	}
	return r.Get(sig, func() (*core.Plan, error) { return core.NewPlan(lat, tile) })
}

// Lookup returns the plan already cached under sig without compiling
// anything — the binary wire protocol's plan-by-signature reference
// path (a client that compiled a plan once re-addresses it by its
// canonical signature, skipping spec resolution entirely). A signature
// currently being compiled is waited for like Get; an unknown
// signature returns ok=false (the HTTP layer answers 404 so the client
// re-sends the full spec). Safe for concurrent callers.
func (r *Registry) Lookup(sig string) (*core.Plan, bool) {
	r.mu.Lock()
	e, ok := r.entries[sig]
	if !ok {
		if r.met != nil {
			r.met.regMisses.Inc()
		}
		r.mu.Unlock()
		return nil, false
	}
	if r.met != nil {
		r.met.regHits.Inc()
		if e.elem == nil {
			r.met.regDedup.Inc()
		}
	}
	if e.elem != nil {
		r.lru.MoveToFront(e.elem)
	}
	r.mu.Unlock()
	<-e.ready
	if e.err != nil {
		return nil, false
	}
	return e.plan, true
}

// Len returns the number of cached plans (in-flight compilations
// excluded).
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lru.Len()
}
