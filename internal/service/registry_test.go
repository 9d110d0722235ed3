package service

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"tilingsched/internal/core"
	"tilingsched/internal/lattice"
	"tilingsched/internal/prototile"
)

func mustPlan(t testing.TB, tile *prototile.Tile) *core.Plan {
	t.Helper()
	plan, err := core.NewPlan(lattice.Cubic(tile.Dim()), tile)
	if err != nil {
		t.Fatalf("NewPlan(%s): %v", tile.Name(), err)
	}
	return plan
}

// TestRegistrySingleflightConcurrent is the registry's concurrency
// contract under the race detector: many goroutines hitting the same and
// different signatures compile each plan exactly once and all read
// correct slots from the shared plan.
func TestRegistrySingleflightConcurrent(t *testing.T) {
	specs := []PlanSpec{
		{Tile: TileSpec{Name: "cross:2:1"}},
		{Tile: TileSpec{Name: "chebyshev:2:1"}},
		{Tile: TileSpec{Name: "rect:3:2"}},
		{Tile: TileSpec{Name: "cross:3:1"}},
	}
	reg := NewRegistry(len(specs))
	m := newServerMetrics(ServerOptions{})
	reg.instrument(m)

	// Count real compilations per signature through the Get primitive.
	var compiles [4]atomic.Int64
	const goroutines = 32
	var wg sync.WaitGroup
	var failures atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 8; rep++ {
				si := (g + rep) % len(specs)
				spec := specs[si]
				lat, tile, err := spec.Resolve()
				if err != nil {
					failures.Add(1)
					return
				}
				sig := core.Signature(lat, tile)
				plan, err := reg.Get(sig, func() (*core.Plan, error) {
					compiles[si].Add(1)
					return core.NewPlan(lat, tile)
				})
				if err != nil {
					failures.Add(1)
					return
				}
				// Slot correctness: SlotOf agrees with the schedule period
				// and the tile-point definition slot(n_k) = k.
				for k, n := range plan.Tile().Points() {
					s, err := plan.SlotOf(n)
					if err != nil || s != k {
						failures.Add(1)
						return
					}
				}
				if dst, err := QuerySlots(plan, plan.Tile().Points(), nil); err != nil || len(dst) != plan.Slots() {
					failures.Add(1)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := failures.Load(); n > 0 {
		t.Fatalf("%d goroutine failures", n)
	}
	for i := range compiles {
		if n := compiles[i].Load(); n != 1 {
			t.Errorf("signature %d compiled %d times, want exactly 1", i, n)
		}
	}
	if n := m.regCompilations.Load(); n != uint64(len(specs)) {
		t.Errorf("metrics report %d compilations, want %d", n, len(specs))
	}
	if hits, misses := m.regHits.Load(), m.regMisses.Load(); hits+misses != goroutines*8 {
		t.Errorf("hits %d + misses %d ≠ %d requests", hits, misses, goroutines*8)
	}
}

func TestRegistryLRUEviction(t *testing.T) {
	reg := NewRegistry(2)
	m := newServerMetrics(ServerOptions{})
	reg.instrument(m)
	get := func(name string) {
		t.Helper()
		if _, err := reg.GetSpec(PlanSpec{Tile: TileSpec{Name: name}}); err != nil {
			t.Fatalf("GetSpec(%s): %v", name, err)
		}
	}
	get("cross:2:1")     // cache: cross
	get("chebyshev:2:1") // cache: chebyshev, cross
	get("cross:2:1")     // hit; cache: cross, chebyshev
	get("rect:3:2")      // evicts chebyshev; cache: rect, cross
	get("cross:2:1")     // still a hit
	get("chebyshev:2:1") // recompiles

	if reg.Len() != 2 {
		t.Errorf("Len = %d, want 2", reg.Len())
	}
	if n := m.regEvictions.Load(); n != 2 {
		t.Errorf("evictions = %d, want 2 (chebyshev at rect insert, rect at chebyshev reinsert)", n)
	}
	if n := m.regCompilations.Load(); n != 4 {
		t.Errorf("compilations = %d, want 4 (3 distinct + 1 recompile)", n)
	}
	if n := m.regHits.Load(); n != 2 {
		t.Errorf("hits = %d, want 2", n)
	}
}

func TestRegistryErrorsNotCached(t *testing.T) {
	reg := NewRegistry(4)
	boom := errors.New("boom")
	calls := 0
	fail := func() (*core.Plan, error) { calls++; return nil, boom }
	for i := 0; i < 3; i++ {
		if _, err := reg.Get("sig", fail); !errors.Is(err, boom) {
			t.Fatalf("Get error = %v, want boom", err)
		}
	}
	if calls != 3 {
		t.Errorf("failed compile ran %d times, want 3 (errors must not be cached)", calls)
	}
	if reg.Len() != 0 {
		t.Errorf("Len = %d after failures, want 0", reg.Len())
	}
	// A later success under the same signature is cached normally.
	plan := mustPlan(t, prototile.Cross(2, 1))
	got, err := reg.Get("sig", func() (*core.Plan, error) { return plan, nil })
	if err != nil || got != plan {
		t.Fatalf("Get after failures = %v, %v", got, err)
	}
	if reg.Len() != 1 {
		t.Errorf("Len = %d, want 1", reg.Len())
	}
}

// TestRegistryCompilePanic pins singleflight panic safety: a panicking
// compile surfaces as an error, wedges nothing, and leaves the
// signature compilable afterwards.
func TestRegistryCompilePanic(t *testing.T) {
	reg := NewRegistry(4)
	_, err := reg.Get("sig", func() (*core.Plan, error) { panic("tiling search exploded") })
	if err == nil || reg.Len() != 0 {
		t.Fatalf("panicking compile: err=%v len=%d, want error and empty cache", err, reg.Len())
	}
	plan := mustPlan(t, prototile.Cross(2, 1))
	got, err := reg.Get("sig", func() (*core.Plan, error) { return plan, nil })
	if err != nil || got != plan {
		t.Fatalf("Get after panic = %v, %v; signature is wedged", got, err)
	}
}

// TestRegistryNotExact maps the service path for inexact tiles: the
// compile error surfaces to the caller and nothing is cached.
func TestRegistryNotExact(t *testing.T) {
	reg := NewRegistry(4)
	// The gap cluster {0, 2e_1} admits no lattice tiling (it needs a
	// union-of-cosets translate set, which core.NewPlan does not build).
	_, err := reg.GetSpec(PlanSpec{Tile: TileSpec{Points: [][]int{{0, 0}, {2, 0}}}})
	if !errors.Is(err, core.ErrNotExact) {
		t.Fatalf("GetSpec(S) error = %v, want ErrNotExact", err)
	}
	if reg.Len() != 0 {
		t.Errorf("Len = %d, want 0", reg.Len())
	}
}

func TestSignatureCanonical(t *testing.T) {
	cross := prototile.Cross(2, 1)
	renamed, err := prototile.New("whatever",
		lattice.Pt(0, 0), lattice.Pt(0, 1), lattice.Pt(0, -1), lattice.Pt(1, 0), lattice.Pt(-1, 0))
	if err != nil {
		t.Fatal(err)
	}
	sq := lattice.Square()
	if core.Signature(sq, cross) != core.Signature(sq, renamed) {
		t.Errorf("signatures differ for equal point sets:\n%s\n%s",
			core.Signature(sq, cross), core.Signature(sq, renamed))
	}
	if core.Signature(sq, cross) == core.Signature(sq, prototile.ChebyshevBall(2, 1)) {
		t.Error("distinct tiles share a signature")
	}
	if core.Signature(sq, cross) == core.Signature(lattice.Hexagonal(), cross) {
		t.Error("distinct lattices share a signature")
	}
	plan := mustPlan(t, prototile.Cross(2, 1))
	if got := plan.Signature(); got != core.Signature(plan.Lattice(), plan.Tile()) {
		t.Errorf("Plan.Signature = %q inconsistent with core.Signature", got)
	}
}

// TestRegistryMemoRejectsMixedSpec pins the memo fast path to pure-name
// specs: a spec carrying both a name and points stays malformed even
// after the name alone has been cached.
func TestRegistryMemoRejectsMixedSpec(t *testing.T) {
	reg := NewRegistry(4)
	if _, err := reg.GetSpec(PlanSpec{Tile: TileSpec{Name: "cross:2:1"}}); err != nil {
		t.Fatal(err)
	}
	mixed := PlanSpec{Tile: TileSpec{Name: "cross:2:1", Points: [][]int{{0, 0}, {5, 5}}}}
	if _, err := reg.GetSpec(mixed); !errors.Is(err, ErrSpec) {
		t.Errorf("warm mixed spec error = %v, want ErrSpec", err)
	}
}

// TestRegistryGetSpecConcurrentDistinct exercises the spec-level entry
// point under the race detector with distinct dimensions in flight.
func TestRegistryGetSpecConcurrentDistinct(t *testing.T) {
	reg := NewRegistry(8)
	m := newServerMetrics(ServerOptions{})
	reg.instrument(m)
	var wg sync.WaitGroup
	errs := make(chan error, 24)
	for g := 0; g < 24; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("cross:%d:1", 2+g%3)
			plan, err := reg.GetSpec(PlanSpec{Tile: TileSpec{Name: name}})
			if err != nil {
				errs <- err
				return
			}
			if plan.Slots() != plan.Tile().Size() {
				errs <- fmt.Errorf("%s: slots %d ≠ |N| %d", name, plan.Slots(), plan.Tile().Size())
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := m.regCompilations.Load(); n != 3 {
		t.Errorf("compilations = %d, want 3", n)
	}
}
