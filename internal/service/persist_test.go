package service

// Crash-recovery and durability suite for session persistence
// (DESIGN.md §12): frame codecs round-trip and reject corruption,
// restarts restore churned sessions at their exact epoch, torn WAL
// tails are truncated to the last good record, dirty evictions flush
// and count, and the mutate-margin arithmetic saturates at the int
// extremes instead of wrapping.

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"tilingsched/internal/core"
	"tilingsched/internal/dynamic"
	"tilingsched/internal/lattice"
	"tilingsched/internal/prototile"
	"tilingsched/internal/service/binwire"
)

// mutateJSON posts one mutate body to the server and decodes the
// response, asserting the expected status.
func mutateJSON(t *testing.T, s *Server, body string, wantStatus int) MutateResponse {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/plan:mutate", strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != wantStatus {
		t.Fatalf("mutate status %d, want %d: %s", rec.Code, wantStatus, rec.Body)
	}
	var resp MutateResponse
	if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
		t.Fatalf("decoding mutate response: %v", err)
	}
	return resp
}

const persistTestWindow = `"window":{"lo":[0,0],"hi":[4,4]}`

func persistBody(events string) string {
	return `{"plan":{"tile":{"name":"cross:2:1"}},` + persistTestWindow + `,` + events + `}`
}

// changedMap folds a response's Changed list into key→slot.
func changedMap(resp MutateResponse) map[string]int {
	out := map[string]int{}
	for _, ch := range resp.Changed {
		out[lattice.Point(ch.P).Key()] = ch.Slot
	}
	return out
}

func newPersistServer(t *testing.T, dir string, opts ServerOptions) *Server {
	t.Helper()
	s := NewServer(NewRegistry(8), opts)
	if err := s.EnablePersistence(PersistOptions{Dir: dir}); err != nil {
		t.Fatalf("EnablePersistence: %v", err)
	}
	return s
}

// TestPersistFrameRoundTrip pins the on-disk codecs: snapshot and WAL
// frames decode back to what was encoded, and a single flipped byte
// fails the CRC.
func TestPersistFrameRoundTrip(t *testing.T) {
	plan := testPlan(t)
	w := mustWindow(t, []int{-2, -3}, []int{4, 5})
	id := identOf(plan, w)
	st := snapFrame{
		window: mustWindow(t, []int{-1, 0}, []int{3, 4}),
		slots:  make([]int32, 25),
		m:      5,
	}
	for i := range st.slots {
		st.slots[i] = int32(i % 6)
		st.slots[i]-- // mix tombstones (-1) with slots 0..4
	}
	e := binwire.Get()
	defer binwire.Put(e)
	encodeSnapshot(e, id, 42, st)
	gotID, gotEpoch, gotState, err := decodeSnapshot(e.Bytes())
	if err != nil {
		t.Fatalf("decodeSnapshot: %v", err)
	}
	if gotID.sig != id.sig || gotID.lat != id.lat || gotEpoch != 42 {
		t.Fatalf("snapshot identity: %+v epoch %d", gotID, gotEpoch)
	}
	if gotID.win.String() != w.String() || gotState.window.String() != st.window.String() {
		t.Fatalf("windows: %s / %s", gotID.win, gotState.window)
	}
	if gotState.m != 5 || gotState.version != persistVersion || len(gotState.slots) != 25 {
		t.Fatalf("state: %+v", gotState)
	}
	for i := range st.slots {
		if gotState.slots[i] != st.slots[i] {
			t.Fatalf("slot %d: %d ≠ %d", i, gotState.slots[i], st.slots[i])
		}
	}

	// CRC: flipping any payload byte must be detected.
	data := append([]byte(nil), e.Bytes()...)
	data[len(data)-1] ^= 0x01
	if _, _, _, err := decodeSnapshot(data); err == nil {
		t.Fatal("flipped snapshot byte passed the CRC")
	}

	// WAL record round trip, including a Move's destination.
	e.Reset()
	events := []dynamic.Event{
		{Kind: dynamic.Join, P: lattice.Pt(1, 2)},
		{Kind: dynamic.Move, P: lattice.Pt(-1, 0), To: lattice.Pt(3, -4)},
		{Kind: dynamic.Fail, P: lattice.Pt(0, 0)},
	}
	encodeWALRecord(e, 2, 7, events)
	r := binwire.NewReader(e.Bytes())
	typ, payload := r.Frame()
	if r.Err() != nil || typ != framePersistWALRecord {
		t.Fatalf("record frame: type %#x err %v", typ, r.Err())
	}
	epoch, gotEvents, err := decodeWALRecord(&payload, 2)
	if err != nil {
		t.Fatalf("decodeWALRecord: %v", err)
	}
	if epoch != 7 || len(gotEvents) != 3 {
		t.Fatalf("record: epoch %d, %d events", epoch, len(gotEvents))
	}
	for i, ev := range events {
		g := gotEvents[i]
		if g.Kind != ev.Kind || !g.P.Equal(ev.P) || (ev.Kind == dynamic.Move && !g.To.Equal(ev.To)) {
			t.Fatalf("event %d: %+v ≠ %+v", i, g, ev)
		}
	}
}

// TestPersistRestartRoundTrip is the durability contract end to end at
// the service layer: mutate a session to epoch N, flush, rebuild a
// fresh server over the same data directory, and the resync answers
// the post-churn assignment at epoch N.
func TestPersistRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s1 := newPersistServer(t, dir, ServerOptions{})

	mutateJSON(t, s1, persistBody(`"events":[{"op":"leave","p":[1,1]}]`), http.StatusOK)
	mutateJSON(t, s1, persistBody(`"events":[{"op":"join","p":[6,2]}]`), http.StatusOK)
	r3 := mutateJSON(t, s1, persistBody(`"events":[{"op":"leave","p":[0,0]}]`), http.StatusOK)
	if r3.Epoch != 3 {
		t.Fatalf("epoch after three batches = %d", r3.Epoch)
	}
	want := changedMap(mutateJSON(t, s1, persistBody(`"full":true`), http.StatusOK))
	if n := s1.FlushSessions(); n != 1 {
		t.Fatalf("FlushSessions flushed %d sessions, want 1", n)
	}

	// "Restart": a new server over the same directory, session restored
	// lazily on first touch.
	s2 := newPersistServer(t, dir, ServerOptions{})
	resync := mutateJSON(t, s2, persistBody(`"full":true,"epoch":3`), http.StatusOK)
	if resync.Epoch != 3 {
		t.Fatalf("restored epoch = %d, want 3 (session forgot its churn)", resync.Epoch)
	}
	got := changedMap(resync)
	if len(got) != len(want) {
		t.Fatalf("restored assignment has %d sensors, want %d", len(got), len(want))
	}
	for k, slot := range want {
		if got[k] != slot {
			t.Fatalf("restored slot of %s = %d, want %d", k, got[k], slot)
		}
	}
	if _, dead := got["1,1"]; dead {
		t.Fatal("departed sensor resurrected by restore")
	}
	if _, alive := got["6,2"]; !alive {
		t.Fatal("joined sensor lost by restore")
	}

	// A stale client epoch still conflicts after restore.
	conflict := mutateJSON(t, s2, persistBody(`"events":[{"op":"join","p":[1,1]}],"epoch":1`), http.StatusConflict)
	if conflict.Epoch != 3 {
		t.Fatalf("conflict reports epoch %d, want 3", conflict.Epoch)
	}

	// Restore-on-start: a third server eagerly reloads the directory.
	s3 := newPersistServer(t, dir, ServerOptions{})
	n, err := s3.RestoreSessions()
	if err != nil || n != 1 {
		t.Fatalf("RestoreSessions = (%d, %v), want (1, nil)", n, err)
	}
	if live, restored := s3.met.sessLive.Load(), s3.met.sessRestored.Load(); live != 1 || restored != 1 {
		t.Fatalf("restore-on-start: %d live, %d restored; want 1 each", live, restored)
	}
}

// TestPersistRestoreOnMiss drives the LRU past capacity: the dirty
// evicted session flushes to disk (distinct counter + stats), and the
// next touch restores it at its pre-eviction epoch instead of
// reseeding at epoch 0.
func TestPersistRestoreOnMiss(t *testing.T) {
	dir := t.TempDir()
	var logged []string
	s := NewServer(NewRegistry(8), ServerOptions{
		MaxSessions: 1,
		Logf:        func(f string, a ...any) { logged = append(logged, fmt.Sprintf(f, a...)) },
	})
	if err := s.EnablePersistence(PersistOptions{Dir: dir}); err != nil {
		t.Fatal(err)
	}

	mutateJSON(t, s, persistBody(`"events":[{"op":"leave","p":[1,1]}]`), http.StatusOK)
	// A second window's session evicts the first (capacity 1). The first
	// is dirty (epoch 1), so the eviction must flush and count.
	other := `{"plan":{"tile":{"name":"cross:2:1"}},"window":{"lo":[0,0],"hi":[2,2]},"full":true}`
	mutateJSON(t, s, other, http.StatusOK)
	if ev, dirty := s.met.sessEvicted.Load(), s.met.sessEvictedDirty.Load(); ev != 1 || dirty != 1 {
		t.Fatalf("%d evicted, %d dirty; want 1 each", ev, dirty)
	}
	var sawEvictLog bool
	for _, line := range logged {
		if strings.Contains(line, "evicted dirty session") {
			sawEvictLog = true
		}
	}
	if !sawEvictLog {
		t.Fatalf("no dirty-eviction log line in %q", logged)
	}

	// Touching the first window again restores from disk: epoch 1, churn
	// intact, restored counter moves.
	resync := mutateJSON(t, s, persistBody(`"full":true,"epoch":1`), http.StatusOK)
	if resync.Epoch != 1 {
		t.Fatalf("restored epoch = %d, want 1", resync.Epoch)
	}
	if _, dead := changedMap(resync)["1,1"]; dead {
		t.Fatal("restore-on-miss resurrected a departed sensor")
	}
	if n := s.met.sessRestored.Load(); n != 1 {
		t.Fatalf("%d restored, want 1", n)
	}

	// The distinct counter is a real /metrics series.
	var sb strings.Builder
	if err := s.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"latticed_sessions_evicted_dirty_total 1",
		"latticed_sessions_restored_total 1",
		"latticed_snapshots_total",
		"latticed_wal_appends_total",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("metrics missing %q:\n%s", want, sb.String())
		}
	}
}

// TestDirtyEvictionCounter is the store-less regression: even without
// persistence, evicting a session that has applied mutations must
// increment the distinct dirty counter (the silent-data-loss signal
// this PR makes visible).
func TestDirtyEvictionCounter(t *testing.T) {
	plan := testPlan(t)
	st := newSessionTable(1, newServerMetrics(ServerOptions{}))
	s1, err := st.get(plan, mustWindow(t, []int{0, 0}, []int{4, 4}))
	if err != nil {
		t.Fatal(err)
	}
	s1.mu.Lock()
	s1.epoch = 3 // stand-in for applied batches
	s1.mu.Unlock()
	if _, err := st.get(plan, mustWindow(t, []int{0, 0}, []int{1, 1})); err != nil {
		t.Fatal(err)
	}
	if ev, dirty := st.met.sessEvicted.Load(), st.met.sessEvictedDirty.Load(); ev != 1 || dirty != 1 {
		t.Fatalf("%d evicted, %d dirty; want 1 each", ev, dirty)
	}
	// A clean eviction (epoch 0) must not count as dirty.
	if _, err := st.get(plan, mustWindow(t, []int{0, 0}, []int{2, 2})); err != nil {
		t.Fatal(err)
	}
	if ev, dirty := st.met.sessEvicted.Load(), st.met.sessEvictedDirty.Load(); ev != 2 || dirty != 1 {
		t.Fatalf("%d evicted, %d dirty; want 2 and 1", ev, dirty)
	}
}

// TestPersistTornTail crashes mid-append: the WAL's final record is
// truncated on disk, and replay must drop exactly the torn tail —
// restoring the session to the last whole batch — and count the
// recovery.
func TestPersistTornTail(t *testing.T) {
	dir := t.TempDir()
	s1 := newPersistServer(t, dir, ServerOptions{})
	mutateJSON(t, s1, persistBody(`"events":[{"op":"leave","p":[1,1]}]`), http.StatusOK)
	mutateJSON(t, s1, persistBody(`"events":[{"op":"join","p":[6,2]}]`), http.StatusOK)
	mutateJSON(t, s1, persistBody(`"events":[{"op":"leave","p":[0,0]}]`), http.StatusOK)
	// No flush: the directory holds only the WAL (header + 3 records),
	// exactly the crash-without-snapshot shape.

	wals, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(wals) != 1 {
		t.Fatalf("WAL files %v (%v)", wals, err)
	}
	info, err := os.Stat(wals[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(wals[0], info.Size()-3); err != nil {
		t.Fatal(err)
	}

	s2 := newPersistServer(t, dir, ServerOptions{})
	resync := mutateJSON(t, s2, persistBody(`"full":true`), http.StatusOK)
	if resync.Epoch != 2 {
		t.Fatalf("epoch after torn-tail replay = %d, want 2 (last whole record)", resync.Epoch)
	}
	got := changedMap(resync)

	// Oracle: a fresh store-less server applying only the surviving
	// batches must answer the identical assignment.
	oracle := NewServer(NewRegistry(8), ServerOptions{})
	mutateJSON(t, oracle, persistBody(`"events":[{"op":"leave","p":[1,1]}]`), http.StatusOK)
	mutateJSON(t, oracle, persistBody(`"events":[{"op":"join","p":[6,2]}]`), http.StatusOK)
	want := changedMap(mutateJSON(t, oracle, persistBody(`"full":true`), http.StatusOK))
	if len(got) != len(want) {
		t.Fatalf("torn-tail restore has %d sensors, oracle %d", len(got), len(want))
	}
	for k, slot := range want {
		if g, ok := got[k]; !ok || g != slot {
			t.Fatalf("torn-tail slot of %s = %d, oracle %d", k, got[k], slot)
		}
	}

	var sb strings.Builder
	if err := s2.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "latticed_wal_torn_tails_total 1") {
		t.Fatal("torn-tail recovery not counted")
	}

	// The truncated WAL stays usable: further mutations append and a
	// third server sees them.
	mutateJSON(t, s2, persistBody(`"events":[{"op":"join","p":[1,1]}]`), http.StatusOK)
	s3 := newPersistServer(t, dir, ServerOptions{})
	if resync := mutateJSON(t, s3, persistBody(`"full":true`), http.StatusOK); resync.Epoch != 3 {
		t.Fatalf("post-recovery append lost: epoch %d, want 3", resync.Epoch)
	}
}

// TestPersistSnapshotTruncatesWAL checks the log bound: crossing
// SnapshotEvery events snapshots the session and resets the WAL to a
// bare header, and the snapshot-based restore is exact.
func TestPersistSnapshotTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	s1 := NewServer(NewRegistry(8), ServerOptions{})
	if err := s1.EnablePersistence(PersistOptions{Dir: dir, SnapshotEvery: 2}); err != nil {
		t.Fatal(err)
	}
	mutateJSON(t, s1, persistBody(`"events":[{"op":"leave","p":[1,1]}]`), http.StatusOK)
	walBefore := walSize(t, dir)
	mutateJSON(t, s1, persistBody(`"events":[{"op":"leave","p":[2,2]}]`), http.StatusOK)
	// Two events logged → snapshot fired → WAL reset to header only.
	if snaps, _ := filepath.Glob(filepath.Join(dir, "*.snap")); len(snaps) != 1 {
		t.Fatalf("snapshot files %v, want exactly 1", snaps)
	}
	if after := walSize(t, dir); after >= walBefore {
		t.Fatalf("WAL not truncated by snapshot: %d → %d bytes", walBefore, after)
	}
	s2 := newPersistServer(t, dir, ServerOptions{})
	resync := mutateJSON(t, s2, persistBody(`"full":true`), http.StatusOK)
	if resync.Epoch != 2 {
		t.Fatalf("snapshot restore epoch = %d, want 2", resync.Epoch)
	}
	cm := changedMap(resync)
	if _, ok := cm["1,1"]; ok {
		t.Fatal("snapshot restore resurrected 1,1")
	}
	if _, ok := cm["2,2"]; ok {
		t.Fatal("snapshot restore resurrected 2,2")
	}
	if len(cm) != 23 {
		t.Fatalf("snapshot restore has %d sensors, want 23", len(cm))
	}
}

func walSize(t *testing.T, dir string) int64 {
	t.Helper()
	wals, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(wals) != 1 {
		t.Fatalf("WAL files %v (%v)", wals, err)
	}
	info, err := os.Stat(wals[0])
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

// BenchmarkWALAppend isolates the per-batch persistence cost on the
// mutate path: one two-event record encoded, CRC-stamped, and appended
// to the session WAL with the default fsync-off policy (the number the
// BENCH_*_wal.json baseline pins).
func BenchmarkWALAppend(b *testing.B) {
	store, err := newSessionStore(PersistOptions{Dir: b.TempDir()}, newServerMetrics(ServerOptions{}), nil)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := core.NewPlan(lattice.Square(), prototile.Cross(2, 1))
	if err != nil {
		b.Fatal(err)
	}
	w, err := lattice.NewWindow(lattice.Pt(0, 0), lattice.Pt(99, 99))
	if err != nil {
		b.Fatal(err)
	}
	disk, _, _, err := store.open(plan, w)
	if err != nil {
		b.Fatal(err)
	}
	defer disk.close()
	events := []dynamic.Event{
		{Kind: dynamic.Fail, P: lattice.Pt(50, 50)},
		{Kind: dynamic.Join, P: lattice.Pt(50, 50)},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := disk.append(uint64(i+1), events); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPersistEvictionReopenRace is the per-key file-serialization
// regression: with a capacity-1 LRU two windows evict each other on
// every alternation, so an eviction flush (snapshot + WAL-reset rename)
// racing a same-key restore used to strand the restored session's
// O_APPEND handle on an unlinked inode — every later append silently
// discarded. The contract checked here is the PR's zero-lost-sessions
// guarantee under that churn: after the hammering, a fresh server over
// the same directory must see every acked epoch.
func TestPersistEvictionReopenRace(t *testing.T) {
	dir := t.TempDir()
	s := newPersistServer(t, dir, ServerOptions{MaxSessions: 1})
	windows := [2]string{persistTestWindow, `"window":{"lo":[0,0],"hi":[2,2]}`}
	bodies := [2]string{
		`{"plan":{"tile":{"name":"cross:2:1"}},` + windows[0] + `,"events":[{"op":"fail","p":[1,1]},{"op":"join","p":[1,1]}]}`,
		`{"plan":{"tile":{"name":"cross:2:1"}},` + windows[1] + `,"events":[{"op":"fail","p":[0,0]},{"op":"join","p":[0,0]}]}`,
	}
	const rounds = 40
	var acked [2]uint64
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				req := httptest.NewRequest("POST", "/v1/plan:mutate", strings.NewReader(bodies[i]))
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("window %d round %d: status %d: %s", i, r, rec.Code, rec.Body)
					return
				}
				var resp MutateResponse
				if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
					t.Errorf("window %d round %d: decoding response: %v", i, r, err)
					return
				}
				if resp.Epoch > acked[i] {
					acked[i] = resp.Epoch
				}
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// Each goroutine is its window's sole mutator, so its acked epoch
	// must be exactly rounds — and must survive a restart intact.
	s2 := newPersistServer(t, dir, ServerOptions{})
	for i := range bodies {
		if acked[i] != rounds {
			t.Fatalf("window %d acked epoch %d, want %d", i, acked[i], rounds)
		}
		body := `{"plan":{"tile":{"name":"cross:2:1"}},` + windows[i] + `,"full":true}`
		resync := mutateJSON(t, s2, body, http.StatusOK)
		if resync.Epoch != acked[i] {
			t.Fatalf("window %d restored at epoch %d, want %d (acked mutations lost)", i, resync.Epoch, acked[i])
		}
	}
}

// persistToEpoch3WithSnapshot drives a session to epoch 3 with
// SnapshotEvery=2, leaving a snapshot at epoch 2 and a WAL based at 2
// holding the epoch-3 record — the shape the base-epoch recovery tests
// start from.
func persistToEpoch3WithSnapshot(t *testing.T, dir string) {
	t.Helper()
	s := NewServer(NewRegistry(8), ServerOptions{})
	if err := s.EnablePersistence(PersistOptions{Dir: dir, SnapshotEvery: 2}); err != nil {
		t.Fatal(err)
	}
	mutateJSON(t, s, persistBody(`"events":[{"op":"leave","p":[1,1]}]`), http.StatusOK)
	mutateJSON(t, s, persistBody(`"events":[{"op":"leave","p":[2,2]}]`), http.StatusOK)
	mutateJSON(t, s, persistBody(`"events":[{"op":"join","p":[6,2]}]`), http.StatusOK)
	snaps, _ := filepath.Glob(filepath.Join(dir, "*.snap"))
	if len(snaps) != 1 {
		t.Fatalf("snapshot files %v, want exactly 1", snaps)
	}
}

// TestPersistLostSnapshotResetsWAL pins the base-epoch check: a WAL
// based at epoch 2 whose snapshot is gone must NOT replay its suffix
// onto a fresh seed (events 1..2 are unrecoverable — the result would
// be silently wrong). The session resets to a clean epoch-0 seed, the
// reset is counted, and the reset WAL keeps working.
func TestPersistLostSnapshotResetsWAL(t *testing.T) {
	dir := t.TempDir()
	persistToEpoch3WithSnapshot(t, dir)
	snaps, _ := filepath.Glob(filepath.Join(dir, "*.snap"))
	if err := os.Remove(snaps[0]); err != nil {
		t.Fatal(err)
	}

	s2 := newPersistServer(t, dir, ServerOptions{})
	resync := mutateJSON(t, s2, persistBody(`"full":true`), http.StatusOK)
	if resync.Epoch != 0 {
		t.Fatalf("epoch after lost snapshot = %d, want 0 (clean reseed, not a suffix replay)", resync.Epoch)
	}
	got := changedMap(resync)
	if len(got) != 25 {
		t.Fatalf("reseed has %d sensors, want the full 25-point seed", len(got))
	}
	if _, ok := got["1,1"]; !ok {
		t.Fatal("reseed missing 1,1: the unrecoverable suffix was replayed onto the seed")
	}
	var sb strings.Builder
	if err := s2.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "latticed_wal_resets_total 1") {
		t.Fatalf("WAL reset not counted:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "latticed_wal_torn_tails_total 0") {
		t.Fatal("WAL reset miscounted as a torn tail")
	}

	// The reset log accepts appends and restores them.
	mutateJSON(t, s2, persistBody(`"events":[{"op":"leave","p":[0,0]}]`), http.StatusOK)
	s3 := newPersistServer(t, dir, ServerOptions{})
	if resync := mutateJSON(t, s3, persistBody(`"full":true`), http.StatusOK); resync.Epoch != 1 {
		t.Fatalf("post-reset append lost: epoch %d, want 1", resync.Epoch)
	}
}

// TestPersistCorruptSnapshotDropped replaces the epoch-2 snapshot with
// a corrupt one: a flipped byte, which fails the CRC, or a CRC-valid
// snapshot whose state window reaches 40 cells past the session window,
// beyond its MutateMargin, which no mutate could have built. Either is
// dropped under its own counter (not the torn-tail one), and because
// the WAL is based past the lost state the session resets to epoch 0
// instead of replaying the suffix.
func TestPersistCorruptSnapshotDropped(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(t *testing.T, data []byte) []byte
	}{
		{"flipped byte", func(t *testing.T, data []byte) []byte {
			data[len(data)-1] ^= 0x01
			return data
		}},
		{"frame outside the margin", func(t *testing.T, data []byte) []byte {
			plan := testPlan(t)
			w := mustWindow(t, []int{0, 0}, []int{4, 4})
			live := newLiveSet(w, true)
			live.set(-1, lattice.Pt(44, 2), true)
			fw, slots := live.frame(plan)
			e := binwire.Get()
			defer binwire.Put(e)
			encodeSnapshot(e, identOf(plan, w), 2, snapFrame{m: plan.Slots(), window: fw, slots: slots})
			return bytes.Clone(e.Bytes())
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			persistToEpoch3WithSnapshot(t, dir)
			snaps, _ := filepath.Glob(filepath.Join(dir, "*.snap"))
			data, err := os.ReadFile(snaps[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(snaps[0], c.corrupt(t, data), 0o644); err != nil {
				t.Fatal(err)
			}

			s2 := newPersistServer(t, dir, ServerOptions{})
			resync := mutateJSON(t, s2, persistBody(`"full":true`), http.StatusOK)
			if resync.Epoch != 0 {
				t.Fatalf("epoch after corrupt snapshot = %d, want 0", resync.Epoch)
			}
			if slot, ok := changedMap(resync)["44,2"]; ok {
				t.Fatalf("the snapshot's far point 44,2 is live (slot %d)", slot)
			}
			var sb strings.Builder
			if err := s2.WriteMetrics(&sb); err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{
				"latticed_snapshots_dropped_total 1",
				"latticed_wal_resets_total 1",
				"latticed_wal_torn_tails_total 0",
			} {
				if !strings.Contains(sb.String(), want) {
					t.Fatalf("metrics missing %q:\n%s", want, sb.String())
				}
			}
		})
	}
}

// TestDecodeWALRecordCorruptCount pins the allocation bound: a record
// declaring the full maxWALRecordEvents count over a near-empty payload
// must fail cleanly — the pre-allocation is sized by the payload (one
// kind byte + one varint byte per coordinate minimum), not by the
// attacker-controlled count.
func TestDecodeWALRecordCorruptCount(t *testing.T) {
	e := binwire.Get()
	defer binwire.Put(e)
	off := beginCRCFrame(e, framePersistWALRecord)
	e.Uvarint(7)                  // epoch
	e.Uvarint(maxWALRecordEvents) // declared count; no event bytes follow
	endCRCFrame(e, off)
	r := binwire.NewReader(e.Bytes())
	_, payload := r.Frame()
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if _, _, err := decodeWALRecord(&payload, 2); err == nil {
		t.Fatal("record with a declared count beyond its payload decoded")
	}
}

// TestMutateMarginEdges is the saturating-arithmetic regression: for
// windows near the int extremes the ± MutateMargin growth bound used to
// wrap, inverting the bound and misclassifying every event. Both decode
// funnels (JSON and binary) must accept in-window events there and
// still reject out-of-margin ones.
func TestMutateMarginEdges(t *testing.T) {
	lim := Limits{MaxBatch: 8, MaxWindow: 100}
	maxI, minI := math.MaxInt, math.MinInt
	cases := []struct {
		name     string
		lo, hi   []int
		p        []int
		rejected bool
	}{
		{"hi edge, in window", []int{maxI - 4, 0}, []int{maxI - 1, 4}, []int{maxI - 1, 2}, false},
		{"hi edge, clamped margin", []int{maxI - 4, 0}, []int{maxI - 1, 4}, []int{maxI, 2}, false},
		{"hi edge, off-axis out of margin", []int{maxI - 4, 0}, []int{maxI - 1, 4}, []int{maxI - 1, 37}, true},
		{"lo edge, in window", []int{minI + 1, 0}, []int{minI + 5, 4}, []int{minI + 1, 0}, false},
		{"lo edge, clamped margin", []int{minI + 1, 0}, []int{minI + 5, 4}, []int{minI, 0}, false},
		{"lo edge, off-axis out of margin", []int{minI + 1, 0}, []int{minI + 5, 4}, []int{minI + 1, -33}, true},
		{"interior unaffected", []int{0, 0}, []int{4, 4}, []int{36, 0}, false},
		{"interior out of margin", []int{0, 0}, []int{4, 4}, []int{37, 0}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			body := fmt.Sprintf(`{"window":{"lo":[%d,%d],"hi":[%d,%d]},"events":[{"op":"join","p":[%d,%d]}]}`,
				c.lo[0], c.lo[1], c.hi[0], c.hi[1], c.p[0], c.p[1])
			_, _, _, jerr := DecodeMutateRequest([]byte(body), lim)
			if got := jerr != nil; got != c.rejected {
				t.Errorf("JSON funnel: rejected=%v want %v (%v)", got, c.rejected, jerr)
			}

			e := binwire.Get()
			defer binwire.Put(e)
			req := MutateRequest{
				Plan:   PlanSpec{Tile: TileSpec{Name: "cross:2:1"}},
				Window: WindowSpec{Lo: c.lo, Hi: c.hi},
				Events: []EventSpec{{Op: "join", P: c.p}},
			}
			if err := EncodeMutateBinary(e, req, ""); err != nil {
				t.Fatalf("encode: %v", err)
			}
			_, berr := DecodeBinaryMutate(e.Bytes(), lim)
			if got := berr != nil; got != c.rejected {
				t.Errorf("binary funnel: rejected=%v want %v (%v)", got, c.rejected, berr)
			}
		})
	}
}

// TestMutateMarginVolumeBound pins the margin's volume bound on a
// cross:4:1 session over a one-point window, whose ± MutateMargin band
// would hold 65⁴ ≈ 17.9 M positions: joins 32 cells out along each axis
// answer 413 in both codecs, so flushing the session writes a one-point
// frame instead of one slot per band position.
func TestMutateMarginVolumeBound(t *testing.T) {
	s := newPersistServer(t, t.TempDir(), ServerOptions{})
	plan := PlanSpec{Tile: TileSpec{Name: "cross:4:1"}}
	win := WindowSpec{Lo: []int{0, 0, 0, 0}, Hi: []int{0, 0, 0, 0}}
	post := func(ev EventSpec, binary bool) int {
		req := MutateRequest{Plan: plan, Window: win, Events: []EventSpec{ev}}
		var hr *http.Request
		if binary {
			e := binwire.Get()
			defer binwire.Put(e)
			if err := EncodeMutateBinary(e, req, ""); err != nil {
				t.Fatal(err)
			}
			hr = httptest.NewRequest("POST", "/v1/plan:mutate", bytes.NewReader(e.Bytes()))
			hr.Header.Set("Content-Type", BinaryContentType)
		} else {
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			hr = httptest.NewRequest("POST", "/v1/plan:mutate", bytes.NewReader(body))
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, hr)
		return rec.Code
	}
	// Leave and rejoin the window's point, so the session has epochs to
	// flush.
	for _, op := range []string{"leave", "join"} {
		if code := post(EventSpec{Op: op, P: []int{0, 0, 0, 0}}, false); code != http.StatusOK {
			t.Fatalf("%s of the window point: status %d", op, code)
		}
	}
	for a := 0; a < 4; a++ {
		for _, d := range []int{-MutateMargin, MutateMargin} {
			p := []int{0, 0, 0, 0}
			p[a] = d
			for _, binary := range []bool{false, true} {
				if code := post(EventSpec{Op: "join", P: p}, binary); code != http.StatusRequestEntityTooLarge {
					t.Errorf("join at %v (binary %v): status %d, want 413", p, binary, code)
				}
			}
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := s.FlushSessions()
	runtime.ReadMemStats(&after)
	if n != 1 {
		t.Fatalf("FlushSessions wrote %d sessions, want 1", n)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Errorf("FlushSessions allocated %d bytes, want ≤ 1 MB", alloc)
	}
}

// hugeSnapshot is a CRC-valid snapshot of a (2^20+1)² session declaring
// that whole window as its state window, and the matching slot count
// with no slot bytes behind it — a frame that, decoded by its declared
// count, would size a 4 TB slot table.
func hugeSnapshot(t testing.TB) []byte {
	e := binwire.Get()
	defer binwire.Put(e)
	plan, err := core.NewPlan(lattice.Square(), prototile.Cross(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	w, err := lattice.NewWindow(lattice.Pt(0, 0), lattice.Pt(1<<20, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	off := beginCRCFrame(e, framePersistSnap)
	e.Uvarint(persistVersion)
	encodeIdent(e, identOf(plan, w))
	e.Uvarint(1) // epoch
	e.Uvarint(5) // palette
	e.Uvarint(5) // budget
	e.Varint(0)
	e.Varint(0)
	e.Varint(1 << 20)
	e.Varint(1 << 20)
	e.Uvarint((1<<20 + 1) * (1<<20 + 1))
	endCRCFrame(e, off)
	return bytes.Clone(e.Bytes())
}

// TestDecodeSnapshotHugeSlotCount pins the snapshot allocation bound:
// the slot count is bounded by the payload bytes left (each slot takes
// at least one), so a small hostile file fails to decode instead of
// exhausting memory — which, since every .snap file decodes at start,
// would crash-loop the daemon.
func TestDecodeSnapshotHugeSlotCount(t *testing.T) {
	if _, _, _, err := decodeSnapshot(hugeSnapshot(t)); err == nil {
		t.Fatal("snapshot declaring more slots than its payload holds decoded")
	}
}

// FuzzDecodeSnapshot holds decodeSnapshot to the decode funnels'
// contract on arbitrary bytes: never panic, never allocate past the
// input, and a decoded frame is self-consistent.
func FuzzDecodeSnapshot(f *testing.F) {
	v1, err := os.ReadFile(filepath.Join("testdata", "v1session", "d50a1f047a1727064fd6a58c09c209d4.snap"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)
	plan, err := core.NewPlan(lattice.Square(), prototile.Cross(2, 1))
	if err != nil {
		f.Fatal(err)
	}
	w, err := lattice.NewWindow(lattice.Pt(0, 0), lattice.Pt(4, 4))
	if err != nil {
		f.Fatal(err)
	}
	live := newLiveSet(w, true)
	live.set(-1, lattice.Pt(6, 2), true)
	fw, slots := live.frame(plan)
	e := binwire.Get()
	encodeSnapshot(e, identOf(plan, w), 3, snapFrame{m: plan.Slots(), window: fw, slots: slots})
	f.Add(bytes.Clone(e.Bytes()))
	binwire.Put(e)
	f.Add(hugeSnapshot(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		id, _, sf, err := decodeSnapshot(data)
		if err != nil {
			return
		}
		if sf.version < 1 || sf.version > persistVersion {
			t.Fatalf("decoded version %d", sf.version)
		}
		if sf.window.Dim() != id.win.Dim() || len(sf.slots) != sf.window.Size() {
			t.Fatalf("frame %v with %d slots for a %d-dimensional identity", sf.window, len(sf.slots), id.win.Dim())
		}
		if bound := growMargin(id.win); !bound.Contains(sf.window.Lo) || !bound.Contains(sf.window.Hi) {
			t.Fatalf("frame %v outside the identity window's margin %v", sf.window, bound)
		}
	})
}

// TestRestoreV1Upgrade restores a data directory that format version 1
// wrote (testdata/v1session): a snapshot whose repair colorer put
// sensors off their plan slots, plus a WAL of two later batches, with
// expected.json holding the live set at the final epoch. The restore
// must keep that live set, re-anchor the session one epoch past the
// files behind a version-2 snapshot, and send every client copy at an
// older epoch through a full resync — never a catch-up delta, which
// would patch old-policy slots with Theorem-1 ones. A second restart
// finds nothing to re-anchor.
func TestRestoreV1Upgrade(t *testing.T) {
	const fixture = "d50a1f047a1727064fd6a58c09c209d4"
	src := filepath.Join("testdata", "v1session")
	var want struct {
		Epoch uint64       `json:"epoch"`
		Alive int          `json:"alive"`
		Live  []ChangeSpec `json:"live"`
	}
	data, err := os.ReadFile(filepath.Join(src, "expected.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	plan := testPlan(t)
	wantLive := map[string]bool{}
	offPlan := 0
	for _, ch := range want.Live {
		wantLive[lattice.Point(ch.P).Key()] = true
		if ch.Slot != slotOf(plan, ch.P) {
			offPlan++
		}
	}
	if offPlan == 0 || len(wantLive) != want.Alive {
		t.Fatalf("fixture has %d off-plan sensors and %d live points (alive %d)", offPlan, len(wantLive), want.Alive)
	}
	dir := t.TempDir()
	for _, ext := range []string{".snap", ".wal"} {
		b, err := os.ReadFile(filepath.Join(src, fixture+ext))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, fixture+ext), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	var logged []string
	s := NewServer(NewRegistry(8), ServerOptions{
		Logf: func(f string, a ...any) { logged = append(logged, fmt.Sprintf(f, a...)) },
	})
	if err := s.EnablePersistence(PersistOptions{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	if n, err := s.RestoreSessions(); err != nil || n != 1 {
		t.Fatalf("RestoreSessions = (%d, %v), want (1, nil)", n, err)
	}
	reanchor := want.Epoch + 1
	spec := PlanSpec{Tile: TileSpec{Name: "cross:2:1"}}
	ws := WindowSpec{Lo: []int{0, 0}, Hi: []int{4, 4}}
	for _, from := range []uint64{want.Epoch, want.Epoch - 3} {
		feed, err := s.Subscribe(spec, ws, &from)
		if err != nil {
			t.Fatal(err)
		}
		if feed.Hello.Epoch != reanchor || feed.Hello.Alive != want.Alive || feed.Hello.M != plan.Slots() {
			t.Fatalf("subscriber at epoch %d: hello %+v, want epoch %d, alive %d", from, feed.Hello, reanchor, want.Alive)
		}
		if len(feed.Catch) != 1 || !feed.Catch[0].Full || feed.Catch[0].Epoch != reanchor {
			t.Fatalf("subscriber at epoch %d: %d catch-up deltas, want one full resync at %d", from, len(feed.Catch), reanchor)
		}
		got := feed.Catch[0].Changed
		if len(got) != want.Alive {
			t.Fatalf("resync holds %d sensors, fixture %d", len(got), want.Alive)
		}
		for _, ch := range got {
			if !wantLive[lattice.Point(ch.P).Key()] || ch.Slot != slotOf(plan, ch.P) {
				t.Fatalf("resync: %v on slot %d (live in fixture %v, plan slot %d)",
					ch.P, ch.Slot, wantLive[lattice.Point(ch.P).Key()], slotOf(plan, ch.P))
			}
		}
		feed.Close()
	}
	conflict := mutateJSON(t, s, persistBody(fmt.Sprintf(`"events":[{"op":"leave","p":[3,3]}],"epoch":%d`, want.Epoch)),
		http.StatusConflict)
	if conflict.Epoch != reanchor {
		t.Fatalf("409 reports epoch %d, want %d", conflict.Epoch, reanchor)
	}

	snap, err := os.ReadFile(filepath.Join(dir, fixture+".snap"))
	if err != nil {
		t.Fatal(err)
	}
	if _, epoch, sf, err := decodeSnapshot(snap); err != nil || sf.version != persistVersion || epoch != reanchor {
		t.Fatalf("snapshot on disk: version %d epoch %d (%v), want version %d epoch %d",
			sf.version, epoch, err, persistVersion, reanchor)
	}
	wal, err := os.ReadFile(filepath.Join(dir, fixture+".wal"))
	if err != nil {
		t.Fatal(err)
	}
	r := binwire.NewReader(wal)
	if _, payload := r.Frame(); r.Err() != nil {
		t.Fatal(r.Err())
	} else if _, base, version, err := decodeWALHeader(&payload); err != nil || version != persistVersion || base != reanchor {
		t.Fatalf("WAL on disk: version %d base %d (%v), want version %d base %d", version, base, err, persistVersion, reanchor)
	}
	if got := metricSum(t, s, "latticed_sessions_reanchored_total "); got != 1 {
		t.Fatalf("latticed_sessions_reanchored_total = %d, want 1", got)
	}
	var sawLog bool
	for _, line := range logged {
		sawLog = sawLog || strings.Contains(line, "re-anchored session "+plan.Signature()+"|")
	}
	if !sawLog {
		t.Fatalf("no re-anchor log line naming the session in %q", logged)
	}

	s2 := newPersistServer(t, dir, ServerOptions{})
	if n, err := s2.RestoreSessions(); err != nil || n != 1 {
		t.Fatalf("second RestoreSessions = (%d, %v), want (1, nil)", n, err)
	}
	if resync := mutateJSON(t, s2, persistBody(`"full":true`), http.StatusOK); resync.Epoch != reanchor {
		t.Fatalf("second restart at epoch %d, want %d", resync.Epoch, reanchor)
	}
	if got := metricSum(t, s2, "latticed_sessions_reanchored_total "); got != 0 {
		t.Fatalf("second restart re-anchored %d sessions", got)
	}
}

// TestRestoreSkipsOversizedWindow: a persisted identity whose session
// window exceeds MaxWindow — which a session would back with a live bit
// per point — is skipped at restore, as a mutate request naming it
// would be refused.
func TestRestoreSkipsOversizedWindow(t *testing.T) {
	dir := t.TempDir()
	plan := testPlan(t)
	e := binwire.Get()
	defer binwire.Put(e)
	encodeWALHeader(e, identOf(plan, mustWindow(t, []int{0, 0}, []int{1 << 20, 1 << 20})), 0)
	if err := os.WriteFile(filepath.Join(dir, "huge.wal"), e.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	s := newPersistServer(t, dir, ServerOptions{})
	if n, err := s.RestoreSessions(); err != nil || n != 0 {
		t.Fatalf("RestoreSessions = (%d, %v), want (0, nil)", n, err)
	}
}

// TestPersistWALGapStopsRestore restores a WAL whose records skip an
// epoch (1, then 3): the fold stops before the gap, the file is
// truncated there and the cut is counted as a torn tail, so the session
// never resumes at epoch 3 without epoch 2's events.
func TestPersistWALGapStopsRestore(t *testing.T) {
	dir := t.TempDir()
	s := newPersistServer(t, dir, ServerOptions{})
	ident := identOf(testPlan(t), mustWindow(t, []int{0, 0}, []int{4, 4}))
	_, walPath := s.sessions.store.paths(ident)
	e := binwire.Get()
	defer binwire.Put(e)
	encodeWALHeader(e, ident, 0)
	encodeWALRecord(e, 2, 1, []dynamic.Event{{Kind: dynamic.Leave, P: lattice.Pt(1, 1)}})
	usable := int64(e.Len())
	encodeWALRecord(e, 2, 3, []dynamic.Event{{Kind: dynamic.Leave, P: lattice.Pt(2, 2)}})
	if err := os.WriteFile(walPath, e.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	resync := mutateJSON(t, s, persistBody(`"full":true`), http.StatusOK)
	got := changedMap(resync)
	if _, ok := got["2,2"]; resync.Epoch != 1 || len(got) != 24 || !ok {
		t.Fatalf("restored epoch %d with %d sensors (2,2 live: %v), want epoch 1, 24 sensors, 2,2 live",
			resync.Epoch, len(got), ok)
	}
	if size := walSize(t, dir); size != usable {
		t.Fatalf("WAL is %d bytes after restore, want %d (cut at the gap)", size, usable)
	}
	if n := s.met.tornTails.Load(); n != 1 {
		t.Fatalf("%d torn tails counted, want 1", n)
	}
}

// TestPersistAppendFailureEndsSession fails a WAL append: the batch
// answers 500, counts latticed_wal_append_failures_total, and is neither
// acknowledged nor published, and the session ends, its subscribers
// with a resync bye. The next request restores the last durable epoch,
// so epoch 2 is acknowledged once, with the contents the log holds.
func TestPersistAppendFailureEndsSession(t *testing.T) {
	dir := t.TempDir()
	s := newPersistServer(t, dir, ServerOptions{MaxSessions: 1})
	mutateJSON(t, s, persistBody(`"events":[{"op":"leave","p":[1,1]}]`), http.StatusOK)
	one := uint64(1)
	feed, err := s.Subscribe(PlanSpec{Tile: TileSpec{Name: "cross:2:1"}}, WindowSpec{Lo: []int{0, 0}, Hi: []int{4, 4}}, &one)
	if err != nil {
		t.Fatal(err)
	}
	defer feed.Close()
	sess, err := s.sessions.lock(testPlan(t), mustWindow(t, []int{0, 0}, []int{4, 4}))
	if err != nil {
		t.Fatal(err)
	}
	sess.disk.wal.Close() // the next append fails
	sess.mu.Unlock()

	if n := s.met.walAppendFails.Load(); n != 0 {
		t.Fatalf("%d append failures counted before any failed, want 0", n)
	}
	mutateJSON(t, s, persistBody(`"events":[{"op":"leave","p":[2,2]}]`), http.StatusInternalServerError)
	if n := s.met.walAppendFails.Load(); n != 1 {
		t.Fatalf("%d append failures counted, want 1", n)
	}
	if d, open := <-feed.C; open {
		t.Fatalf("subscriber received epoch %d of an unlogged batch", d.Epoch)
	}
	if feed.Reason() != byeEvicted {
		t.Fatalf("subscriber ended with %q, want %q", feed.Reason(), byeEvicted)
	}
	other := `{"plan":{"tile":{"name":"cross:2:1"}},"window":{"lo":[0,0],"hi":[2,2]},"full":true}`
	mutateJSON(t, s, other, http.StatusOK)
	if r := mutateJSON(t, s, persistBody(`"events":[{"op":"leave","p":[3,3]}],"epoch":1`), http.StatusOK); r.Epoch != 2 {
		t.Fatalf("mutate from the last durable epoch answered epoch %d, want 2", r.Epoch)
	}

	s2 := newPersistServer(t, dir, ServerOptions{})
	resync := mutateJSON(t, s2, persistBody(`"full":true`), http.StatusOK)
	got := changedMap(resync)
	_, left11 := got["1,1"]
	_, live22 := got["2,2"]
	_, left33 := got["3,3"]
	if resync.Epoch != 2 || left11 || !live22 || left33 {
		t.Fatalf("after restart: epoch %d, 1,1 live %v, 2,2 live %v, 3,3 live %v; want epoch 2 with only 2,2 live",
			resync.Epoch, left11, live22, left33)
	}
}

// TestEncoderBytesPinned pins the bytes the persistence, mutate and
// delta encoders write for fixed inputs, so a codec change cannot move
// the on-disk format (version 2) or the wire format unnoticed.
func TestEncoderBytesPinned(t *testing.T) {
	plan := testPlan(t)
	id := identOf(plan, mustWindow(t, []int{-2, -3}, []int{4, 5}))
	sf := snapFrame{m: 5, window: mustWindow(t, []int{-1, 0}, []int{3, 4}), slots: make([]int32, 25)}
	for i := range sf.slots {
		sf.slots[i] = int32(i%6) - 1
	}
	changed := []ChangeSpec{{P: []int{-1, 2}, Slot: 3}, {P: []int{300, -70000}, Slot: -1}}
	epoch := uint64(9)
	for _, c := range []struct {
		name string
		enc  func(e *binwire.Buffer)
		want string
	}{
		{"snapshot", func(e *binwire.Buffer) { encodeSnapshot(e, id, 42, sf) },
			"5d00000060077b377b021e7371756172652f323a2d312c303b302c2d313b302c303b302c313b312c30067371756172650205010000010000000202000305080a2a0505010006081901000204060801000204060801000204060801000204060801"},
		{"WAL header", func(e *binwire.Buffer) { encodeWALHeader(e, id, 42) },
			"3d00000061426ba5da021e7371756172652f323a2d312c303b302c2d313b302c303b302c313b312c30067371756172650205010000010000000202000305080a2a"},
		{"WAL records", func(e *binwire.Buffer) {
			encodeWALRecord(e, 2, 43, []dynamic.Event{
				{Kind: dynamic.Join, P: lattice.Pt(1, 2)},
				{Kind: dynamic.Move, P: lattice.Pt(-1, 0), To: lattice.Pt(3, -4)},
			})
			encodeWALRecord(e, 2, 44, []dynamic.Event{
				{Kind: dynamic.Fail, P: lattice.Pt(0, 0)},
				{Kind: dynamic.Leave, P: lattice.Pt(-200, 1<<20)},
			})
		}, "0f0000006278c4ed412b0200020403010006071100000062e5ebae742c02020000018f0380808001"},
		{"mutate request", func(e *binwire.Buffer) {
			if err := EncodeMutateBinary(e, MutateRequest{
				Plan:   PlanSpec{Tile: TileSpec{Name: "cross:2:1"}},
				Window: WindowSpec{Lo: []int{0, -1}, Hi: []int{4, 5}},
				Events: []EventSpec{{Op: "join", P: []int{6, 2}}, {Op: "move", P: []int{1, 1}, To: []int{-3, 0}}},
				Epoch:  &epoch,
			}, ""); err != nil {
				t.Fatal(err)
			}
		}, "1e000000030000000963726f73733a323a310200010406010902000c040302020500"},
		{"mutate result", func(e *binwire.Buffer) {
			encodeMutateResponse(e, MutateResponse{Signature: plan.Signature(), Epoch: 10, M: 5, Alive: 24,
				Disruption: DisruptionSpec{Events: 2, Joined: 1, Departed: 1}, Changed: changed, Error: "partial"})
		}, "3c000000851e7371756172652f323a2d312c303b302c2d313b302c303b302c313b312c300a05180201010000000202010406d804dfc50801077061727469616c010000007f"},
		{"delta", func(e *binwire.Buffer) {
			encodeDeltaFrame(e, &Delta{Epoch: 10, M: 5, Alive: 24, Full: true, Changed: changed})
		}, "10000000870a0518010202010406d804dfc50801"},
	} {
		e := binwire.Get()
		c.enc(e)
		if got := hex.EncodeToString(e.Bytes()); got != c.want {
			t.Errorf("%s bytes:\n got %s\nwant %s", c.name, got, c.want)
		}
		binwire.Put(e)
	}
}

// FuzzFoldWAL holds restore and catch-up to the WAL fold's contract on
// whole WAL files. Restore never panics and allocates in proportion to
// the input. It is idempotent: a second restore over the files the
// first one kept reaches the same epoch and live set and truncates
// nothing more. Where catch-up covers the restored range, its deltas
// take the seed to the restored live set. The target recomputes the
// CRC of every whole frame first, so mutations reach record contents
// instead of failing the checksum.
func FuzzFoldWAL(f *testing.F) {
	plan, err := core.NewPlan(lattice.Square(), prototile.Cross(2, 1))
	if err != nil {
		f.Fatal(err)
	}
	w, err := lattice.NewWindow(lattice.Pt(0, 0), lattice.Pt(4, 4))
	if err != nil {
		f.Fatal(err)
	}
	ident := identOf(plan, w)
	ev := func(k dynamic.EventKind, x, y int) dynamic.Event { return dynamic.Event{Kind: k, P: lattice.Pt(x, y)} }
	move := dynamic.Event{Kind: dynamic.Move, P: lattice.Pt(0, 0), To: lattice.Pt(5, 5)}
	wal := func(body func(e *binwire.Buffer)) []byte {
		e := binwire.Get()
		defer binwire.Put(e)
		encodeWALHeader(e, ident, 0)
		body(e)
		return bytes.Clone(e.Bytes())
	}
	records := wal(func(e *binwire.Buffer) {
		encodeWALRecord(e, 2, 1, []dynamic.Event{ev(dynamic.Leave, 1, 1)})
		encodeWALRecord(e, 2, 2, []dynamic.Event{ev(dynamic.Join, 1, 1), ev(dynamic.Fail, 3, 3)})
		encodeWALRecord(e, 2, 3, []dynamic.Event{move})
	})
	f.Add(wal(func(*binwire.Buffer) {}))
	f.Add(records)
	f.Add(records[:len(records)-3])
	f.Add(wal(func(e *binwire.Buffer) {
		encodeWALRecord(e, 2, 1, []dynamic.Event{ev(dynamic.Leave, 1, 1)})
		encodeWALRecord(e, 2, 3, []dynamic.Event{ev(dynamic.Leave, 2, 2)})
	}))
	f.Add(wal(func(e *binwire.Buffer) {
		encodeWALRecord(e, 2, 1, []dynamic.Event{ev(dynamic.Leave, 1, 1)})
		encodeWALRecord(e, 2, 2, []dynamic.Event{ev(dynamic.Leave, 2, 2), ev(dynamic.Leave, 2, 2)})
	}))
	f.Add(wal(func(e *binwire.Buffer) {
		encodeWALRecord(e, 2, 1, []dynamic.Event{ev(dynamic.Leave, 1, 1)})
		off := beginCRCFrame(e, framePersistWALRecord+1)
		e.Uvarint(7)
		endCRCFrame(e, off)
		encodeWALRecord(e, 2, 2, []dynamic.Event{ev(dynamic.Join, 6, 2)})
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		data = fixCRCs(bytes.Clone(data))
		store, err := newSessionStore(PersistOptions{Dir: t.TempDir()}, newServerMetrics(ServerOptions{}), nil)
		if err != nil {
			t.Fatal(err)
		}
		_, walPath := store.paths(ident)
		if err := os.WriteFile(walPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		disk, live, epoch, err := store.open(plan, w)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("restore: %v", err)
		}
		disk.close()
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 128*uint64(len(data))+1<<20 {
			t.Fatalf("restore of %d bytes allocated %d", len(data), grew)
		}
		kept, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatal(err)
		}

		disk2, live2, epoch2, err := store.open(plan, w)
		if err != nil {
			t.Fatalf("second restore: %v", err)
		}
		disk2.close()
		again, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		sameLive := (live == nil) == (live2 == nil) && maps.Equal(liveKeys(live2), liveKeys(live))
		if epoch2 != epoch || !sameLive || !bytes.Equal(again, kept) {
			t.Fatalf("second restore: epoch %d → %d, same live set %v, WAL %d → %d bytes",
				epoch, epoch2, sameLive, len(kept), len(again))
		}

		r := binwire.NewReader(data)
		_, base, version, err := readWALHeader(&r)
		if err != nil || version != persistVersion || base >= epoch {
			return
		}
		deltas, ok := store.catchUp(plan, w, base, epoch)
		if !ok {
			t.Fatalf("catch-up refused epochs (%d, %d], which restore folded", base, epoch)
		}
		copyKeys := liveKeys(newLiveSet(w, true))
		for i, d := range deltas {
			if d.Epoch != base+uint64(i)+1 {
				t.Fatalf("catch-up delta %d has epoch %d, want %d", i, d.Epoch, base+uint64(i)+1)
			}
			for _, ch := range d.Changed {
				if k := lattice.Point(ch.P).Key(); ch.Slot < 0 {
					delete(copyKeys, k)
				} else if ch.Slot == slotOf(plan, ch.P) {
					copyKeys[k] = true
				} else {
					t.Fatalf("catch-up delta %d gives %v slot %d, plan slot %d", i, ch.P, ch.Slot, slotOf(plan, ch.P))
				}
			}
		}
		if len(deltas) != int(epoch-base) || !maps.Equal(copyKeys, liveKeys(live)) {
			t.Fatalf("%d catch-up deltas fold to %d sensors; restore holds %d at epoch %d",
				len(deltas), len(copyKeys), len(liveKeys(live)), epoch)
		}
	})
}

// fixCRCs rewrites the CRC slot of every whole persistence frame in
// data, stopping at the first frame that does not fit, and returns data.
func fixCRCs(data []byte) []byte {
	for off := 0; off+binwire.FrameHeaderLen+4 <= len(data); {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if n < 5 || n > len(data)-off-4 {
			break
		}
		end := off + 4 + n
		crc := off + binwire.FrameHeaderLen
		binary.LittleEndian.PutUint32(data[crc:], crc32.ChecksumIEEE(data[crc+4:end]))
		off = end
	}
	return data
}

// liveKeys returns the keys of a live set's points (none for nil).
func liveKeys(ls *liveSet) map[string]bool {
	if ls == nil {
		return nil
	}
	keys := map[string]bool{}
	ls.each(func(p lattice.Point) bool {
		keys[p.Key()] = true
		return true
	})
	return keys
}
