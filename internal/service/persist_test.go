package service

// Crash-recovery and durability suite for session persistence
// (DESIGN.md §12): frame codecs round-trip and reject corruption,
// restarts restore churned sessions at their exact epoch, torn WAL
// tails are truncated to the last good record, dirty evictions flush
// and count, and the mutate-margin arithmetic saturates at the int
// extremes instead of wrapping.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
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
	store, err := newSessionStore(PersistOptions{Dir: b.TempDir()}, nil, nil)
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

// TestPersistCorruptSnapshotDropped flips one snapshot byte: the CRC
// drops it under its own counter (not the torn-tail one), and because
// the WAL is based past the lost state the session resets to epoch 0
// instead of replaying the suffix.
func TestPersistCorruptSnapshotDropped(t *testing.T) {
	dir := t.TempDir()
	persistToEpoch3WithSnapshot(t, dir)
	snaps, _ := filepath.Glob(filepath.Join(dir, "*.snap"))
	data, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01
	if err := os.WriteFile(snaps[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := newPersistServer(t, dir, ServerOptions{})
	resync := mutateJSON(t, s2, persistBody(`"full":true`), http.StatusOK)
	if resync.Epoch != 0 {
		t.Fatalf("epoch after corrupt snapshot = %d, want 0", resync.Epoch)
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

// hugeSnapshot is a CRC-valid snapshot declaring a (2^20+1)² state
// window and the matching slot count with no slot bytes behind it — a
// frame that, decoded by its declared count, would size a 4 TB slot
// table.
func hugeSnapshot(t testing.TB) []byte {
	e := binwire.Get()
	defer binwire.Put(e)
	plan, err := core.NewPlan(lattice.Square(), prototile.Cross(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	w, err := lattice.NewWindow(lattice.Pt(0, 0), lattice.Pt(4, 4))
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
