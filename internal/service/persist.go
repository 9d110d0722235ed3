package service

// Session persistence (DESIGN.md §12): dynamic mutation sessions are
// the one piece of serving state that cannot be recomputed — the paper's
// schedules are compile-once, but a session's churn history (joins,
// departures, moves) exists only in the mutation stream. This file makes
// that stream durable with a per-session append-only WAL plus periodic
// snapshots, both framed by binwire:
//
//	<id>.wal    header frame (identity, base epoch) followed by one
//	            record frame per applied mutation batch: the post-batch
//	            epoch stamp and the applied events, CRC-guarded.
//	<id>.snap   one frame holding the identity plus the session's live
//	            set at a snapshot epoch — the bounding window of the
//	            live points and one slot per position, -1 where no
//	            sensor is live — CRC-guarded, written via tmp + rename.
//
// <id> is a hash of the session key (plan signature + window), and both
// headers carry the full identity — lattice name, tile points, window —
// so restore-on-start can recompile the plan from the file alone.
//
// Crash-safety invariants:
//
//   - Appends are sequential writes of whole frames; a crash can only
//     tear the final record. Replay detects the torn tail (truncated
//     frame or CRC mismatch), truncates the file back to the last good
//     record, and counts the recovery.
//   - Snapshots are written to a temp file, fsynced, and renamed before
//     the WAL is reset, so every point in time has either the old
//     (snapshot, log) pair or the new one.
//   - Replay is idempotent: records whose epoch is at or below the
//     restored epoch are skipped, so a crash between the snapshot
//     rename and the WAL reset double-applies nothing.
//   - Replay honors the WAL's base epoch: a log based past the state
//     actually restored (snapshot lost, corrupt, or rolled back) is
//     unrecoverable — its suffix would replay onto the wrong base — so
//     it is reset to the restored state instead of fabricating an
//     assignment.
//   - Epochs re-derive from the files: the session resumes at the
//     snapshot epoch plus one per replayed record.
//   - Restore re-anchors state another slot policy wrote: a version-1
//     file, or a stored slot that is not plan.SlotOf(p), moves the
//     session to epoch + 1 behind a fresh snapshot, so no client copy
//     of the old slots is ever patched with Theorem-1 deltas.
//
// Fsync policy: snapshot writes always sync before rename, and every
// rename is followed by an fsync of the data directory (a rename whose
// directory entry is not synced can be lost — or reordered against the
// WAL reset — on power loss, silently rolling the pair back). WAL
// appends sync per record only when PersistOptions.Fsync is set (the
// default trusts the OS page cache, surviving process restarts but not
// power loss — see DESIGN.md §12 for the trade).

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"time"

	"tilingsched/internal/core"
	"tilingsched/internal/dynamic"
	"tilingsched/internal/lattice"
	"tilingsched/internal/service/binwire"
)

// PersistOptions configures session persistence (Server.EnablePersistence).
type PersistOptions struct {
	// Dir is the data directory; one WAL (and at most one snapshot) per
	// session lives under it. Created if missing.
	Dir string
	// Fsync syncs the WAL after every appended record. Off, appends
	// still reach the file immediately (restart-safe) but a power loss
	// can drop the unsynced suffix; snapshots sync regardless.
	Fsync bool
	// SnapshotEvery is the number of logged events after which the
	// session is snapshotted and its WAL truncated. 0 selects
	// DefaultSnapshotEvery; negative disables periodic snapshots
	// (eviction and FlushSessions still write them).
	SnapshotEvery int
}

// DefaultSnapshotEvery is the WAL growth bound: after this many logged
// events a snapshot replaces the log, keeping replay O(SnapshotEvery)
// instead of O(session lifetime).
const DefaultSnapshotEvery = 4096

// persistVersion is the on-disk format version, bumped on any frame
// grammar or meaning change. Version 2 keeps version 1's grammar, but
// its snapshot slots are always plan.SlotOf(p); version 1 still decodes.
const persistVersion = 2

// Persistence frame types (disjoint from the wire protocol's for
// clarity; the files never share a stream with HTTP frames).
const (
	framePersistSnap      byte = 0x60
	framePersistWALHeader byte = 0x61
	framePersistWALRecord byte = 0x62
)

// maxWALRecordEvents bounds the event count a single WAL record may
// declare, so a corrupt length cannot size a huge allocation during
// replay.
const maxWALRecordEvents = 1 << 20

// SessionStore owns a data directory of per-session WAL + snapshot
// pairs. One store serves one sessionTable, which serializes all of a
// key's file I/O: a live session's appends and snapshots run under its
// mutex, open runs only for the table's single-flighted builder, and a
// re-open waits out the key's eviction flush (sessionTable.building /
// .evicting) — so the store itself needs no locking.
type SessionStore struct {
	dir       string
	fsync     bool
	snapEvery int
	met       *Metrics // nil in bare tests
	logf      func(format string, args ...any)
}

// newSessionStore validates the options and creates the directory.
func newSessionStore(o PersistOptions, met *Metrics, logf func(string, ...any)) (*SessionStore, error) {
	if o.Dir == "" {
		return nil, fmt.Errorf("%w: persistence requires a data directory", ErrSpec)
	}
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: creating data dir: %w", err)
	}
	st := &SessionStore{dir: o.Dir, fsync: o.Fsync, snapEvery: o.SnapshotEvery, met: met, logf: logf}
	if st.snapEvery == 0 {
		st.snapEvery = DefaultSnapshotEvery
	}
	return st, nil
}

// logfSafe logs through the store's sink when one is configured.
func (st *SessionStore) logfSafe(format string, args ...any) {
	if st.logf != nil {
		st.logf(format, args...)
	}
}

// sessIdent is the on-disk identity of a session: enough to recompile
// its plan (lattice name + canonical tile points) and re-key it
// (signature + declared window).
type sessIdent struct {
	sig  string
	lat  string
	tile []lattice.Point
	win  lattice.Window
}

// same reports whether two identities name the same session.
func (id sessIdent) same(o sessIdent) bool {
	return id.sig == o.sig && id.win.Lo.Equal(o.win.Lo) && id.win.Hi.Equal(o.win.Hi)
}

// identOf derives the identity from a live (plan, window) pair.
func identOf(plan *core.Plan, w lattice.Window) sessIdent {
	return sessIdent{
		sig:  plan.Signature(),
		lat:  plan.Lattice().Name(),
		tile: plan.Tile().Points(),
		win:  w,
	}
}

// sessionFileID maps a session key to its filename stem: a truncated
// SHA-256, so arbitrary signatures and windows stay filesystem-safe.
func sessionFileID(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:16])
}

// paths returns the snapshot and WAL paths of a session id.
func (st *SessionStore) paths(id string) (snap, wal string) {
	return filepath.Join(st.dir, id+".snap"), filepath.Join(st.dir, id+".wal")
}

// --- Frame encoding -------------------------------------------------------

// beginCRCFrame opens a frame and reserves its 4-byte CRC slot,
// returning the slot's offset for endCRCFrame. The frame must be the
// buffer's last content when closed.
func beginCRCFrame(e *binwire.Buffer, typ byte) int {
	e.BeginFrame(typ)
	off := e.Len()
	e.Raw([]byte{0, 0, 0, 0})
	return off
}

// endCRCFrame closes the frame and fills the CRC of everything after
// the slot.
func endCRCFrame(e *binwire.Buffer, off int) {
	e.EndFrame()
	b := e.Bytes()
	binary.LittleEndian.PutUint32(b[off:], crc32.ChecksumIEEE(b[off+4:]))
}

// crcBody verifies a CRC-guarded payload and returns a reader over the
// guarded bytes.
func crcBody(r *binwire.Reader) (binwire.Reader, error) {
	head := r.Bytes(4)
	if head == nil {
		return binwire.Reader{}, fmt.Errorf("%w: payload too short for CRC", binwire.ErrMalformed)
	}
	want := binary.LittleEndian.Uint32(head)
	rest := r.Bytes(r.Remaining())
	if crc32.ChecksumIEEE(rest) != want {
		return binwire.Reader{}, fmt.Errorf("%w: CRC mismatch", binwire.ErrMalformed)
	}
	return binwire.NewReader(rest), nil
}

// encodeIdent appends the identity fields.
func encodeIdent(e *binwire.Buffer, id sessIdent) {
	e.String(id.sig)
	e.String(id.lat)
	dim := id.win.Dim()
	e.Uvarint(uint64(dim))
	e.Uvarint(uint64(len(id.tile)))
	for _, pt := range id.tile {
		for a := 0; a < dim; a++ {
			e.Varint(int64(pt[a]))
		}
	}
	for a := 0; a < dim; a++ {
		e.Varint(int64(id.win.Lo[a]))
	}
	for a := 0; a < dim; a++ {
		e.Varint(int64(id.win.Hi[a]))
	}
}

// decodeIdent reads the identity fields with the wire-level bounds.
func decodeIdent(r *binwire.Reader) (sessIdent, error) {
	var id sessIdent
	id.sig = r.String(1 << 12)
	id.lat = r.String(64)
	dim := r.Count(maxTileDim, "identity dimension")
	tileN := r.Count(maxTilePoints, "identity tile size")
	if err := r.Err(); err != nil {
		return sessIdent{}, err
	}
	if dim < 1 {
		return sessIdent{}, fmt.Errorf("%w: identity dimension 0", binwire.ErrMalformed)
	}
	id.tile = make([]lattice.Point, tileN)
	for i := range id.tile {
		p := make(lattice.Point, dim)
		for a := 0; a < dim; a++ {
			p[a] = int(r.Varint())
		}
		id.tile[i] = p
	}
	lo := make(lattice.Point, dim)
	hi := make(lattice.Point, dim)
	for a := 0; a < dim; a++ {
		lo[a] = int(r.Varint())
	}
	for a := 0; a < dim; a++ {
		hi[a] = int(r.Varint())
	}
	if err := r.Err(); err != nil {
		return sessIdent{}, err
	}
	w, err := lattice.NewWindow(lo, hi)
	if err != nil {
		return sessIdent{}, fmt.Errorf("%w: identity window: %v", binwire.ErrMalformed, err)
	}
	id.win = w
	return id, nil
}

// snapFrame is the session state a snapshot carries: the frame window
// (the bounding window of the live points) and one slot per frame
// position in IndexOf order, -1 where no sensor is live. m fills the
// grammar's palette and budget fields; version is the decoded file's.
type snapFrame struct {
	version uint64
	m       int
	window  lattice.Window
	slots   []int32
}

// encodeSnapshot builds the complete snapshot file contents.
func encodeSnapshot(e *binwire.Buffer, id sessIdent, epoch uint64, sf snapFrame) {
	off := beginCRCFrame(e, framePersistSnap)
	e.Uvarint(persistVersion)
	encodeIdent(e, id)
	e.Uvarint(epoch)
	e.Uvarint(uint64(sf.m)) // palette
	e.Uvarint(uint64(sf.m)) // budget
	dim := id.win.Dim()
	for a := 0; a < dim; a++ {
		e.Varint(int64(sf.window.Lo[a]))
	}
	for a := 0; a < dim; a++ {
		e.Varint(int64(sf.window.Hi[a]))
	}
	e.Uvarint(uint64(len(sf.slots)))
	for _, s := range sf.slots {
		e.Varint(int64(s))
	}
	endCRCFrame(e, off)
}

// decodeSnapshot parses a snapshot file. Every count is bounded by the
// bytes left in the payload, so a hostile file cannot size a huge
// allocation.
func decodeSnapshot(data []byte) (sessIdent, uint64, snapFrame, error) {
	fail := func(err error) (sessIdent, uint64, snapFrame, error) { return sessIdent{}, 0, snapFrame{}, err }
	stream := binwire.NewReader(data)
	typ, payload := stream.Frame()
	if err := stream.Err(); err != nil {
		return fail(err)
	}
	if typ != framePersistSnap {
		return fail(fmt.Errorf("%w: frame %#x is not a snapshot", binwire.ErrMalformed, typ))
	}
	r, err := crcBody(&payload)
	if err != nil {
		return fail(err)
	}
	var sf snapFrame
	if sf.version = r.Uvarint(); r.Err() == nil && (sf.version < 1 || sf.version > persistVersion) {
		return fail(fmt.Errorf("%w: snapshot version %d", binwire.ErrMalformed, sf.version))
	}
	id, err := decodeIdent(&r)
	if err != nil {
		return fail(err)
	}
	epoch := r.Uvarint()
	sf.m = r.Count(1<<31-1, "palette")
	r.Count(1<<31-1, "budget")
	dim := id.win.Dim()
	lo := make(lattice.Point, dim)
	hi := make(lattice.Point, dim)
	for a := 0; a < dim; a++ {
		lo[a] = int(r.Varint())
	}
	for a := 0; a < dim; a++ {
		hi[a] = int(r.Varint())
	}
	if err := r.Err(); err != nil {
		return fail(err)
	}
	if sf.window, err = lattice.NewWindow(lo, hi); err != nil {
		return fail(fmt.Errorf("%w: state window: %v", binwire.ErrMalformed, err))
	}
	size, err := sf.window.SizeChecked()
	if err != nil {
		return fail(fmt.Errorf("%w: state window: %v", binwire.ErrMalformed, err))
	}
	// Each slot takes at least one varint byte.
	n := r.Count(min(size, r.Remaining()), "slot count")
	if r.Err() == nil && n != size {
		return fail(fmt.Errorf("%w: %d slots for a %d-point window", binwire.ErrMalformed, n, size))
	}
	sf.slots = make([]int32, n)
	for i := range sf.slots {
		sf.slots[i] = int32(r.Varint())
	}
	r.Done()
	if err := r.Err(); err != nil {
		return fail(err)
	}
	return id, epoch, sf, nil
}

// encodeWALHeader builds the WAL's opening frame.
func encodeWALHeader(e *binwire.Buffer, id sessIdent, baseEpoch uint64) {
	off := beginCRCFrame(e, framePersistWALHeader)
	e.Uvarint(persistVersion)
	encodeIdent(e, id)
	e.Uvarint(baseEpoch)
	endCRCFrame(e, off)
}

// decodeWALHeader parses the WAL's opening frame payload: the identity,
// the base epoch, and the format version.
func decodeWALHeader(payload *binwire.Reader) (sessIdent, uint64, uint64, error) {
	r, err := crcBody(payload)
	if err != nil {
		return sessIdent{}, 0, 0, err
	}
	v := r.Uvarint()
	if r.Err() == nil && (v < 1 || v > persistVersion) {
		return sessIdent{}, 0, 0, fmt.Errorf("%w: WAL version %d", binwire.ErrMalformed, v)
	}
	id, err := decodeIdent(&r)
	if err != nil {
		return sessIdent{}, 0, 0, err
	}
	base := r.Uvarint()
	r.Done()
	if err := r.Err(); err != nil {
		return sessIdent{}, 0, 0, err
	}
	return id, base, v, nil
}

// encodeWALRecord builds one record frame: the post-batch epoch stamp
// plus the applied events.
func encodeWALRecord(e *binwire.Buffer, dim int, epoch uint64, events []dynamic.Event) {
	off := beginCRCFrame(e, framePersistWALRecord)
	e.Uvarint(epoch)
	e.Uvarint(uint64(len(events)))
	for _, ev := range events {
		e.Byte(byte(ev.Kind))
		for a := 0; a < dim; a++ {
			e.Varint(int64(ev.P[a]))
		}
		if ev.Kind == dynamic.Move {
			for a := 0; a < dim; a++ {
				e.Varint(int64(ev.To[a]))
			}
		}
	}
	endCRCFrame(e, off)
}

// decodeWALRecord parses one record frame payload.
func decodeWALRecord(payload *binwire.Reader, dim int) (uint64, []dynamic.Event, error) {
	r, err := crcBody(payload)
	if err != nil {
		return 0, nil, err
	}
	epoch := r.Uvarint()
	n := r.Count(maxWALRecordEvents, "record events")
	if err := r.Err(); err != nil {
		return 0, nil, err
	}
	// Pre-allocate only what the payload could actually hold — one kind
	// byte plus at least one varint byte per coordinate — so a corrupt
	// count cannot size a huge allocation before the first event byte is
	// read (the static cap alone still admits ~50 MB of Event headers).
	capHint := n
	if most := r.Remaining() / (1 + dim); capHint > most {
		capHint = most
	}
	events := make([]dynamic.Event, 0, capHint)
	readPoint := func() lattice.Point {
		p := make(lattice.Point, dim)
		for a := 0; a < dim; a++ {
			p[a] = int(r.Varint())
		}
		return p
	}
	for i := 0; i < n; i++ {
		kind := dynamic.EventKind(r.Byte())
		ev := dynamic.Event{Kind: kind, P: readPoint()}
		switch kind {
		case dynamic.Join, dynamic.Leave, dynamic.Fail:
		case dynamic.Move:
			ev.To = readPoint()
		default:
			if r.Err() != nil {
				return 0, nil, r.Err()
			}
			return 0, nil, fmt.Errorf("%w: record event %d has unknown kind %d", binwire.ErrMalformed, i, kind)
		}
		if r.Err() != nil {
			return 0, nil, r.Err()
		}
		events = append(events, ev)
	}
	r.Done()
	if err := r.Err(); err != nil {
		return 0, nil, err
	}
	return epoch, events, nil
}

// --- Per-session disk state -----------------------------------------------

// sessionDisk is one session's durable face: the open WAL plus the
// bookkeeping that decides when to snapshot. All methods run under the
// owning session's mutex.
type sessionDisk struct {
	store     *SessionStore
	ident     sessIdent
	id        string
	wal       *os.File
	walEvents int   // events logged since the last snapshot
	walBytes  int64 // current WAL file size (header + records)
}

// append logs one applied batch: the post-batch epoch and the applied
// event prefix, as a single CRC-guarded frame, fsynced per the store's
// policy.
func (d *sessionDisk) append(epoch uint64, events []dynamic.Event) error {
	start := time.Now()
	e := binwire.Get()
	defer binwire.Put(e)
	encodeWALRecord(e, d.ident.win.Dim(), epoch, events)
	if _, err := d.wal.Write(e.Bytes()); err != nil {
		return fmt.Errorf("service: WAL append: %w", err)
	}
	d.walEvents += len(events)
	d.walBytes += int64(len(e.Bytes()))
	if m := d.store.met; m != nil {
		m.walAppends.Inc()
		m.walAppendNs.Record(uint64(time.Since(start)))
	}
	if d.store.fsync {
		syncStart := time.Now()
		if err := d.wal.Sync(); err != nil {
			return fmt.Errorf("service: WAL fsync: %w", err)
		}
		if m := d.store.met; m != nil {
			m.walFsyncs.Inc()
			m.walFsyncNs.Record(uint64(time.Since(syncStart)))
		}
	}
	return nil
}

// shouldSnapshot reports whether the WAL has outgrown the snapshot
// threshold.
func (d *sessionDisk) shouldSnapshot() bool {
	return d.store.snapEvery > 0 && d.walEvents >= d.store.snapEvery
}

// snapshot checkpoints the live set: the state is written to a temp
// file, fsynced, renamed over the snapshot path, and only then is the
// WAL reset to an empty log based at the snapshot epoch. A crash
// between the two steps leaves stale WAL records, which replay skips by
// epoch (idempotence).
func (d *sessionDisk) snapshot(plan *core.Plan, live *liveSet, epoch uint64) error {
	start := time.Now()
	snapPath, walPath := d.store.paths(d.id)
	e := binwire.Get()
	defer binwire.Put(e)
	fw, slots := live.frame(plan)
	encodeSnapshot(e, d.ident, epoch, snapFrame{m: plan.Slots(), window: fw, slots: slots})
	if err := writeFileSync(snapPath, e.Bytes()); err != nil {
		return fmt.Errorf("service: writing snapshot: %w", err)
	}
	e.Reset()
	encodeWALHeader(e, d.ident, epoch)
	fresh, err := replaceFileSync(walPath, e.Bytes())
	if err != nil {
		return fmt.Errorf("service: resetting WAL: %w", err)
	}
	_ = d.wal.Close()
	d.wal = fresh
	d.walEvents = 0
	d.walBytes = int64(e.Len())
	if m := d.store.met; m != nil {
		m.snapshots.Inc()
		m.snapshotNs.Record(uint64(time.Since(start)))
	}
	return nil
}

// close releases the WAL handle (eviction, shutdown).
func (d *sessionDisk) close() {
	if d.wal != nil {
		_ = d.wal.Close()
		d.wal = nil
	}
}

// writeFileSync writes data to path atomically: temp file, fsync,
// rename.
func writeFileSync(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(path)
}

// syncDir fsyncs the directory containing path, making a preceding
// rename durable: file-level fsyncs order the data, but only a
// directory sync pins the rename itself, and an unpinned rename can be
// lost — or reordered against a later one — on power loss.
func syncDir(path string) error {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	return serr
}

// replaceFileSync atomically replaces path with data and returns an
// open handle positioned at its end, ready for appends.
func replaceFileSync(path string, data []byte) (*os.File, error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return nil, err
	}
	tmp := f.Name()
	fail := func(err error) (*os.File, error) {
		f.Close()
		os.Remove(tmp)
		return nil, err
	}
	if _, err := f.Write(data); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fail(err)
	}
	if err := syncDir(path); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// --- Open / restore -------------------------------------------------------

// restored is the state a session's files fold into.
type restored struct {
	live  *liveSet // nil: nothing on disk to restore
	epoch uint64
	stale bool // a version-1 file was read, or a stored slot is off the plan
}

// open attaches a session to its on-disk state. When a snapshot or WAL
// exists, the session is restored — the snapshot's live points first,
// then every WAL record above the restored epoch folded in through the
// normal apply path — and the returned live set is non-nil with the
// re-derived epoch. State another slot policy wrote is re-anchored: the
// epoch moves one past it and a fresh snapshot replaces the files, so
// every client copy at an older epoch must resync. When nothing
// (usable) is on disk, the returned set is nil and the caller seeds a
// fresh session; either way the returned disk handle is ready for
// appends. Corrupt tails and unreadable files are recovered (truncate /
// recreate) and counted, never fatal; only real I/O errors fail the
// open.
func (st *SessionStore) open(plan *core.Plan, w lattice.Window) (*sessionDisk, *liveSet, uint64, error) {
	ident := identOf(plan, w)
	key := ident.sig + "|" + w.String()
	id := sessionFileID(key)
	snapPath, walPath := st.paths(id)
	d := &sessionDisk{store: st, ident: ident, id: id}

	var rs restored
	if data, err := os.ReadFile(snapPath); err == nil {
		sid, sepoch, sf, derr := decodeSnapshot(data)
		if derr == nil && !sid.same(ident) {
			derr = fmt.Errorf("snapshot names session %s|%s", sid.sig, sid.win)
		}
		if derr == nil {
			rs.live, rs.stale = foldFrame(plan, w, sf.window, sf.slots)
			rs.epoch = sepoch
			rs.stale = rs.stale || sf.version < persistVersion
		} else {
			st.logfSafe("latticed: dropping corrupt snapshot %s: %v", snapPath, derr)
			if m := st.met; m != nil {
				m.snapsDropped.Inc()
			}
			os.Remove(snapPath)
		}
	} else if !os.IsNotExist(err) {
		return nil, nil, 0, fmt.Errorf("service: reading snapshot: %w", err)
	}

	walData, walErr := os.ReadFile(walPath)
	switch {
	case walErr == nil:
		seeded := rs.live != nil
		replayed, rerr := st.replay(plan, w, &rs, walPath, walData)
		if rerr != nil {
			return nil, nil, 0, rerr
		}
		// A WAL with no snapshot and no replayable records describes a
		// session that never mutated: treat it as fresh so the caller
		// seeds it (identical state, cheaper path).
		if !seeded && replayed == 0 {
			rs.live = nil
		}
		if d.wal, walErr = os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644); walErr != nil {
			return nil, nil, 0, fmt.Errorf("service: opening WAL: %w", walErr)
		}
		// Size for the /statusz WAL gauge; stat after open so a torn
		// tail truncated by replay is not counted.
		if fi, serr := d.wal.Stat(); serr == nil {
			d.walBytes = fi.Size()
		}
	case os.IsNotExist(walErr):
		// Fresh WAL based at the restored epoch (0 for a new session).
		e := binwire.Get()
		encodeWALHeader(e, ident, rs.epoch)
		hdrLen := int64(e.Len())
		f, err := replaceFileSync(walPath, e.Bytes())
		binwire.Put(e)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("service: creating WAL: %w", err)
		}
		d.wal = f
		d.walBytes = hdrLen
	default:
		return nil, nil, 0, fmt.Errorf("service: reading WAL: %w", walErr)
	}
	if rs.stale {
		if rs.live == nil {
			rs.live = newLiveSet(w, true)
		}
		rs.epoch++
		if err := d.snapshot(plan, rs.live, rs.epoch); err != nil {
			d.close()
			return nil, nil, 0, fmt.Errorf("service: re-anchoring: %w", err)
		}
		st.logfSafe("latticed: re-anchored session %s at epoch %d: its files held another slot policy's slots",
			key, rs.epoch)
		if m := st.met; m != nil {
			m.sessReanchored.Inc()
		}
	}
	return d, rs.live, rs.epoch, nil
}

// resetWAL replaces a log the restore cannot use (corrupt header, or a
// base epoch past the restored state) with a bare header based at
// epoch, counting the reset.
func (st *SessionStore) resetWAL(ident sessIdent, walPath string, epoch uint64) error {
	if m := st.met; m != nil {
		m.walResets.Inc()
	}
	e := binwire.Get()
	defer binwire.Put(e)
	encodeWALHeader(e, ident, epoch)
	f, err := replaceFileSync(walPath, e.Bytes())
	if err != nil {
		return fmt.Errorf("service: resetting WAL: %w", err)
	}
	f.Close()
	return nil
}

// replay folds a WAL's records into rs (a nil live set is seeded from
// the declared window first). It truncates any torn tail and returns
// the number of events replayed.
func (st *SessionStore) replay(plan *core.Plan, w lattice.Window, rs *restored, walPath string, data []byte) (int, error) {
	r := binwire.NewReader(data)
	typ, payload := r.Frame()
	var base, version uint64
	headerOK := r.Err() == nil && typ == framePersistWALHeader
	if headerOK {
		var herr error
		_, base, version, herr = decodeWALHeader(&payload)
		headerOK = herr == nil
	}
	if !headerOK {
		// Unusable header: the log carries nothing recoverable. Reset it.
		st.logfSafe("latticed: resetting WAL with corrupt header %s", walPath)
		return 0, st.resetWAL(identOf(plan, w), walPath, rs.epoch)
	}
	if base > rs.epoch {
		// The log is based on state we do not have — the snapshot it was
		// truncated against is lost, corrupt, or rolled back, so events
		// 1..base are gone. Replaying the surviving suffix onto the
		// restored (older or seed) state would fabricate a silently wrong
		// assignment; reset to the state actually restored instead.
		st.logfSafe("latticed: WAL %s based at epoch %d but restored state is at epoch %d: dropping unrecoverable log",
			walPath, base, rs.epoch)
		return 0, st.resetWAL(identOf(plan, w), walPath, rs.epoch)
	}
	rs.stale = rs.stale || version < persistVersion

	dim := w.Dim()
	replayed := 0
	torn := false
	good := len(data) - r.Remaining()
	for r.Remaining() > 0 {
		typ, payload := r.Frame()
		if r.Err() != nil {
			torn = true
			break
		}
		if typ != framePersistWALRecord {
			// Unknown frame type: skip (forward compatibility).
			good = len(data) - r.Remaining()
			continue
		}
		recEpoch, events, derr := decodeWALRecord(&payload, dim)
		if derr != nil {
			torn = true
			break
		}
		if recEpoch > rs.epoch {
			if rs.live == nil {
				rs.live = newLiveSet(w, true)
			}
			if _, _, aerr := rs.live.apply(events); aerr != nil {
				// A logged batch that no longer applies means the prefix
				// up to here is the usable log; drop the rest.
				st.logfSafe("latticed: WAL %s: replay stopped at epoch %d: %v", walPath, recEpoch, aerr)
				torn = true
				break
			}
			rs.epoch = recEpoch
			replayed += len(events)
		}
		good = len(data) - r.Remaining()
	}
	if torn {
		st.logfSafe("latticed: WAL %s: torn tail detected, truncating %d trailing bytes",
			walPath, len(data)-good)
		if m := st.met; m != nil {
			m.tornTails.Inc()
		}
		if err := os.Truncate(walPath, int64(good)); err != nil {
			return 0, fmt.Errorf("service: truncating torn WAL: %w", err)
		}
	}
	if m := st.met; m != nil && replayed > 0 {
		m.replayedEvents.Add(uint64(replayed))
	}
	return replayed, nil
}

// catchUp rebuilds the persisted delta history of (plan, w) for a stale
// subscriber: one Delta per epoch in (from, to], oldest first, folded
// from the on-disk snapshot + WAL into a throwaway live set. Unlike
// replay it is strictly read-only — it runs concurrently with the live
// session's appends (every record with epoch ≤ to is fully written
// before the caller observed to under the session lock, so the prefix
// it needs is stable; torn newer bytes are simply not reached) — and it
// never truncates or resets files. ok is false whenever the gap is not
// covered — snapshot already past from, unusable or rotated WAL, a gap
// or torn tail before to, state another slot policy wrote — and the
// caller falls back to a full resync.
func (st *SessionStore) catchUp(plan *core.Plan, w lattice.Window, from, to uint64) ([]*Delta, bool) {
	if from >= to {
		return nil, true
	}
	ident := identOf(plan, w)
	snapPath, walPath := st.paths(sessionFileID(ident.sig + "|" + w.String()))

	var live *liveSet
	var cur uint64
	if data, err := os.ReadFile(snapPath); err == nil {
		sid, sepoch, sf, derr := decodeSnapshot(data)
		if derr != nil || !sid.same(ident) || sf.version < persistVersion {
			return nil, false
		}
		if sepoch > from {
			// Epochs (from, sepoch] are baked into the snapshot; their
			// individual deltas are gone.
			return nil, false
		}
		var stale bool
		if live, stale = foldFrame(plan, w, sf.window, sf.slots); stale {
			return nil, false
		}
		cur = sepoch
	} else if !os.IsNotExist(err) {
		return nil, false
	}

	data, err := os.ReadFile(walPath)
	if err != nil {
		return nil, false
	}
	r := binwire.NewReader(data)
	typ, payload := r.Frame()
	if r.Err() != nil || typ != framePersistWALHeader {
		return nil, false
	}
	if _, base, version, herr := decodeWALHeader(&payload); herr != nil || base > cur || version < persistVersion {
		// base > cur: the log was rotated against a snapshot newer than
		// the one read above (or the snapshot is missing) — its records
		// would replay onto the wrong base.
		return nil, false
	}
	if live == nil {
		live = newLiveSet(w, true)
	}

	dim := w.Dim()
	var deltas []*Delta
	for cur < to && r.Remaining() > 0 {
		typ, payload := r.Frame()
		if r.Err() != nil {
			return nil, false
		}
		if typ != framePersistWALRecord {
			continue
		}
		recEpoch, events, derr := decodeWALRecord(&payload, dim)
		if derr != nil {
			return nil, false
		}
		if recEpoch <= cur {
			continue // pre-snapshot leftovers (idempotent skip, as in replay)
		}
		if recEpoch != cur+1 {
			return nil, false // a hole in the history
		}
		_, touched, aerr := live.apply(events)
		if aerr != nil {
			return nil, false
		}
		cur = recEpoch
		if cur > from {
			deltas = append(deltas, &Delta{Epoch: cur, M: plan.Slots(), Alive: live.alive,
				Changed: live.changes(plan, touched)})
		}
	}
	if cur < to {
		return nil, false
	}
	return deltas, true
}

// list scans the data directory and returns the identity of every
// persisted session, oldest first (so restoring in order leaves the
// most recently touched sessions at the front of the LRU).
func (st *SessionStore) list() ([]sessIdent, error) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, fmt.Errorf("service: reading data dir: %w", err)
	}
	type cand struct {
		ident sessIdent
		mtime time.Time
	}
	byID := map[string]*cand{}
	add := func(stem string, ident sessIdent, mtime time.Time) {
		c, ok := byID[stem]
		if !ok {
			byID[stem] = &cand{ident: ident, mtime: mtime}
			return
		}
		if mtime.After(c.mtime) {
			c.mtime = mtime
		}
	}
	for _, ent := range entries {
		name := ent.Name()
		info, err := ent.Info()
		if err != nil {
			continue
		}
		switch {
		case filepath.Ext(name) == ".snap":
			data, err := os.ReadFile(filepath.Join(st.dir, name))
			if err != nil {
				continue
			}
			ident, _, _, derr := decodeSnapshot(data)
			if derr != nil {
				st.logfSafe("latticed: skipping unreadable snapshot %s: %v", name, derr)
				continue
			}
			add(name[:len(name)-len(".snap")], ident, info.ModTime())
		case filepath.Ext(name) == ".wal":
			data, err := os.ReadFile(filepath.Join(st.dir, name))
			if err != nil {
				continue
			}
			r := binwire.NewReader(data)
			typ, payload := r.Frame()
			if r.Err() != nil || typ != framePersistWALHeader {
				st.logfSafe("latticed: skipping WAL with unreadable header %s", name)
				continue
			}
			ident, _, _, derr := decodeWALHeader(&payload)
			if derr != nil {
				st.logfSafe("latticed: skipping WAL with unreadable header %s: %v", name, derr)
				continue
			}
			add(name[:len(name)-len(".wal")], ident, info.ModTime())
		}
	}
	out := make([]sessIdent, 0, len(byID))
	stems := make([]string, 0, len(byID))
	for stem := range byID {
		stems = append(stems, stem)
	}
	sort.Slice(stems, func(i, j int) bool {
		a, b := byID[stems[i]], byID[stems[j]]
		if !a.mtime.Equal(b.mtime) {
			return a.mtime.Before(b.mtime)
		}
		return stems[i] < stems[j]
	})
	for _, stem := range stems {
		out = append(out, byID[stem].ident)
	}
	return out, nil
}
