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
// Restore (open) and catch-up read the files through the same readers
// and fold the WAL under one rule set (foldWAL); open repairs what the
// fold could not use, catch-up only reads. Crash-safety invariants:
//
//   - Appends are sequential writes of whole frames; a crash can only
//     tear the final record. The fold stops at the torn tail (truncated
//     frame or CRC mismatch), and open truncates the file back to the
//     last good record and counts the recovery.
//   - Snapshots are written to a temp file, fsynced, and renamed before
//     the WAL is reset, so every point in time has either the old
//     (snapshot, log) pair or the new one.
//   - The fold is idempotent: records whose epoch is at or below the
//     restored epoch are skipped, so a crash between the snapshot
//     rename and the WAL reset double-applies nothing.
//   - The fold has no holes: the next record must be the restored epoch
//     plus one, and a record that skips an epoch or does not apply ends
//     the usable log.
//   - Restore honors the WAL's base epoch: a log based past the state
//     actually restored (snapshot lost, corrupt, or rolled back) is
//     unrecoverable — its suffix would replay onto the wrong base — so
//     it is reset to the restored state instead of fabricating an
//     assignment.
//   - Epochs re-derive from the files: the session resumes at the
//     snapshot epoch plus one per folded record.
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
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
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
// pairs. One store serves one sessionTable, which gives each key's
// files one owner at a time: a live session's appends and snapshots
// run under its mutex, and a first open or an eviction flush holds the
// key's sessionTable.busy barrier — so the store itself needs no
// locking. Catch-up only reads.
type SessionStore struct {
	dir       string
	fsync     bool
	snapEvery int
	met       *Metrics
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

// paths returns a session's snapshot and WAL paths. The filename stem
// is a truncated SHA-256 of the session key, so arbitrary signatures
// and windows stay filesystem-safe.
func (st *SessionStore) paths(id sessIdent) (snap, wal string) {
	sum := sha256.Sum256(appendSessionKey(nil, id.sig, id.win))
	stem := filepath.Join(st.dir, hex.EncodeToString(sum[:16]))
	return stem + ".snap", stem + ".wal"
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
		encodeCoords(e, pt, dim)
	}
	encodeCoords(e, id.win.Lo, dim)
	encodeCoords(e, id.win.Hi, dim)
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
		id.tile[i] = decodeCoords(r, dim)
	}
	lo, hi := decodeCoords(r, dim), decodeCoords(r, dim)
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
	encodeCoords(e, sf.window.Lo, id.win.Dim())
	encodeCoords(e, sf.window.Hi, id.win.Dim())
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
	lo, hi := decodeCoords(&r, id.win.Dim()), decodeCoords(&r, id.win.Dim())
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
		encodeCoords(e, ev.P, dim)
		if ev.Kind == dynamic.Move {
			encodeCoords(e, ev.To, dim)
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
	for i := 0; i < n; i++ {
		kind := dynamic.EventKind(r.Byte())
		ev := dynamic.Event{Kind: kind, P: decodeCoords(&r, dim)}
		switch kind {
		case dynamic.Join, dynamic.Leave, dynamic.Fail:
		case dynamic.Move:
			ev.To = decodeCoords(&r, dim)
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
	snapPath  string
	walPath   string
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
	m := d.store.met
	m.walAppends.Inc()
	m.walAppendNs.Record(uint64(time.Since(start)))
	if d.store.fsync {
		syncStart := time.Now()
		if err := d.wal.Sync(); err != nil {
			return fmt.Errorf("service: WAL fsync: %w", err)
		}
		m.walFsyncs.Inc()
		m.walFsyncNs.Record(uint64(time.Since(syncStart)))
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
// between the two steps leaves stale WAL records, which the fold skips
// by epoch (idempotence).
func (d *sessionDisk) snapshot(plan *core.Plan, live *liveSet, epoch uint64) error {
	start := time.Now()
	e := binwire.Get()
	fw, slots := live.frame(plan)
	encodeSnapshot(e, d.ident, epoch, snapFrame{m: plan.Slots(), window: fw, slots: slots})
	f, err := replaceFile(d.snapPath, e.Bytes())
	binwire.Put(e)
	if err != nil {
		return fmt.Errorf("service: writing snapshot: %w", err)
	}
	_ = f.Close() // synced before the rename
	if err := d.resetWAL(epoch); err != nil {
		return fmt.Errorf("service: resetting WAL: %w", err)
	}
	d.store.met.snapshots.Inc()
	d.store.met.snapshotNs.Record(uint64(time.Since(start)))
	return nil
}

// resetWAL replaces the WAL with a bare header based at epoch and
// appends from there on. It is the one place the header is written:
// for a new session, for a log that restore cannot use, and after a
// snapshot.
func (d *sessionDisk) resetWAL(epoch uint64) error {
	e := binwire.Get()
	defer binwire.Put(e)
	encodeWALHeader(e, d.ident, epoch)
	f, err := replaceFile(d.walPath, e.Bytes())
	if err != nil {
		return err
	}
	d.close()
	d.wal, d.walEvents, d.walBytes = f, 0, int64(e.Len())
	return nil
}

// close releases the WAL handle (eviction, shutdown).
func (d *sessionDisk) close() {
	if d.wal != nil {
		_ = d.wal.Close()
		d.wal = nil
	}
}

// replaceFile atomically replaces path with data — temp file, fsync,
// rename, then an fsync of the directory — and returns the new file,
// open at its end. File-level fsyncs order the data, but only the
// directory sync pins the rename itself: an unpinned rename can be
// lost, or reordered against a later one, on power loss.
func replaceFile(path string, data []byte) (*os.File, error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return nil, err
	}
	if _, err = f.Write(data); err == nil {
		if err = f.Sync(); err == nil {
			err = os.Rename(f.Name(), path)
		}
	}
	if err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err == nil {
		err = dir.Sync()
		dir.Close()
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// --- Reading a session's files ----------------------------------------------

// readSnapshot reads the snapshot at path, checks that it names ident,
// and folds it into a live set over ident's window. stale reports state
// another slot policy wrote: a version-1 file, or a stored slot that is
// not the plan's. A missing file is an fs.ErrNotExist error, an
// unreadable or foreign snapshot wraps binwire.ErrMalformed, and any
// other error is I/O.
func readSnapshot(path string, plan *core.Plan, ident sessIdent) (live *liveSet, epoch uint64, stale bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, false, err
	}
	id, epoch, sf, err := decodeSnapshot(data)
	if err == nil && !id.same(ident) {
		err = fmt.Errorf("%w: snapshot names session %s|%s", binwire.ErrMalformed, id.sig, id.win)
	}
	if err != nil {
		return nil, 0, false, err
	}
	live, stale = foldFrame(plan, ident.win, sf.window, sf.slots)
	return live, epoch, stale || sf.version < persistVersion, nil
}

// readWALHeader reads the WAL's opening frame from r: the identity, the
// base epoch and the format version. Every failure wraps
// binwire.ErrMalformed.
func readWALHeader(r *binwire.Reader) (sessIdent, uint64, uint64, error) {
	typ, payload := r.Frame()
	if r.Err() == nil && typ != framePersistWALHeader {
		r.Fail(fmt.Errorf("%w: frame %#x is not a WAL header", binwire.ErrMalformed, typ))
	}
	if err := r.Err(); err != nil {
		return sessIdent{}, 0, 0, err
	}
	return decodeWALHeader(&payload)
}

// foldWAL folds the WAL records left in r into live, advancing *epoch,
// under the one rule set restore and catch-up share:
//
//   - a record at or below *epoch is skipped: live already holds it;
//   - the next record must be *epoch + 1;
//   - a record that fails to decode, skips an epoch or does not apply
//     — an event the mutate funnels would refuse as outside the
//     window's MutateMargin does not — ends the usable log, and live
//     stays at *epoch.
//
// Frames of other types are skipped (forward compatibility). visit,
// when non-nil, sees the points each applied record touched, after
// *epoch has moved; returning false stops the fold. foldWAL returns the
// events applied, the bytes after the last frame it accepted, and the
// reason the usable log ended early (nil when it did not).
func foldWAL(r *binwire.Reader, live *liveSet, epoch *uint64, visit func(touched []lattice.Point) bool) (events, rest int, err error) {
	dim, bound := live.win.Dim(), growMargin(live.win)
	for r.Remaining() > 0 {
		rest = r.Remaining()
		typ, payload := r.Frame()
		if err := r.Err(); err != nil {
			return events, rest, err
		}
		if typ != framePersistWALRecord {
			continue
		}
		rec, evs, err := decodeWALRecord(&payload, dim)
		switch {
		case err != nil:
			return events, rest, err
		case rec <= *epoch:
			continue
		case rec != *epoch+1:
			return events, rest, fmt.Errorf("record for epoch %d follows epoch %d", rec, *epoch)
		case slices.ContainsFunc(evs, func(ev dynamic.Event) bool { return !inMargin(bound, ev) }):
			return events, rest, fmt.Errorf("epoch %d: event outside the window's %d-cell margin", rec, MutateMargin)
		}
		d, touched, err := live.apply(evs)
		if err != nil {
			live.revert(evs[:d.Events])
			return events, rest, fmt.Errorf("epoch %d: %w", rec, err)
		}
		*epoch = rec
		events += len(evs)
		if visit != nil && !visit(touched) {
			return events, r.Remaining(), nil
		}
	}
	return events, 0, nil
}

// open attaches a session to its files and restores what they hold:
// the snapshot's live set, with the WAL folded over it. It repairs as
// it goes: a corrupt snapshot is dropped, an unusable WAL or one based
// past the restored state is reset, the log is truncated after its
// usable part, and state another slot policy wrote is re-anchored one
// epoch on behind a fresh snapshot, so every client copy at an older
// epoch must resync. Repairs are logged and counted, never fatal; only
// I/O errors fail the open. The returned live set is nil when the
// files held nothing to restore; the disk handle is ready for appends.
func (st *SessionStore) open(plan *core.Plan, w lattice.Window) (*sessionDisk, *liveSet, uint64, error) {
	ident := identOf(plan, w)
	d := &sessionDisk{store: st, ident: ident}
	d.snapPath, d.walPath = st.paths(ident)

	live, epoch, stale, err := readSnapshot(d.snapPath, plan, ident)
	switch {
	case errors.Is(err, binwire.ErrMalformed):
		st.logfSafe("latticed: dropping corrupt snapshot %s: %v", d.snapPath, err)
		st.met.snapsDropped.Inc()
		os.Remove(d.snapPath)
	case err != nil && !errors.Is(err, fs.ErrNotExist):
		return nil, nil, 0, fmt.Errorf("service: reading snapshot: %w", err)
	}
	restored := live != nil
	if live == nil {
		live = newLiveSet(w, true)
	}

	data, err := os.ReadFile(d.walPath)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, nil, 0, fmt.Errorf("service: reading WAL: %w", err)
	}
	r := binwire.NewReader(data)
	_, base, version, herr := readWALHeader(&r)
	switch {
	case err != nil:
		// No WAL yet: a new session, or a snapshot whose log is gone.
		if err := d.resetWAL(epoch); err != nil {
			return nil, nil, 0, fmt.Errorf("service: creating WAL: %w", err)
		}
	case herr != nil || base > epoch:
		// A log without a usable header carries nothing recoverable, and
		// one based past the restored state (its snapshot lost, corrupt,
		// or rolled back) would fold its suffix onto the wrong base.
		st.logfSafe("latticed: resetting WAL %s (base epoch %d, restored epoch %d): %v", d.walPath, base, epoch, herr)
		st.met.walResets.Inc()
		if err := d.resetWAL(epoch); err != nil {
			return nil, nil, 0, fmt.Errorf("service: resetting WAL: %w", err)
		}
	default:
		from := epoch
		events, rest, ferr := foldWAL(&r, live, &epoch, nil)
		if ferr != nil {
			st.logfSafe("latticed: WAL %s: usable log ends at epoch %d (%v): truncating %d trailing bytes",
				d.walPath, epoch, ferr, rest)
			st.met.tornTails.Inc()
			if err := os.Truncate(d.walPath, int64(len(data)-rest)); err != nil {
				return nil, nil, 0, fmt.Errorf("service: truncating torn WAL: %w", err)
			}
		}
		st.met.replayedEvents.Add(uint64(events))
		restored = restored || epoch > from
		stale = stale || version < persistVersion
		if d.wal, err = os.OpenFile(d.walPath, os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
			return nil, nil, 0, fmt.Errorf("service: opening WAL: %w", err)
		}
		d.walBytes = int64(len(data) - rest)
	}
	if stale {
		epoch++
		if err := d.snapshot(plan, live, epoch); err != nil {
			d.close()
			return nil, nil, 0, fmt.Errorf("service: re-anchoring: %w", err)
		}
		st.logfSafe("latticed: re-anchored session %s|%s at epoch %d: its files held another slot policy's slots",
			ident.sig, w, epoch)
		st.met.sessReanchored.Inc()
		restored = true
	}
	if !restored {
		live = nil
	}
	return d, live, epoch, nil
}

// catchUp rebuilds the persisted delta history of (plan, w) for a stale
// subscriber: one Delta per epoch in (from, to], oldest first, folded
// from the on-disk snapshot + WAL into a throwaway live set by the fold
// restore uses. Unlike open it is strictly read-only — it runs
// concurrently with the live session's appends (every record with
// epoch ≤ to is fully written before the caller observed to under the
// session lock, so the prefix it needs is stable; newer bytes are
// simply not reached) — and it never truncates or resets files. ok is
// false whenever the gap is not covered — snapshot already past from,
// unusable or rotated WAL, a gap or torn tail before to, state another
// slot policy wrote — and the caller falls back to a full resync.
func (st *SessionStore) catchUp(plan *core.Plan, w lattice.Window, from, to uint64) ([]*Delta, bool) {
	ident := identOf(plan, w)
	snapPath, walPath := st.paths(ident)
	live, epoch, stale, err := readSnapshot(snapPath, plan, ident)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		live = newLiveSet(w, true)
	case err != nil || stale || epoch > from:
		// epoch > from: epochs (from, epoch] are baked into the
		// snapshot; their individual deltas are gone.
		return nil, false
	}
	data, err := os.ReadFile(walPath)
	if err != nil {
		return nil, false
	}
	r := binwire.NewReader(data)
	if _, base, version, err := readWALHeader(&r); err != nil || base > epoch || version < persistVersion {
		return nil, false
	}
	var deltas []*Delta
	// A log that ends before to leaves epoch short of it: not covered.
	foldWAL(&r, live, &epoch, func(touched []lattice.Point) bool {
		if epoch > from {
			deltas = append(deltas, &Delta{Epoch: epoch, M: plan.Slots(), Alive: live.alive,
				Changed: live.changes(plan, touched)})
		}
		return epoch < to
	})
	return deltas, epoch >= to
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
		stem  string
		ident sessIdent
		mtime time.Time
	}
	var cands []cand
	for _, ent := range entries {
		name := ent.Name()
		ext := filepath.Ext(name)
		if ext != ".snap" && ext != ".wal" {
			continue
		}
		info, err := ent.Info()
		if err != nil {
			continue
		}
		data, err := os.ReadFile(filepath.Join(st.dir, name))
		if err != nil {
			continue
		}
		var ident sessIdent
		if ext == ".snap" {
			ident, _, _, err = decodeSnapshot(data)
		} else {
			r := binwire.NewReader(data)
			ident, _, _, err = readWALHeader(&r)
		}
		if err != nil {
			st.logfSafe("latticed: skipping unreadable %s: %v", name, err)
			continue
		}
		// ReadDir sorts by name, so a session's two files are adjacent;
		// the first readable one names it.
		stem := strings.TrimSuffix(name, ext)
		if n := len(cands); n > 0 && cands[n-1].stem == stem {
			if info.ModTime().After(cands[n-1].mtime) {
				cands[n-1].mtime = info.ModTime()
			}
			continue
		}
		cands = append(cands, cand{stem: stem, ident: ident, mtime: info.ModTime()})
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].mtime.Before(cands[j].mtime) })
	out := make([]sessIdent, len(cands))
	for i, c := range cands {
		out[i] = c.ident
	}
	return out, nil
}
