package service

// Binary wire protocol (DESIGN.md §10): the message grammar layered on
// the binwire frame/varint primitives. The JSON funnel tops out around
// 1.5M lookups/s end-to-end because encoding/json dominates the serving
// hot path; this codec replaces it for batch slot/may-broadcast queries
// and mutation requests behind Content-Type negotiation
// (BinaryContentType), while the JSON format stays for compatibility
// and for the cold plan/health endpoints.
//
// Decode side: DecodeBinaryBatch and DecodeBinaryMutate are the binary
// twins of DecodeBatchRequest / DecodeMutateRequest — the single
// funnels between untrusted bytes and the engine, enforcing the same
// Limits with the same ErrSpec (400) / ErrLimit (413) split, and fuzzed
// by FuzzDecodeBinaryBatch / FuzzDecodeBinaryMutate under the same
// never-panic contract. Point coordinates decode into a caller-owned
// BinScratch arena (pooled by the server), so a warm decode allocates
// nothing: the returned points alias the arena, which the JSON batch
// scanner fills too.
//
// Encode side: responses are frame sequences (head, chunks, end)
// emitted through pooled binwire.Buffers — a 1M-slot window answer
// streams as ~64 bounded frames and never materializes as one buffer.
// The client-side helpers (EncodeBatchBinary, DecodeSlotsStream, …)
// exist for the load generator, the parity tests, and as reference
// encoders for non-Go clients.

import (
	"fmt"
	"math"

	"tilingsched/internal/lattice"
	"tilingsched/internal/service/binwire"
)

// BinaryContentType is the media type that selects the binary wire
// protocol on the batch and mutate endpoints. Requests carrying it are
// decoded as a single binary frame, and their responses are binary
// frame sequences with the same content type; any other content type
// gets the JSON codec.
const BinaryContentType = "application/x-lattice-bin"

// Wire-level string bounds: identifiers are small, and bounding them
// keeps attacker-chosen lengths from sizing allocations.
const (
	maxWireLattice = 64
	maxWireTile    = 128
	maxWireSig     = 256
	maxWireErrMsg  = 4096
)

// BinPlanRef is a decoded binary plan reference: either a full PlanSpec
// or a canonical-signature reference to an already-compiled plan
// (Signature non-empty wins). Signature references skip spec
// resolution entirely; an unknown signature is answered 404 so the
// client re-sends the spec form.
type BinPlanRef struct {
	// Spec is the full plan spec (valid when Signature is empty).
	Spec PlanSpec
	// Signature references a plan by its canonical core.Signature.
	Signature string
}

// BinBatch is a decoded binary batch request (slots or may-broadcast).
// Points and the window's corner slices alias the BinScratch arena
// passed to DecodeBinaryBatch and are valid until its next reuse.
type BinBatch struct {
	// Kind is binwire.FrameBatchSlots or binwire.FrameBatchMay.
	Kind byte
	// Plan names the plan to query.
	Plan BinPlanRef
	// Points is the explicit query batch (exactly one of Points and
	// UseWindow is set, enforced at decode).
	Points []lattice.Point
	// Window is the validated window shorthand, valid iff UseWindow.
	Window lattice.Window
	// UseWindow selects the window form.
	UseWindow bool
	// T is the query time (may-broadcast only).
	T int64
}

// BinScratch is the reusable backing store of a batch decode, binary
// or JSON: one flat coordinate arena plus the point-header slice over
// it. The server pools one per in-flight request, making warm decodes
// allocation-free; a zero BinScratch is ready to use. Not safe for
// concurrent use.
type BinScratch struct {
	coords []int
	pts    []lattice.Point
}

// reserve empties the scratch and ensures capacity for n coordinates,
// reallocating at most once so previously returned aliases are never
// silently moved mid-decode.
func (sc *BinScratch) reserve(n int) {
	if cap(sc.coords) < n {
		sc.coords = make([]int, 0, n)
	}
	sc.coords = sc.coords[:0]
	sc.pts = sc.pts[:0]
}

// grab appends n coordinates to the arena and returns the fresh slice.
func (sc *BinScratch) grab(n int) []int {
	off := len(sc.coords)
	sc.coords = sc.coords[:off+n]
	return sc.coords[off : off+n]
}

// Release drops the scratch's aliases into decoded request data (so a
// pool holding the scratch does not pin request bodies) while keeping
// the backing arrays for reuse.
func (sc *BinScratch) Release() {
	clear(sc.pts[:cap(sc.pts)])
	sc.pts = sc.pts[:0]
	sc.coords = sc.coords[:0]
}

// failSpec converts a reader failure (malformed bytes) into the
// wire-layer ErrSpec so the HTTP status mapping (400) matches the JSON
// funnel's.
func failSpec(r *binwire.Reader) error {
	return fmt.Errorf("%w: %v", ErrSpec, r.Err())
}

// decodePlanRef reads a plan reference: tag 0 = spec (lattice string +
// named tile or explicit tile points), tag 1 = signature.
func decodePlanRef(r *binwire.Reader) (BinPlanRef, error) {
	var ref BinPlanRef
	switch tag := r.Byte(); tag {
	case 0:
		ref.Spec.Lattice = r.String(maxWireLattice)
		switch tt := r.Byte(); tt {
		case 0:
			ref.Spec.Tile.Name = r.String(maxWireTile)
		case 1:
			// Tile points are cold-path (they defeat the signature memo
			// anyway), so they materialize as [][]int for PlanSpec.Resolve.
			count := r.Count(maxTilePoints, "tile point count")
			dim := r.Count(maxTileDim, "tile dimension")
			if r.Err() == nil && (count == 0 || dim == 0) {
				return ref, fmt.Errorf("%w: empty tile point list", ErrSpec)
			}
			if r.Err() != nil {
				return ref, failSpec(r)
			}
			pts := make([][]int, count)
			flat := make([]int, count*dim)
			prev := make([]int64, dim)
			for i := range pts {
				row := flat[i*dim : (i+1)*dim]
				for a := 0; a < dim; a++ {
					prev[a] += r.Varint()
					row[a] = int(prev[a])
				}
				pts[i] = row
			}
			ref.Spec.Tile.Points = pts
		default:
			return ref, fmt.Errorf("%w: unknown tile tag %d", ErrSpec, tt)
		}
	case 1:
		ref.Signature = r.String(maxWireSig)
		if r.Err() == nil && ref.Signature == "" {
			return ref, fmt.Errorf("%w: empty plan signature", ErrSpec)
		}
	default:
		if r.Err() != nil {
			return ref, failSpec(r)
		}
		return ref, fmt.Errorf("%w: unknown plan tag %d", ErrSpec, tag)
	}
	if r.Err() != nil {
		return ref, failSpec(r)
	}
	return ref, nil
}

// decodeWindow reads a delta-encoded window — dim, lo corner
// (absolute), per-axis spans (hi − lo ≥ 0) — into the scratch arena and
// validates it against maxPoints (ErrLimit beyond). sc may be nil for
// cold paths.
func decodeWindow(r *binwire.Reader, maxPoints int, sc *BinScratch) (lattice.Window, error) {
	dim := r.Count(maxTileDim, "window dimension")
	if r.Err() != nil {
		return lattice.Window{}, failSpec(r)
	}
	if dim == 0 {
		return lattice.Window{}, fmt.Errorf("%w: zero-dimensional window", ErrSpec)
	}
	var lo, hi []int
	if sc != nil {
		lo, hi = sc.grab(dim), sc.grab(dim)
	} else {
		flat := make([]int, 2*dim)
		lo, hi = flat[:dim], flat[dim:]
	}
	for a := 0; a < dim; a++ {
		lo[a] = int(r.Varint())
	}
	for a := 0; a < dim; a++ {
		span := r.Uvarint()
		if span > math.MaxInt64-uint64(max(lo[a], 0)) {
			return lattice.Window{}, fmt.Errorf("%w: window span overflows", ErrLimit)
		}
		hi[a] = lo[a] + int(span)
		if hi[a] < lo[a] { // signed overflow
			return lattice.Window{}, fmt.Errorf("%w: window span overflows", ErrLimit)
		}
	}
	if r.Err() != nil {
		return lattice.Window{}, failSpec(r)
	}
	return WindowSpec{Lo: lo, Hi: hi}.bounded(maxPoints)
}

// DecodeBinaryBatch parses one binary batch request frame
// (FrameBatchSlots or FrameBatchMay) and enforces the structural
// contract of the JSON funnel: a single well-formed frame, exactly one
// of explicit points and window, the batch within lim.MaxBatch, the
// window within lim.MaxWindow. Decoded points alias sc's arena (sc may
// be nil, at the cost of allocation). Violations yield errors wrapping
// ErrSpec (malformed, 400) or ErrLimit (too large, 413); whatever the
// input, the decoder returns an error rather than panicking.
func DecodeBinaryBatch(data []byte, lim Limits, sc *BinScratch) (BinBatch, error) {
	lim = lim.withDefaults()
	var scratch BinScratch
	if sc == nil {
		sc = &scratch
	}
	stream := binwire.NewReader(data)
	typ, r := stream.Frame()
	stream.Done()
	if stream.Err() != nil {
		return BinBatch{}, failSpec(&stream)
	}
	if typ != binwire.FrameBatchSlots && typ != binwire.FrameBatchMay {
		return BinBatch{}, fmt.Errorf("%w: frame type %#x is not a batch request", ErrSpec, typ)
	}
	req := BinBatch{Kind: typ}
	var err error
	if req.Plan, err = decodePlanRef(&r); err != nil {
		return BinBatch{}, err
	}
	switch qt := r.Byte(); qt {
	case 0: // explicit point batch, delta-encoded
		// Bound the count while still unsigned: a raw int() conversion of
		// an attacker-chosen uvarint ≥ 2^63 would go negative and slip
		// past both the limit and the emptiness checks.
		rawCount := r.Uvarint()
		if r.Err() == nil && rawCount > uint64(lim.MaxBatch) {
			return BinBatch{}, fmt.Errorf("%w: batch of %d points exceeds limit %d", ErrLimit, rawCount, lim.MaxBatch)
		}
		count := int(rawCount)
		dim := r.Count(maxTileDim, "point dimension")
		if r.Err() != nil {
			return BinBatch{}, failSpec(&r)
		}
		if count == 0 || dim == 0 {
			return BinBatch{}, fmt.Errorf("%w: empty point batch", ErrSpec)
		}
		sc.reserve(count * dim)
		if cap(sc.pts) < count {
			sc.pts = make([]lattice.Point, 0, count)
		}
		var prev lattice.Point
		for i := 0; i < count; i++ {
			row := sc.grab(dim)
			if i == 0 {
				for a := 0; a < dim; a++ {
					row[a] = int(r.Varint())
				}
			} else {
				for a := 0; a < dim; a++ {
					row[a] = prev[a] + int(r.Varint())
				}
			}
			prev = row
			sc.pts = append(sc.pts, lattice.Point(row))
		}
		if r.Err() != nil {
			return BinBatch{}, failSpec(&r)
		}
		req.Points = sc.pts
	case 1:
		sc.reserve(2 * maxTileDim)
		win, werr := decodeWindow(&r, lim.MaxWindow, sc)
		if werr != nil {
			return BinBatch{}, werr
		}
		req.Window, req.UseWindow = win, true
	default:
		if r.Err() != nil {
			return BinBatch{}, failSpec(&r)
		}
		return BinBatch{}, fmt.Errorf("%w: unknown query tag %d", ErrSpec, qt)
	}
	if typ == binwire.FrameBatchMay {
		req.T = r.Varint()
	}
	r.Done()
	if r.Err() != nil {
		return BinBatch{}, failSpec(&r)
	}
	return req, nil
}

// --- Client-side encoding -------------------------------------------------

// EncodeBatchBinary appends the binary frame of a batch request to e:
// the slots form when may is false, the may-broadcast form (carrying
// req.T) when true. A non-empty sig encodes a plan-by-signature
// reference instead of req.Plan. This is the reference encoder for the
// load generator, the parity tests, and non-Go clients; it does not
// enforce server limits (the decode funnel does).
func EncodeBatchBinary(e *binwire.Buffer, req BatchRequest, may bool, sig string) {
	typ := binwire.FrameBatchSlots
	if may {
		typ = binwire.FrameBatchMay
	}
	e.BeginFrame(typ)
	encodePlanRef(e, req.Plan, sig)
	if req.Window != nil {
		e.Byte(1)
		encodeWindowSpec(e, *req.Window)
	} else {
		e.Byte(0)
		encodePointRows(e, req.Points)
	}
	if may {
		e.Varint(req.T)
	}
	e.EndFrame()
}

// encodePlanRef writes a plan reference (signature form when sig is
// non-empty).
func encodePlanRef(e *binwire.Buffer, spec PlanSpec, sig string) {
	if sig != "" {
		e.Byte(1)
		e.String(sig)
		return
	}
	e.Byte(0)
	e.String(spec.Lattice)
	if len(spec.Tile.Points) > 0 {
		e.Byte(1)
		encodePointRows(e, spec.Tile.Points)
	} else {
		e.Byte(0)
		e.String(spec.Tile.Name)
	}
}

// encodePointRows writes a delta-encoded point sequence from wire-form
// rows: count, dim, first point absolute, then per-axis deltas against
// the previous point (zigzag varints, so sorted batches pack tightly).
func encodePointRows(e *binwire.Buffer, rows [][]int) {
	e.Uvarint(uint64(len(rows)))
	dim := 0
	if len(rows) > 0 {
		dim = len(rows[0])
	}
	e.Uvarint(uint64(dim))
	var prev []int
	for _, row := range rows {
		for a := 0; a < dim && a < len(row); a++ {
			if prev == nil {
				e.Varint(int64(row[a]))
			} else {
				e.Varint(int64(row[a]) - int64(prev[a]))
			}
		}
		for a := len(row); a < dim; a++ { // ragged row: pad (decoder sees dim coords)
			e.Varint(0)
		}
		prev = row
	}
}

// encodeWindowSpec writes a delta-encoded window: dim, lo, spans.
func encodeWindowSpec(e *binwire.Buffer, ws WindowSpec) {
	e.Uvarint(uint64(len(ws.Lo)))
	for _, c := range ws.Lo {
		e.Varint(int64(c))
	}
	for a, c := range ws.Hi {
		lo := 0
		if a < len(ws.Lo) {
			lo = ws.Lo[a]
		}
		span := int64(c) - int64(lo)
		if span < 0 {
			// Inverted corners are unrepresentable by construction (spans
			// are unsigned); encode the degenerate single-point window.
			span = 0
		}
		e.Uvarint(uint64(span))
	}
}

// --- Client-side response decoding ----------------------------------------

// WireError is a decoded binary Error frame: the HTTP status the server
// answered with plus its message. It is what the client-side stream
// decoders return when the response is an error sequence.
type WireError struct {
	// Status is the HTTP status code.
	Status int
	// Msg is the server's error text.
	Msg string
}

// Error implements the error interface.
func (e *WireError) Error() string { return fmt.Sprintf("server status %d: %s", e.Status, e.Msg) }

// decodeErrorFrame reads an Error frame payload.
func decodeErrorFrame(r *binwire.Reader) error {
	status := r.Count(999, "status")
	msg := r.String(maxWireErrMsg)
	if r.Err() != nil {
		return failSpec(r)
	}
	return &WireError{Status: status, Msg: msg}
}

// DecodeSlotsStream parses a complete binary slots response (head,
// chunks, end) into the JSON-shaped SlotsResponse — the client-side
// inverse of the server's streamed encoding, used by the load
// generator, the parity tests, and reference clients. An Error frame
// decodes into *WireError.
func DecodeSlotsStream(data []byte) (SlotsResponse, error) {
	var resp SlotsResponse
	stream := binwire.NewReader(data)
	typ, r := stream.Frame()
	if stream.Err() != nil {
		return resp, failSpec(&stream)
	}
	if typ == binwire.FrameError {
		return resp, decodeErrorFrame(&r)
	}
	if typ != binwire.FrameSlotsHead {
		return resp, fmt.Errorf("%w: expected slots head, got frame %#x", ErrSpec, typ)
	}
	resp.M = r.Count(math.MaxInt32, "m")
	total := r.Count(math.MaxInt32, "slot count")
	r.Done()
	if r.Err() != nil {
		return resp, failSpec(&r)
	}
	resp.Slots = make([]int32, 0, min(total, maxAnswerPrealloc))
	for {
		typ, r = stream.Frame()
		if stream.Err() != nil {
			return resp, failSpec(&stream)
		}
		switch typ {
		case binwire.FrameSlotsChunk:
			n := r.Count(total-len(resp.Slots), "chunk size")
			for i := 0; i < n && r.Err() == nil; i++ {
				resp.Slots = append(resp.Slots, int32(r.Count(math.MaxInt32, "slot")))
			}
			r.Done()
			if r.Err() != nil {
				return resp, failSpec(&r)
			}
		case binwire.FrameEnd:
			if len(resp.Slots) != total {
				return resp, fmt.Errorf("%w: stream ended with %d of %d slots", ErrSpec, len(resp.Slots), total)
			}
			return resp, nil
		default:
			return resp, fmt.Errorf("%w: unexpected frame %#x in slots stream", ErrSpec, typ)
		}
	}
}

// DecodeMayStream parses a complete binary may-broadcast response into
// the JSON-shaped MayResponse. An Error frame decodes into *WireError.
func DecodeMayStream(data []byte) (MayResponse, error) {
	var resp MayResponse
	stream := binwire.NewReader(data)
	typ, r := stream.Frame()
	if stream.Err() != nil {
		return resp, failSpec(&stream)
	}
	if typ == binwire.FrameError {
		return resp, decodeErrorFrame(&r)
	}
	if typ != binwire.FrameMayHead {
		return resp, fmt.Errorf("%w: expected may head, got frame %#x", ErrSpec, typ)
	}
	resp.M = r.Count(math.MaxInt32, "m")
	resp.T = r.Varint()
	total := r.Count(math.MaxInt32, "flag count")
	r.Done()
	if r.Err() != nil {
		return resp, failSpec(&r)
	}
	resp.May = make([]bool, 0, min(total, maxAnswerPrealloc))
	for {
		typ, r = stream.Frame()
		if stream.Err() != nil {
			return resp, failSpec(&stream)
		}
		switch typ {
		case binwire.FrameMayChunk:
			n := r.Count(total-len(resp.May), "chunk size")
			packed := r.Bytes((n + 7) / 8)
			r.Done()
			if r.Err() != nil {
				return resp, failSpec(&r)
			}
			for i := 0; i < n; i++ {
				resp.May = append(resp.May, packed[i/8]&(1<<(i%8)) != 0)
			}
		case binwire.FrameEnd:
			if len(resp.May) != total {
				return resp, fmt.Errorf("%w: stream ended with %d of %d flags", ErrSpec, len(resp.May), total)
			}
			return resp, nil
		default:
			return resp, fmt.Errorf("%w: unexpected frame %#x in may stream", ErrSpec, typ)
		}
	}
}

// maxAnswerPrealloc caps a client decoder's answer pre-allocation: the
// head's total is a server-sent claim, so a malicious or corrupt head
// frame must not size gigabytes before chunks back it with real bytes.
const maxAnswerPrealloc = 1 << 16
