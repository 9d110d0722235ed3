// Package binwire implements the primitive layer of the lattice binary
// wire protocol (DESIGN.md §10): length-prefixed frames over
// little-endian byte order, LEB128 varints with zigzag signing, and
// pooled encode buffers. The package is deliberately a leaf — it knows
// nothing about plans, tiles, or HTTP — so internal/service can layer
// the message grammar (requests, streamed responses) on top without an
// import cycle, and the primitives stay independently testable and
// fuzzable.
//
// Frame layout (every message on the wire is a sequence of frames):
//
//	frame := length:u32le type:u8 payload:byte*
//
// where length counts the type byte plus the payload (so length ≥ 1 for
// any well-formed frame, and a reader can skip unknown frame types).
// Within payloads:
//
//	uvarint := LEB128 (7 bits per byte, little-endian, ≤ MaxVarintLen bytes, minimal)
//	svarint := zigzag(v) as uvarint   (0→0, -1→1, 1→2, -2→3, …)
//	string  := len:uvarint bytes
//
// Encoding (Buffer) and decoding (Reader) are both allocation-free in
// steady state: Buffers are pooled and grown once, Readers are values
// over the caller's byte slice with a sticky error in place of
// per-call error returns. Decoders facing untrusted bytes must check
// Reader.Err once at the end (and use the bounded readers — String,
// Count — rather than trusting lengths), which is the same never-panic
// contract as the JSON decode funnel.
package binwire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// ErrMalformed indicates bytes that violate the frame or varint
// grammar: truncated frames, overlong varints, out-of-range counts.
// The service layer maps it to HTTP 400 alongside its ErrSpec.
var ErrMalformed = errors.New("binwire: malformed frame")

// MaxVarintLen is the longest accepted LEB128 encoding (10 bytes covers
// every uint64; anything longer is rejected as overlong rather than
// silently wrapped). Decoding also rejects non-minimal encodings (e.g.
// 0x80 0x00 for 0), so every value has exactly one wire form and frames
// can be compared byte-wise.
const MaxVarintLen = 10

// FrameHeaderLen is the byte length of a frame header: the u32le length
// prefix plus the type byte it counts.
const FrameHeaderLen = 5

// Frame types of the lattice binary protocol. Requests are a single
// frame; responses are a frame sequence terminated by FrameEnd.
// Type bytes with the high bit set flow server→client.
const (
	// FrameBatchSlots is a slots batch request (DESIGN.md §10).
	FrameBatchSlots byte = 0x01
	// FrameBatchMay is a may-broadcast batch request.
	FrameBatchMay byte = 0x02
	// FrameMutate is a dynamic-session mutation request.
	FrameMutate byte = 0x03
	// FrameSubscribe is a session-subscription request (DESIGN.md §13):
	// it opens a server-push delta stream instead of a one-shot reply.
	FrameSubscribe byte = 0x04
	// FrameTraceExt is an optional trace-context extension frame
	// (DESIGN.md §14): a client may prepend it to any request frame to
	// propagate a W3C trace context over the binary codec, so a fleet
	// node joins its caller's trace. Payload is flags:u8 (bit 0 =
	// sampled) + 16 raw trace-ID bytes + 8 raw parent-span-ID bytes.
	// Servers that do not trace strip and ignore it.
	FrameTraceExt byte = 0x05

	// FrameSlotsHead opens a slots response: m and the total count.
	FrameSlotsHead byte = 0x81
	// FrameSlotsChunk carries one run of slot values.
	FrameSlotsChunk byte = 0x82
	// FrameMayHead opens a may-broadcast response: m, t, total count.
	FrameMayHead byte = 0x83
	// FrameMayChunk carries one bit-packed run of may flags.
	FrameMayChunk byte = 0x84
	// FrameMutateResult carries a complete mutate response.
	FrameMutateResult byte = 0x85
	// FrameSubHello opens a subscription stream: the plan signature and
	// the session's epoch, palette size, and live count at attach time.
	FrameSubHello byte = 0x86
	// FrameDelta carries one epoch's slot changes to a subscriber (or a
	// full assignment when its full flag is set — the resync form).
	FrameDelta byte = 0x87
	// FrameSubBye terminates a subscription stream: the subscriber must
	// reconnect and resync (slow-consumer drop, session eviction).
	FrameSubBye byte = 0x88
	// FrameError reports a failed request: HTTP status plus message.
	FrameError byte = 0x7E
	// FrameEnd terminates every response frame sequence (empty payload).
	FrameEnd byte = 0x7F
)

// Zigzag maps a signed value onto the unsigned varint space with small
// magnitudes staying small: 0→0, -1→1, 1→2, -2→3, …
func Zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// Unzigzag inverts Zigzag.
func Unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// --- Encoding -------------------------------------------------------------

// Buffer accumulates frames for one response or request. The zero value
// is ready to use; Get/Put pool buffers so steady-state encoding
// allocates nothing. A Buffer is single-goroutine state.
type Buffer struct {
	b     []byte
	frame int // 1 + offset of the open frame's length prefix; 0 when closed
}

// bufPool recycles encode buffers across requests.
var bufPool = sync.Pool{New: func() any { return new(Buffer) }}

// Get returns a pooled, reset Buffer.
func Get() *Buffer {
	e := bufPool.Get().(*Buffer)
	e.Reset()
	return e
}

// Put returns a Buffer to the pool. The caller must not touch it (or
// any slice obtained from Bytes) afterwards.
func Put(e *Buffer) { bufPool.Put(e) }

// Reset empties the buffer, keeping its backing array.
func (e *Buffer) Reset() {
	e.b = e.b[:0]
	e.frame = 0
}

// Len returns the number of encoded bytes so far (open frame included).
func (e *Buffer) Len() int { return len(e.b) }

// Bytes returns the encoded frames. Valid until the next Reset; do not
// call with a frame still open.
func (e *Buffer) Bytes() []byte { return e.b }

// BeginFrame opens a frame of the given type; EndFrame patches the
// length prefix once the payload is complete. Frames do not nest.
func (e *Buffer) BeginFrame(typ byte) {
	if e.frame != 0 {
		panic("binwire: BeginFrame with a frame already open")
	}
	e.frame = len(e.b) + 1
	e.b = append(e.b, 0, 0, 0, 0, typ)
}

// EndFrame closes the open frame, writing its length prefix.
func (e *Buffer) EndFrame() {
	if e.frame == 0 {
		panic("binwire: EndFrame without an open frame")
	}
	start := e.frame - 1
	binary.LittleEndian.PutUint32(e.b[start:], uint32(len(e.b)-start-4))
	e.frame = 0
}

// Uvarint appends v in LEB128.
func (e *Buffer) Uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }

// Varint appends v zigzagged.
func (e *Buffer) Varint(v int64) { e.b = binary.AppendUvarint(e.b, Zigzag(v)) }

// Byte appends one raw byte.
func (e *Buffer) Byte(c byte) { e.b = append(e.b, c) }

// String appends a length-prefixed string.
func (e *Buffer) String(s string) {
	e.b = binary.AppendUvarint(e.b, uint64(len(s)))
	e.b = append(e.b, s...)
}

// Raw appends bytes verbatim (the caller has encoded them already).
func (e *Buffer) Raw(p []byte) { e.b = append(e.b, p...) }

// Write appends p verbatim and never fails: it makes Buffer an
// io.Writer, so a streaming encoder such as json.Encoder can write into
// it without an intermediate copy.
func (e *Buffer) Write(p []byte) (int, error) {
	e.b = append(e.b, p...)
	return len(p), nil
}

// AvailableBuffer returns an empty slice over the buffer's spare
// capacity, as bytes.Buffer's does: an append-style encoder appends to
// it and hands the result to an immediately following Write. Bytes
// that fit are then already in place; otherwise Write grows the buffer,
// which keeps the larger array for its next use.
func (e *Buffer) AvailableBuffer() []byte { return e.b[len(e.b):] }

// --- Decoding -------------------------------------------------------------

// Reader decodes one payload (or a whole frame sequence) from a byte
// slice with a sticky error: after any failure every subsequent read
// returns zero values and Err reports the first failure, so decode
// funnels check the error once. A Reader never copies the input and
// never panics on malformed bytes.
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader returns a Reader over data.
func NewReader(data []byte) Reader { return Reader{data: data} }

// Err returns the first decode failure, or nil.
func (r *Reader) Err() error { return r.err }

// Fail records err (if the reader has not already failed) and makes
// every subsequent read a no-op — for message-layer validation errors
// discovered mid-payload.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Remaining returns the number of unread bytes (0 after a failure).
func (r *Reader) Remaining() int {
	if r.err != nil {
		return 0
	}
	return len(r.data) - r.off
}

// Uvarint reads one LEB128 value, rejecting truncated, overlong
// (>64-bit), and non-minimal encodings — the wire form of a value is
// canonical, so encoded frames can be compared byte-wise.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 || n > MaxVarintLen {
		r.Fail(fmt.Errorf("%w: bad uvarint at offset %d", ErrMalformed, r.off))
		return 0
	}
	// A minimal encoding never ends in a zero continuation byte: the
	// last byte carries the most significant bits, so a trailing 0x00
	// means the same value fits in fewer bytes (0x80 0x00 vs 0x00).
	if n > 1 && r.data[r.off+n-1] == 0 {
		r.Fail(fmt.Errorf("%w: non-minimal uvarint at offset %d", ErrMalformed, r.off))
		return 0
	}
	r.off += n
	return v
}

// Varint reads one zigzagged value.
func (r *Reader) Varint() int64 { return Unzigzag(r.Uvarint()) }

// Byte reads one raw byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.data) {
		r.Fail(fmt.Errorf("%w: truncated at offset %d", ErrMalformed, r.off))
		return 0
	}
	c := r.data[r.off]
	r.off++
	return c
}

// Count reads a uvarint bounded by max, failing (with a wrapped
// ErrMalformed) when the value exceeds it — the guard that keeps
// attacker-chosen counts from sizing allocations or loops.
func (r *Reader) Count(max int, what string) int {
	v := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if max < 0 {
		max = 0
	}
	if v > uint64(max) {
		r.Fail(fmt.Errorf("%w: %s %d exceeds bound %d", ErrMalformed, what, v, max))
		return 0
	}
	return int(v)
}

// String reads a length-prefixed string of at most max bytes. The
// bytes are copied (strings are cold-path identifiers: tile names,
// signatures, error text).
func (r *Reader) String(max int) string {
	n := r.Count(max, "string length")
	if r.err != nil {
		return ""
	}
	if r.off+n > len(r.data) {
		r.Fail(fmt.Errorf("%w: truncated string at offset %d", ErrMalformed, r.off))
		return ""
	}
	s := string(r.data[r.off : r.off+n])
	r.off += n
	return s
}

// Bytes reads n raw bytes, aliasing the input (zero-copy).
func (r *Reader) Bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.data) {
		r.Fail(fmt.Errorf("%w: truncated %d-byte run at offset %d", ErrMalformed, n, r.off))
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// Frame reads one frame header and returns the frame type plus a Reader
// over exactly its payload, advancing past the frame. The payload
// Reader aliases the input (zero-copy).
func (r *Reader) Frame() (typ byte, payload Reader) {
	if r.err != nil {
		return 0, Reader{err: r.err}
	}
	if r.off+FrameHeaderLen > len(r.data) {
		r.Fail(fmt.Errorf("%w: truncated frame header at offset %d", ErrMalformed, r.off))
		return 0, Reader{err: r.err}
	}
	n := binary.LittleEndian.Uint32(r.data[r.off:])
	if n < 1 || int(n) > len(r.data)-r.off-4 {
		r.Fail(fmt.Errorf("%w: frame length %d exceeds %d available bytes",
			ErrMalformed, n, len(r.data)-r.off-4))
		return 0, Reader{err: r.err}
	}
	typ = r.data[r.off+4]
	payload = Reader{data: r.data[r.off+FrameHeaderLen : r.off+4+int(n)]}
	r.off += 4 + int(n)
	return typ, payload
}

// Done fails the reader (wrapping ErrMalformed) unless every byte has
// been consumed — request frames must not carry trailing garbage.
func (r *Reader) Done() {
	if r.err == nil && r.off != len(r.data) {
		r.Fail(fmt.Errorf("%w: %d trailing bytes after payload", ErrMalformed, len(r.data)-r.off))
	}
}
