package service

// The binary codec (DESIGN.md §10) behind BinaryContentType, serving
// the same handlers as the JSON codec (codec.go), so the two formats
// cannot drift semantically. A batch answer streams as head, chunk and
// End frames through one pooled buffer flushed every binFlushBytes — a
// 1M-point window goes out as ~64 chunk frames, never whole.

import (
	"fmt"
	"net/http"
	"strings"

	"tilingsched/internal/core"
	"tilingsched/internal/obs/trace"
	"tilingsched/internal/service/binwire"
)

const (
	// binChunkPoints is the number of answers per response chunk frame.
	binChunkPoints = 16384
	// binFlushBytes is the encode-buffer size that triggers a flush to
	// the client mid-stream.
	binFlushBytes = 32 << 10
)

// isBinaryRequest reports whether the request selected the binary wire
// protocol via its Content-Type (parameters ignored).
func isBinaryRequest(r *http.Request) bool {
	ct, _, _ := strings.Cut(r.Header.Get("Content-Type"), ";")
	return strings.TrimSpace(ct) == BinaryContentType
}

// binCodec is the binary wire format.
type binCodec struct{}

func (binCodec) traceExt(body []byte) (trace.Context, []byte) { return DecodeTraceExt(body) }

func (binCodec) decodeBatch(body []byte, kind byte, lim Limits, buf *queryBuf) (BinBatch, error) {
	req, err := DecodeBinaryBatch(body, lim, &buf.sc)
	if err == nil && req.Kind != kind {
		err = fmt.Errorf("frame type %#x does not match this endpoint", req.Kind)
	}
	return req, err
}

func (binCodec) decodeMutate(body []byte, lim Limits) (BinMutate, error) {
	return DecodeBinaryMutate(body, lim)
}

func (binCodec) decodeSubscribe(body []byte, lim Limits) (BinSubscribe, error) {
	return DecodeBinarySubscribe(body, lim)
}

// writeErr answers an Error frame (status + message) and an End frame.
func (binCodec) writeErr(w http.ResponseWriter, status int, msg string) {
	e := binwire.Get()
	defer binwire.Put(e)
	e.BeginFrame(binwire.FrameError)
	e.Uvarint(uint64(status))
	e.String(msg)
	e.EndFrame()
	e.BeginFrame(binwire.FrameEnd)
	e.EndFrame()
	writeBuffered(w, status, BinaryContentType, e)
}

// writeBatch streams the head frame, chunk frames and End. The engine
// and encode phases interleave chunk by chunk, so the whole stream
// counts toward the engine phase and no encode phase is entered.
func (binCodec) writeBatch(w http.ResponseWriter, plan *core.Plan, req BinBatch, total int, buf *queryBuf, _ *reqTrace) error {
	e := binwire.Get()
	defer binwire.Put(e)
	st := binStream{w: w, e: e}
	w.Header().Set("Content-Type", BinaryContentType)
	var err error
	if req.Kind == binwire.FrameBatchMay {
		e.BeginFrame(binwire.FrameMayHead)
		e.Uvarint(uint64(plan.Slots()))
		e.Varint(req.T)
		e.Uvarint(uint64(total))
		e.EndFrame()
		err = answerMay(plan, &req, binChunkPoints, buf, st.emitMayChunk)
	} else {
		e.BeginFrame(binwire.FrameSlotsHead)
		e.Uvarint(uint64(plan.Slots()))
		e.Uvarint(uint64(total))
		e.EndFrame()
		err = answerSlots(plan, &req, binChunkPoints, buf, st.emitSlotsChunk)
	}
	switch {
	case err == nil:
		e.BeginFrame(binwire.FrameEnd)
		e.EndFrame()
		st.flush(true)
	case !st.wrote:
		return err
	}
	return nil // a stream that failed mid-flight ends without End: the client's truncation signal
}

func (binCodec) writeMutate(w http.ResponseWriter, status int, resp MutateResponse) {
	e := binwire.Get()
	defer binwire.Put(e)
	encodeMutateResponse(e, resp)
	writeBuffered(w, status, BinaryContentType, e)
}

func (binCodec) streamType() string { return BinaryContentType }

func (binCodec) hello(e *binwire.Buffer, h SubscribeHello) { encodeSubHello(e, h) }

func (binCodec) delta(e *binwire.Buffer, d *Delta) { encodeDeltaFrame(e, d) }

// bye ends the stream: a SubBye frame, then End.
func (binCodec) bye(e *binwire.Buffer, epoch uint64, reason string) {
	encodeSubBye(e, epoch, reason)
	e.BeginFrame(binwire.FrameEnd)
	e.EndFrame()
}

// binStream incrementally writes an encoded frame sequence to the
// client, flushing whenever the pooled buffer passes binFlushBytes.
// Write errors stick (the client hung up; nothing more to send).
type binStream struct {
	w     http.ResponseWriter
	e     *binwire.Buffer
	err   error
	wrote bool
}

// flush writes the buffered frames out if forced or past the flush
// threshold, returning false once the client is gone.
func (st *binStream) flush(force bool) bool {
	if st.err != nil {
		return false
	}
	if st.e.Len() == 0 || (!force && st.e.Len() < binFlushBytes) {
		return true
	}
	st.wrote = true
	_, st.err = st.w.Write(st.e.Bytes())
	st.e.Reset()
	return st.err == nil
}

// emitSlotsChunk appends one slots chunk frame.
func (st *binStream) emitSlotsChunk(slots []int32) bool {
	st.e.BeginFrame(binwire.FrameSlotsChunk)
	st.e.Uvarint(uint64(len(slots)))
	for _, v := range slots {
		st.e.Uvarint(uint64(v))
	}
	st.e.EndFrame()
	return st.flush(false)
}

// emitMayChunk appends one bit-packed may chunk frame (LSB-first,
// eight flags per byte).
func (st *binStream) emitMayChunk(flags []bool) bool {
	st.e.BeginFrame(binwire.FrameMayChunk)
	st.e.Uvarint(uint64(len(flags)))
	var b byte
	for i, f := range flags {
		if f {
			b |= 1 << (i % 8)
		}
		if i%8 == 7 {
			st.e.Byte(b)
			b = 0
		}
	}
	if len(flags)%8 != 0 {
		st.e.Byte(b)
	}
	st.e.EndFrame()
	return st.flush(false)
}
