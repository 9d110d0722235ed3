package service

// The codec seam (DESIGN.md §10): each POST endpoint has one handler,
// written against the codec interface; JSON and the binary frame
// protocol (negotiated by Content-Type) are its two implementations.

import (
	"encoding/json"
	"net/http"

	"tilingsched/internal/core"
	"tilingsched/internal/obs/trace"
	"tilingsched/internal/service/binwire"
)

// codec is one wire format of the POST endpoints. Decoding goes through
// the format's funnel into each endpoint's codec-neutral request — the
// binary funnels' forms (BinBatch, BinMutate, BinSubscribe), which JSON
// converts into. The stream methods append one subscription element to
// e, which the relay writes and flushes.
type codec interface {
	// traceExt splits an in-band trace context off a request body (the
	// binary FrameTraceExt prefix; JSON uses the traceparent header).
	traceExt(body []byte) (trace.Context, []byte)
	decodeBatch(body []byte, kind byte, lim Limits, buf *queryBuf) (BinBatch, error)
	decodeMutate(body []byte, lim Limits) (BinMutate, error)
	decodeSubscribe(body []byte, lim Limits) (BinSubscribe, error)

	writeErr(w http.ResponseWriter, status int, msg string)
	// writeBatch runs the engine over a dimension-checked batch of total
	// answers and writes them. It is called in tr's engine phase; a codec
	// that encodes after the engine enters tr's encode phase first. It
	// returns an engine error only while nothing has been written, so the
	// handler can still answer it.
	writeBatch(w http.ResponseWriter, plan *core.Plan, req BinBatch, total int, buf *queryBuf, tr *reqTrace) error
	writeMutate(w http.ResponseWriter, status int, resp MutateResponse)

	// streamType is the subscription stream's content type.
	streamType() string
	hello(e *binwire.Buffer, h SubscribeHello)
	delta(e *binwire.Buffer, d *Delta)
	bye(e *binwire.Buffer, epoch uint64, reason string)
}

// codecs holds the implementations by metrics label (codecJSON, codecBin).
var codecs = [numCodecs]codec{jsonCodec{}, binCodec{}}

// batchKinds holds the batch frame type each batch endpoint serves.
var batchKinds = [numEndpoints]byte{epSlots: binwire.FrameBatchSlots, epMay: binwire.FrameBatchMay}

// jsonCodec is the JSON wire format: the JSON funnels, whole JSON
// responses, and ndjson subscription streams.
type jsonCodec struct{}

func (jsonCodec) traceExt(body []byte) (trace.Context, []byte) { return trace.Context{}, body }

func (jsonCodec) decodeBatch(body []byte, kind byte, lim Limits, buf *queryBuf) (BinBatch, error) {
	req, win, err := DecodeBatchRequest(body, lim)
	if err != nil {
		return BinBatch{}, err
	}
	out := BinBatch{Kind: kind, Plan: BinPlanRef{Spec: req.Plan}, T: req.T}
	if win != nil {
		out.Window, out.UseWindow = *win, true
	} else {
		out.Points = buf.points(req.Points)
	}
	return out, nil
}

func (jsonCodec) decodeMutate(body []byte, lim Limits) (BinMutate, error) {
	req, win, events, err := DecodeMutateRequest(body, lim)
	if err != nil {
		return BinMutate{}, err
	}
	out := BinMutate{Plan: BinPlanRef{Spec: req.Plan}, Window: win, Full: req.Full, Events: events}
	if req.Epoch != nil {
		out.Epoch, out.HasEpoch = *req.Epoch, true
	}
	return out, nil
}

func (jsonCodec) decodeSubscribe(body []byte, lim Limits) (BinSubscribe, error) {
	req, win, err := DecodeSubscribeRequest(body, lim)
	if err != nil {
		return BinSubscribe{}, err
	}
	out := BinSubscribe{Plan: BinPlanRef{Spec: req.Plan}, Window: win}
	if req.Epoch != nil {
		out.Epoch, out.HasEpoch = *req.Epoch, true
	}
	return out, nil
}

func (jsonCodec) writeErr(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, ErrorResponse{Error: msg})
}

// writeBatch builds the whole answer before encoding it: the engine
// hands over one run of total answers, which is buf's pooled slice.
func (jsonCodec) writeBatch(w http.ResponseWriter, plan *core.Plan, req BinBatch, total int, buf *queryBuf, tr *reqTrace) error {
	var resp any
	var err error
	if req.Kind == binwire.FrameBatchMay {
		err = answerMay(plan, &req, total, buf, func(run []bool) bool { buf.may = run; return true })
		resp = MayResponse{M: plan.Slots(), T: req.T, May: buf.may}
	} else {
		err = answerSlots(plan, &req, total, buf, func(run []int32) bool { buf.slots = run; return true })
		resp = SlotsResponse{M: plan.Slots(), Slots: buf.slots}
	}
	if err != nil {
		return err
	}
	tr.phase(phaseEncode)
	writeJSON(w, http.StatusOK, resp)
	return nil
}

func (jsonCodec) writeMutate(w http.ResponseWriter, status int, resp MutateResponse) {
	writeJSON(w, status, resp)
}

func (jsonCodec) streamType() string { return ndjsonContentType }

func (jsonCodec) hello(e *binwire.Buffer, h SubscribeHello) { appendLine(e, h) }

func (jsonCodec) delta(e *binwire.Buffer, d *Delta) { appendLine(e, deltaWire(d)) }

func (jsonCodec) bye(e *binwire.Buffer, epoch uint64, reason string) {
	appendLine(e, SubscribeDelta{Epoch: epoch, Bye: reason})
}

// appendLine appends v as one ndjson element: json.Encoder writes the
// encoding and its newline straight into e, with no intermediate copy.
// The stream elements are plain structs, which always encode.
func appendLine(e *binwire.Buffer, v any) { _ = json.NewEncoder(e).Encode(v) }

// writeJSON answers a whole JSON response.
func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// An encode error comes after the status line: nothing more to do.
	_ = json.NewEncoder(w).Encode(body)
}
