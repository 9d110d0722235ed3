package service

// The codec seam (DESIGN.md §10): each POST endpoint has one handler,
// written against the codec interface; JSON and the binary frame
// protocol (negotiated by Content-Type) are its two implementations.

import (
	"encoding/json"
	"net/http"
	"strconv"

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
	req, win, err := decodeBatchJSON(body, lim, &buf.sc)
	if err != nil {
		return BinBatch{}, err
	}
	out := BinBatch{Kind: kind, Plan: BinPlanRef{Spec: req.Plan}, T: req.T}
	if win != nil {
		out.Window, out.UseWindow = *win, true
	} else {
		out.Points = buf.sc.pts
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
// hands over one run of total answers, which is buf's pooled slice. The
// encoding is appended to a pooled buffer and written at once.
func (jsonCodec) writeBatch(w http.ResponseWriter, plan *core.Plan, req BinBatch, total int, buf *queryBuf, tr *reqTrace) error {
	may := req.Kind == binwire.FrameBatchMay
	var err error
	if may {
		err = answerMay(plan, &req, total, buf, func([]bool) bool { return true })
	} else {
		err = answerSlots(plan, &req, total, buf, func([]int32) bool { return true })
	}
	if err != nil {
		return err
	}
	tr.phase(phaseEncode)
	e := binwire.Get()
	defer binwire.Put(e)
	if may {
		_, _ = e.Write(appendMayJSON(e.AvailableBuffer(), MayResponse{M: plan.Slots(), T: req.T, May: buf.may}))
	} else {
		_, _ = e.Write(appendSlotsJSON(e.AvailableBuffer(), SlotsResponse{M: plan.Slots(), Slots: buf.slots}))
	}
	writeBuffered(w, http.StatusOK, "application/json", e)
	return nil
}

// appendSlotsJSON appends the bytes json.Encoder writes for r, trailing
// newline included, without reflection.
func appendSlotsJSON(b []byte, r SlotsResponse) []byte {
	b = strconv.AppendInt(append(b, `{"m":`...), int64(r.M), 10)
	b = append(b, `,"slots":`...)
	if r.Slots == nil {
		return append(b, "null}\n"...)
	}
	b = append(b, '[')
	for i, v := range r.Slots {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, "]}\n"...)
}

// appendMayJSON is appendSlotsJSON for a may-broadcast answer.
func appendMayJSON(b []byte, r MayResponse) []byte {
	b = strconv.AppendInt(append(b, `{"m":`...), int64(r.M), 10)
	b = strconv.AppendInt(append(b, `,"t":`...), r.T, 10)
	b = append(b, `,"may":`...)
	if r.May == nil {
		return append(b, "null}\n"...)
	}
	b = append(b, '[')
	for i, v := range r.May {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendBool(b, v)
	}
	return append(b, "]}\n"...)
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

// writeBuffered answers a complete response encoded in e.
func writeBuffered(w http.ResponseWriter, status int, contentType string, e *binwire.Buffer) {
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(status)
	_, _ = w.Write(e.Bytes())
}

// writeJSON answers a whole JSON response.
func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// An encode error comes after the status line: nothing more to do.
	_ = json.NewEncoder(w).Encode(body)
}
