package service

// Binary codec of the mutate plane (DESIGN.md §10): the frame grammar
// for POST /v1/plan:mutate under Content-Type negotiation. Mutations
// are orders of magnitude rarer than batch queries, so this side of the
// protocol optimizes for the same safety funnel rather than for
// allocation-freedom: DecodeBinaryMutate enforces exactly the contract
// of DecodeMutateRequest (window within MaxWindow, at most MaxBatch
// events, every event in-margin, ErrSpec→400 / ErrLimit→413) and is
// fuzzed by FuzzDecodeBinaryMutate under the same never-panic contract.

import (
	"fmt"
	"math"

	"tilingsched/internal/dynamic"
	"tilingsched/internal/lattice"
	"tilingsched/internal/service/binwire"
)

// Binary mutate event opcodes (wire form of dynamic.EventKind).
const (
	binOpJoin  byte = 0
	binOpLeave byte = 1
	binOpFail  byte = 2
	binOpMove  byte = 3
)

// Mutate request flag bits.
const (
	binMutHasEpoch byte = 1 << 0
	binMutFull     byte = 1 << 1
)

// Mutate response disruption flag bits.
const (
	binDisFullRecolor byte = 1 << 0
	binDisCompacted   byte = 1 << 1
)

// BinMutate is a decoded binary mutate request: the session address
// (plan + window), optimistic-concurrency epoch, resync flag, and the
// validated event batch (every event within the window's MutateMargin).
type BinMutate struct {
	// Plan names the session's plan (spec or signature reference).
	Plan BinPlanRef
	// Window is the session window, validated against MaxWindow.
	Window lattice.Window
	// Epoch is the client's session epoch, meaningful iff HasEpoch.
	Epoch uint64
	// HasEpoch reports whether the request pinned an epoch.
	HasEpoch bool
	// Full requests the complete live assignment in the response.
	Full bool
	// Events is the validated, converted event batch.
	Events []dynamic.Event
}

// DecodeBinaryMutate parses one binary mutate request frame and
// enforces the structural contract of the JSON mutate funnel: a
// well-formed window within lim.MaxWindow, at most lim.MaxBatch
// events, every event a known op with coordinates inside
// window ± MutateMargin, and a non-empty batch unless Full is set.
// Violations wrap ErrSpec (400) or ErrLimit (413); malformed bytes
// never panic.
func DecodeBinaryMutate(data []byte, lim Limits) (BinMutate, error) {
	lim = lim.withDefaults()
	stream := binwire.NewReader(data)
	typ, r := stream.Frame()
	stream.Done()
	if stream.Err() != nil {
		return BinMutate{}, failSpec(&stream)
	}
	if typ != binwire.FrameMutate {
		return BinMutate{}, fmt.Errorf("%w: frame type %#x is not a mutate request", ErrSpec, typ)
	}
	var req BinMutate
	var err error
	if req.Plan, err = decodePlanRef(&r); err != nil {
		return BinMutate{}, err
	}
	if req.Window, err = decodeWindow(&r, lim.MaxWindow, nil); err != nil {
		return BinMutate{}, err
	}
	flags := r.Byte()
	if flags&binMutHasEpoch != 0 {
		req.Epoch = r.Uvarint()
		req.HasEpoch = true
	}
	req.Full = flags&binMutFull != 0
	// Bound the count while still unsigned: a raw int() conversion of an
	// attacker-chosen uvarint ≥ 2^63 would go negative and slip past both
	// the limit and the emptiness checks into make().
	rawCount := r.Uvarint()
	if r.Err() != nil {
		return BinMutate{}, failSpec(&r)
	}
	if rawCount > uint64(lim.MaxBatch) {
		return BinMutate{}, fmt.Errorf("%w: %d events exceed limit %d", ErrLimit, rawCount, lim.MaxBatch)
	}
	count := int(rawCount)
	if count == 0 && !req.Full {
		return BinMutate{}, fmt.Errorf("%w: no events and full not requested", ErrSpec)
	}
	// Every event takes at least its op byte and one byte per
	// coordinate: a count the payload cannot hold fails before it sizes
	// the event list.
	dim := req.Window.Dim()
	if count > r.Remaining()/(1+dim) {
		return BinMutate{}, fmt.Errorf("%w: %d events of dimension %d overrun the %d bytes left", ErrSpec, count, dim, r.Remaining())
	}
	// Growth bound, identical to the JSON funnel: every event position
	// must stay within MutateMargin of the session window.
	bound := growMargin(req.Window)
	req.Events = make([]dynamic.Event, 0, count)
	for i := 0; i < count; i++ {
		op := r.Byte()
		p := decodeCoords(&r, dim)
		var ev dynamic.Event
		switch op {
		case binOpJoin:
			ev = dynamic.Event{Kind: dynamic.Join, P: p}
		case binOpLeave:
			ev = dynamic.Event{Kind: dynamic.Leave, P: p}
		case binOpFail:
			ev = dynamic.Event{Kind: dynamic.Fail, P: p}
		case binOpMove:
			ev = dynamic.Event{Kind: dynamic.Move, P: p, To: decodeCoords(&r, dim)}
		default:
			if r.Err() != nil {
				return BinMutate{}, failSpec(&r)
			}
			return BinMutate{}, fmt.Errorf("%w: event %d: unknown op %d", ErrSpec, i, op)
		}
		if r.Err() != nil {
			return BinMutate{}, failSpec(&r)
		}
		if !inMargin(bound, ev) {
			return BinMutate{}, fmt.Errorf("%w: event %d outside the window's margin %s",
				ErrLimit, i, bound)
		}
		req.Events = append(req.Events, ev)
	}
	r.Done()
	if r.Err() != nil {
		return BinMutate{}, failSpec(&r)
	}
	return req, nil
}

// EncodeMutateBinary appends the binary frame of a mutate request to e.
// A non-empty sig encodes a plan-by-signature reference instead of
// req.Plan. Returns an error for events whose op is not in the wire
// vocabulary (the request is not encodable).
func EncodeMutateBinary(e *binwire.Buffer, req MutateRequest, sig string) error {
	e.BeginFrame(binwire.FrameMutate)
	encodePlanRef(e, req.Plan, sig)
	encodeWindowSpec(e, req.Window)
	var flags byte
	if req.Epoch != nil {
		flags |= binMutHasEpoch
	}
	if req.Full {
		flags |= binMutFull
	}
	e.Byte(flags)
	if req.Epoch != nil {
		e.Uvarint(*req.Epoch)
	}
	e.Uvarint(uint64(len(req.Events)))
	dim := len(req.Window.Lo)
	for _, es := range req.Events {
		var op byte
		switch es.Op {
		case "join":
			op = binOpJoin
		case "leave":
			op = binOpLeave
		case "fail":
			op = binOpFail
		case "move":
			op = binOpMove
		default:
			e.EndFrame()
			return fmt.Errorf("%w: unknown op %q", ErrSpec, es.Op)
		}
		e.Byte(op)
		encodeCoords(e, es.P, dim)
		if op == binOpMove {
			encodeCoords(e, es.To, dim)
		}
	}
	e.EndFrame()
	return nil
}

// encodeMutateResponse writes the complete mutate response frame plus
// the terminating end frame (server side).
func encodeMutateResponse(e *binwire.Buffer, resp MutateResponse) {
	e.BeginFrame(binwire.FrameMutateResult)
	e.String(resp.Signature)
	e.Uvarint(resp.Epoch)
	e.Uvarint(uint64(resp.M))
	e.Uvarint(uint64(resp.Alive))
	d := resp.Disruption
	e.Uvarint(uint64(d.Events))
	e.Uvarint(uint64(d.Joined))
	e.Uvarint(uint64(d.Departed))
	e.Uvarint(uint64(d.Reassigned))
	e.Varint(int64(d.ColorsDelta))
	var flags byte
	if d.FullRecolor {
		flags |= binDisFullRecolor
	}
	if d.Compacted {
		flags |= binDisCompacted
	}
	e.Byte(flags)
	encodeChanges(e, resp.Changed)
	e.String(resp.Error)
	e.EndFrame()
	e.BeginFrame(binwire.FrameEnd)
	e.EndFrame()
}

// encodeChanges appends a change set — count, dimension (the first
// change's), then each change's coordinates and slot — the shared body
// of the mutate-result and delta frames.
func encodeChanges(e *binwire.Buffer, changed []ChangeSpec) {
	e.Uvarint(uint64(len(changed)))
	dim := 0
	if len(changed) > 0 {
		dim = len(changed[0].P)
	}
	e.Uvarint(uint64(dim))
	for _, ch := range changed {
		encodeCoords(e, ch.P, dim)
		e.Varint(int64(ch.Slot))
	}
}

// encodeCoords appends exactly dim coordinates of c, padding a short
// point with zeros (decoders read dim). It is the one point codec of
// the binary mutate frames and the persistence frames.
func encodeCoords(e *binwire.Buffer, c []int, dim int) {
	for a := 0; a < dim; a++ {
		v := 0
		if a < len(c) {
			v = c[a]
		}
		e.Varint(int64(v))
	}
}

// decodeCoords reads the dim coordinates encodeCoords wrote, leaving
// any failure on r.
func decodeCoords(r *binwire.Reader, dim int) []int {
	p := make([]int, dim)
	for a := range p {
		p[a] = int(r.Varint())
	}
	return p
}

// decodeChanges reads an encodeChanges change set, leaving any failure
// on r. Pre-allocation is bounded by what the payload could actually
// hold (at least one byte per coordinate and slot), so a hostile count
// cannot amplify allocation.
func decodeChanges(r *binwire.Reader) []ChangeSpec {
	count := r.Count(math.MaxInt32, "change count")
	dim := r.Count(maxTileDim, "change dimension")
	if r.Err() != nil {
		return nil
	}
	changed := make([]ChangeSpec, 0, min(count, r.Remaining()/(1+dim)))
	for i := 0; i < count && r.Err() == nil; i++ {
		changed = append(changed, ChangeSpec{P: decodeCoords(r, dim), Slot: int(r.Varint())})
	}
	return changed
}

// DecodeMutateStream parses a complete binary mutate response into the
// JSON-shaped MutateResponse (client side). An Error frame decodes
// into *WireError.
func DecodeMutateStream(data []byte) (MutateResponse, error) {
	var resp MutateResponse
	stream := binwire.NewReader(data)
	typ, r := stream.Frame()
	if stream.Err() != nil {
		return resp, failSpec(&stream)
	}
	if typ == binwire.FrameError {
		return resp, decodeErrorFrame(&r)
	}
	if typ != binwire.FrameMutateResult {
		return resp, fmt.Errorf("%w: expected mutate result, got frame %#x", ErrSpec, typ)
	}
	resp.Signature = r.String(maxWireSig)
	resp.Epoch = r.Uvarint()
	resp.M = r.Count(math.MaxInt32, "m")
	resp.Alive = r.Count(math.MaxInt32, "alive")
	resp.Disruption.Events = r.Count(math.MaxInt32, "events")
	resp.Disruption.Joined = r.Count(math.MaxInt32, "joined")
	resp.Disruption.Departed = r.Count(math.MaxInt32, "departed")
	resp.Disruption.Reassigned = r.Count(math.MaxInt32, "reassigned")
	resp.Disruption.ColorsDelta = int(r.Varint())
	flags := r.Byte()
	resp.Disruption.FullRecolor = flags&binDisFullRecolor != 0
	resp.Disruption.Compacted = flags&binDisCompacted != 0
	resp.Changed = decodeChanges(&r)
	resp.Error = r.String(maxWireErrMsg)
	r.Done()
	if r.Err() != nil {
		return resp, failSpec(&r)
	}
	typ, _ = stream.Frame()
	if stream.Err() != nil || typ != binwire.FrameEnd {
		return resp, fmt.Errorf("%w: mutate stream not terminated by end frame", ErrSpec)
	}
	return resp, nil
}
