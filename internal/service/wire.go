package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"tilingsched/internal/lattice"
	"tilingsched/internal/prototile"
)

// ErrSpec indicates a malformed or unresolvable wire-level request.
var ErrSpec = errors.New("service: invalid spec")

// ErrLimit indicates a well-formed request that exceeds a server bound
// (batch size, window expansion); the HTTP layer maps it to 413.
var ErrLimit = errors.New("service: request exceeds limit")

// maxTilePoints bounds how many points a wire-level tile spec may
// materialize. Interference neighborhoods are small (the paper's are
// ≤ 25 points); the bound exists so an unauthenticated request cannot
// make the server build a gigantic prototile or run an unbounded tiling
// search.
const maxTilePoints = 512

// maxTileDim bounds the dimension of explicit tile points, named tiles
// (cross:<d>:..., chebyshev:<d>:...), and cubic:<d> lattices — one
// constant for every wire-level dimension check. Without it a single
// point with a huge coordinate count would later drive a d×d
// lattice-basis allocation.
const maxTileDim = 16

// boxWithin reports whether side^dim stays ≤ maxTilePoints without
// overflowing — the cheap pre-materialization size check for
// box-bounded tiles.
func boxWithin(side, dim int) bool {
	size := 1
	for i := 0; i < dim; i++ {
		size *= side
		if size > maxTilePoints {
			return false
		}
	}
	return true
}

// PlanSpec names a (lattice, prototile) pair over the wire. The lattice
// is optional: it defaults to the square lattice in dimension 2 and to
// Z^d otherwise (the lattice only fixes metric context — scheduling is
// purely coordinate-based).
type PlanSpec struct {
	// Lattice is "square", "hexagonal", or "cubic:<d>"; empty selects a
	// default matching the tile's dimension.
	Lattice string `json:"lattice,omitempty"`
	// Tile is the interference neighborhood N.
	Tile TileSpec `json:"tile"`
}

// TileSpec is a prototile over the wire: either a catalog name or an
// explicit point list (which must contain the origin). Exactly one of
// the two must be set.
//
// Catalog grammar (matching internal/prototile's constructors):
//
//	cross:<d>:<r>       d-dimensional von Neumann ball of radius r
//	chebyshev:<d>:<r>   d-dimensional Chebyshev (Moore) ball of radius r
//	rect:<w>:<h>        w×h rectangle
//	ball:<r>            Euclidean ball of radius r on the plan's lattice
//	tetromino:<X>       X ∈ {I,O,T,S,Z,L,J}
//	pentomino:<X>       the 12 one-sided pentominoes
//	ltromino            the L-tromino
//	directional         the paper's Figure 2 directional neighborhood
type TileSpec struct {
	Name   string  `json:"name,omitempty"`
	Points [][]int `json:"points,omitempty"`
}

// WindowSpec is the wire form of a lattice.Window: inclusive corners.
type WindowSpec struct {
	Lo []int `json:"lo"`
	Hi []int `json:"hi"`
}

// Window validates and converts the spec.
func (ws WindowSpec) Window() (lattice.Window, error) {
	return lattice.NewWindow(lattice.Point(ws.Lo), lattice.Point(ws.Hi))
}

// bounded converts the spec and bounds the window's expansion — the
// window check of every decode funnel: malformed corners wrap ErrSpec,
// more than maxPoints points ErrLimit.
func (ws WindowSpec) bounded(maxPoints int) (lattice.Window, error) {
	win, err := ws.Window()
	if err != nil {
		return lattice.Window{}, fmt.Errorf("%w: %v", ErrSpec, err)
	}
	size, err := win.SizeChecked()
	if err != nil || size > maxPoints {
		return lattice.Window{}, fmt.Errorf("%w: window %s exceeds limit %d points", ErrLimit, win, maxPoints)
	}
	return win, nil
}

// Resolve materializes the spec into a lattice and prototile. It does
// not compile a plan — that is the registry's job — so resolution stays
// cheap enough to run per request just to derive the cache signature.
func (s PlanSpec) Resolve() (*lattice.Lattice, *prototile.Tile, error) {
	if s.Tile.Name != "" && len(s.Tile.Points) > 0 {
		return nil, nil, fmt.Errorf("%w: tile has both a name and explicit points", ErrSpec)
	}
	if s.Tile.Name == "" && len(s.Tile.Points) == 0 {
		return nil, nil, fmt.Errorf("%w: tile is empty", ErrSpec)
	}
	// Euclidean balls are metric constructions: they need the lattice
	// first. Everything else fixes the dimension, which picks the
	// default lattice.
	if r, ok := strings.CutPrefix(s.Tile.Name, "ball:"); ok {
		lat, err := resolveLattice(s.Lattice, 2)
		if err != nil {
			return nil, nil, err
		}
		radius, perr := strconv.ParseFloat(r, 64)
		if perr != nil || math.IsNaN(radius) || radius < 0 ||
			!boxWithin(2*int(math.Ceil(min(radius, 1<<20)))+1, lat.Dim()) {
			return nil, nil, fmt.Errorf("%w: ball radius %q", ErrSpec, r)
		}
		return lat, prototile.EuclideanBall(lat, radius), nil
	}
	tile, err := s.Tile.resolve()
	if err != nil {
		return nil, nil, err
	}
	lat, err := resolveLattice(s.Lattice, tile.Dim())
	if err != nil {
		return nil, nil, err
	}
	if lat.Dim() != tile.Dim() {
		return nil, nil, fmt.Errorf("%w: lattice dimension %d ≠ tile dimension %d",
			ErrSpec, lat.Dim(), tile.Dim())
	}
	return lat, tile, nil
}

func resolveLattice(name string, dim int) (*lattice.Lattice, error) {
	switch {
	case name == "":
		if dim == 2 {
			return lattice.Square(), nil
		}
		return lattice.Cubic(dim), nil
	case name == "square":
		return lattice.Square(), nil
	case name == "hexagonal":
		return lattice.Hexagonal(), nil
	case strings.HasPrefix(name, "cubic:"):
		d, err := strconv.Atoi(name[len("cubic:"):])
		if err != nil || d < 1 || d > maxTileDim {
			return nil, fmt.Errorf("%w: lattice %q", ErrSpec, name)
		}
		return lattice.Cubic(d), nil
	}
	return nil, fmt.Errorf("%w: unknown lattice %q", ErrSpec, name)
}

func (ts TileSpec) resolve() (*prototile.Tile, error) {
	if len(ts.Points) > 0 {
		if len(ts.Points) > maxTilePoints {
			return nil, fmt.Errorf("%w: tile has %d points, limit %d", ErrSpec, len(ts.Points), maxTilePoints)
		}
		pts := make([]lattice.Point, len(ts.Points))
		for i, c := range ts.Points {
			if len(c) == 0 || len(c) > maxTileDim {
				return nil, fmt.Errorf("%w: tile point %d has dimension %d, want 1..%d",
					ErrSpec, i, len(c), maxTileDim)
			}
			pts[i] = lattice.Pt(c...)
		}
		t, err := prototile.New("custom", pts...)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrSpec, err)
		}
		return t, nil
	}
	name, arg, _ := strings.Cut(ts.Name, ":")
	switch name {
	case "cross", "chebyshev":
		d, r, err := twoInts(arg)
		if err != nil || d < 1 || d > maxTileDim || r < 0 || r > maxTilePoints || !boxWithin(2*r+1, d) {
			return nil, fmt.Errorf("%w: tile %q", ErrSpec, ts.Name)
		}
		if name == "cross" {
			return prototile.Cross(d, r), nil
		}
		return prototile.ChebyshevBall(d, r), nil
	case "rect":
		w, h, err := twoInts(arg)
		if err != nil || w < 1 || h < 1 || w > maxTilePoints || h > maxTilePoints || w*h > maxTilePoints {
			return nil, fmt.Errorf("%w: tile %q", ErrSpec, ts.Name)
		}
		return prototile.Rect(w, h), nil
	case "tetromino", "pentomino":
		named := prototile.Tetromino
		if name == "pentomino" {
			named = prototile.Pentomino
		}
		t, err := named(arg)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrSpec, err)
		}
		return t, nil
	case "ltromino":
		return prototile.LTromino(), nil
	case "directional":
		return prototile.Directional(), nil
	}
	return nil, fmt.Errorf("%w: unknown tile %q", ErrSpec, ts.Name)
}

func twoInts(s string) (int, int, error) {
	a, b, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("want <a>:<b>, got %q", s)
	}
	x, err := strconv.Atoi(a)
	if err != nil {
		return 0, 0, err
	}
	y, err := strconv.Atoi(b)
	if err != nil {
		return 0, 0, err
	}
	return x, y, nil
}

// --- Request/response bodies ---------------------------------------------

// PlanRequest is the body of POST /v1/plan.
type PlanRequest struct {
	Plan PlanSpec `json:"plan"`
}

// PlanResponse describes a compiled plan.
type PlanResponse struct {
	// Signature is the canonical cache key; clients may log or compare
	// it but always re-send the full spec (the server cache is an LRU).
	Signature string `json:"signature"`
	Lattice   string `json:"lattice"`
	Dim       int    `json:"dim"`
	// Slots is the schedule period m = |N| (provably optimal).
	Slots int `json:"slots"`
	// Period is the HNF basis of the tiling's translate sublattice.
	Period [][]int64 `json:"period"`
	// Tile is the prototile's point list in canonical order; slot k
	// belongs to coset Tile[k] + T.
	Tile [][]int `json:"tile"`
}

// BatchRequest is the body of POST /v1/slots:batch and
// /v1/maybroadcast:batch. Exactly one of Points and Window must be set;
// Window is shorthand for its points in lexicographic order. T is the
// query time for maybroadcast (ignored by slots).
type BatchRequest struct {
	Plan   PlanSpec    `json:"plan"`
	Points [][]int     `json:"points,omitempty"`
	Window *WindowSpec `json:"window,omitempty"`
	T      int64       `json:"t,omitempty"`
}

// SlotsResponse answers a slots batch: Slots[i] is the slot of the i-th
// queried point.
type SlotsResponse struct {
	M     int     `json:"m"`
	Slots []int32 `json:"slots"`
}

// MayResponse answers a maybroadcast batch: May[i] reports whether the
// i-th queried point's sensor may broadcast at time T.
type MayResponse struct {
	M   int    `json:"m"`
	T   int64  `json:"t"`
	May []bool `json:"may"`
}

// ErrorResponse is the body of every non-2xx reply.
type ErrorResponse struct {
	Error string `json:"error"`
}

// --- Decoding entry points ------------------------------------------------
//
// These are the single funnel between untrusted bytes and the engine, so
// they are also the package's native fuzz targets (FuzzDecodeBatchRequest,
// FuzzDecodeTileSpec): whatever the input, they must return an error —
// never panic, never hand oversized work to the engine.

// Limits bounds wire-level batch decoding. Zero or negative values
// select the server defaults.
type Limits struct {
	// MaxBatch caps the number of explicit points per batch.
	MaxBatch int
	// MaxWindow caps the number of points a window shorthand expands to.
	MaxWindow int
}

func (l Limits) withDefaults() Limits {
	if l.MaxBatch <= 0 {
		l.MaxBatch = defaultMaxBatch
	}
	if l.MaxWindow <= 0 {
		l.MaxWindow = defaultMaxWindow
	}
	return l
}

// DecodeBatchRequest parses a batch request body and enforces its
// structural contract: valid JSON, exactly one of points and window set,
// the batch within lim.MaxBatch, and the window shorthand well-formed
// and within lim.MaxWindow points. On success the validated window (nil
// for explicit-point batches) is returned alongside the request.
// Appending to one point row cannot overwrite another. Violations yield
// errors wrapping ErrSpec (malformed, 400) or ErrLimit (too large, 413).
func DecodeBatchRequest(data []byte, lim Limits) (BatchRequest, *lattice.Window, error) {
	var sc BinScratch
	req, win, err := decodeBatchJSON(data, lim, &sc)
	if err == nil && win == nil {
		req.Points = make([][]int, len(sc.pts))
		for i, p := range sc.pts {
			req.Points[i] = p
		}
	}
	return req, win, err
}

// decodeBatchJSON is the JSON batch funnel of DecodeBatchRequest and the
// JSON codec. A body of the canonical shape is scanned straight into
// sc's arena (scanBatch); any other goes through encoding/json
// (unmarshalBatch), which stays the reference for what the funnel
// accepts and how it fails. Either way the point rows end up in sc.pts,
// req.Points is nil, and one check (checkBatch) validates the request.
func decodeBatchJSON(data []byte, lim Limits, sc *BinScratch) (BatchRequest, *lattice.Window, error) {
	lim = lim.withDefaults()
	req, scanned := scanBatch(data, lim.MaxBatch, sc)
	rows := len(sc.pts)
	if !scanned {
		var err error
		if req, err = unmarshalBatch(data); err != nil {
			return BatchRequest{}, nil, err
		}
		rows = len(req.Points)
	}
	win, err := checkBatch(rows, req.Window, lim)
	if err != nil {
		return BatchRequest{}, nil, err
	}
	if !scanned {
		// Adopted only once checked, so an over-limit batch never grows
		// the pooled headers.
		sc.pts = sc.pts[:0]
		for _, row := range req.Points {
			sc.pts = append(sc.pts, row)
		}
		req.Points = nil
	}
	return req, win, nil
}

// unmarshalBatch is the reflection decode of a batch body.
func unmarshalBatch(data []byte) (BatchRequest, error) {
	var req BatchRequest
	if err := json.Unmarshal(data, &req); err != nil {
		return BatchRequest{}, fmt.Errorf("%w: decoding request: %v", ErrSpec, err)
	}
	return req, nil
}

// checkBatch enforces a decoded batch's structural contract: exactly
// one of rows points and window ws, at most lim.MaxBatch points, and
// the window bounded by lim.MaxWindow. It returns the validated window,
// nil for a point batch.
func checkBatch(rows int, ws *WindowSpec, lim Limits) (*lattice.Window, error) {
	switch {
	case rows > 0 && ws == nil:
		if rows > lim.MaxBatch {
			return nil, fmt.Errorf("%w: batch of %d points exceeds limit %d", ErrLimit, rows, lim.MaxBatch)
		}
		return nil, nil
	case ws != nil && rows == 0:
		win, err := ws.bounded(lim.MaxWindow)
		if err != nil {
			return nil, err
		}
		return &win, nil
	default:
		return nil, fmt.Errorf("%w: exactly one of points and window must be set", ErrSpec)
	}
}

// The canonical batch keys, as scanBatch's seen-set bits.
const (
	keyPlan = 1 << iota
	keyPoints
	keyWindow
	keyT
)

// scanBatch reads a batch body of the canonical shape without
// reflection: one object whose keys are exactly plan, points, window
// and t — lowercase, unescaped, each at most once — with JSON
// whitespace anywhere and nothing after the closing brace. points is
// an array of at most maxRows arrays of at most maxTileDim integer
// literals that fit int; t is an integer literal that fits int64; plan
// and window are objects, which json.Unmarshal decodes from their own
// bytes. The rows land in sc: coordinates in its arena, headers in
// sc.pts. scanned is false for any other body, which the caller hands
// to the reference decode; a body the scanner takes decodes there to
// the same request (FuzzDecodeBatchRequest checks this).
func scanBatch(data []byte, maxRows int, sc *BinScratch) (req BatchRequest, scanned bool) {
	sc.reserve(0)
	s := jsonScanner{data: data}
	if !s.next('{') {
		return req, false
	}
	if !s.next('}') {
		seen := 0
		for {
			key := s.key()
			if key == 0 || seen&key != 0 || !s.next(':') {
				return req, false
			}
			seen |= key
			ok := false
			switch key {
			case keyPlan:
				v, found := s.object()
				ok = found && json.Unmarshal(v, &req.Plan) == nil
			case keyWindow:
				v, found := s.object()
				req.Window = new(WindowSpec)
				ok = found && json.Unmarshal(v, req.Window) == nil
			case keyPoints:
				ok = s.rows(maxRows, sc)
			case keyT:
				req.T, ok = s.int(64)
			}
			if !ok {
				return req, false
			}
			if !s.next(',') {
				break
			}
		}
		if !s.next('}') {
			return req, false
		}
	}
	s.space()
	if s.off != len(data) {
		return req, false
	}
	// The arena has stopped growing: bind each row, which so far only
	// recorded its length, to its place in it.
	off := 0
	for i, p := range sc.pts {
		end := off + len(p)
		sc.pts[i] = sc.coords[off:end:end]
		off = end
	}
	return req, true
}

// jsonScanner is scanBatch's cursor over a request body.
type jsonScanner struct {
	data []byte
	off  int
}

// space skips JSON whitespace.
func (s *jsonScanner) space() {
	for s.off < len(s.data) {
		switch s.data[s.off] {
		case ' ', '\t', '\n', '\r':
			s.off++
		default:
			return
		}
	}
}

// next skips whitespace and consumes c if it comes next.
func (s *jsonScanner) next(c byte) bool {
	s.space()
	if s.off < len(s.data) && s.data[s.off] == c {
		s.off++
		return true
	}
	return false
}

// key reads one member name and returns its key bit: 0 for any name
// but the four canonical ones spelled exactly, escapes included.
func (s *jsonScanner) key() int {
	if !s.next('"') {
		return 0
	}
	start := s.off
	for s.off < len(s.data) && s.data[s.off] != '"' && s.data[s.off] != '\\' {
		s.off++
	}
	if s.off == len(s.data) || s.data[s.off] != '"' {
		return 0
	}
	name := s.data[start:s.off]
	s.off++
	switch string(name) {
	case "plan":
		return keyPlan
	case "points":
		return keyPoints
	case "window":
		return keyWindow
	case "t":
		return keyT
	}
	return 0
}

// object returns the bytes of the object at the cursor and moves past
// it. String-aware bracket matching finds its end; the caller's
// json.Unmarshal validates the bytes, and bytes it accepts are exactly
// one object.
func (s *jsonScanner) object() ([]byte, bool) {
	s.space()
	start := s.off
	if start == len(s.data) || s.data[start] != '{' {
		return nil, false
	}
	depth := 0
	for i := start; i < len(s.data); i++ {
		switch s.data[i] {
		case '{', '[':
			depth++
		case '}', ']':
			if depth--; depth == 0 {
				s.off = i + 1
				return s.data[start:s.off], true
			}
		case '"':
			for i++; i < len(s.data) && s.data[i] != '"'; i++ {
				if s.data[i] == '\\' {
					i++
				}
			}
		}
	}
	return nil, false
}

// rows reads the points array into sc. Each row's header records only
// its length until scanBatch binds it, since appending may still move
// the arena.
func (s *jsonScanner) rows(maxRows int, sc *BinScratch) bool {
	if !s.next('[') {
		return false
	}
	if s.next(']') {
		return true
	}
	for {
		if len(sc.pts) == maxRows || !s.next('[') {
			return false
		}
		start := len(sc.coords)
		if !s.next(']') {
			for {
				v, ok := s.int(strconv.IntSize)
				if !ok || len(sc.coords)-start == maxTileDim {
					return false
				}
				sc.coords = append(sc.coords, int(v))
				if !s.next(',') {
					break
				}
			}
			if !s.next(']') {
				return false
			}
		}
		sc.pts = append(sc.pts, sc.coords[start:])
		if !s.next(',') {
			return s.next(']')
		}
	}
}

// int reads an integer literal that fits a signed integer of the given
// bits. It reports false for a malformed literal or an overflow; the
// caller rejects a fraction or exponent, which follows the digits.
func (s *jsonScanner) int(bits int) (int64, bool) {
	s.space()
	data, i := s.data, s.off
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	limit := uint64(1) << (bits - 1) // the magnitude of the most negative value
	if !neg {
		limit--
	}
	digits := i
	var u uint64
	for ; i < len(data) && '0' <= data[i] && data[i] <= '9'; i++ {
		u = u*10 + uint64(data[i]-'0')
	}
	// 19 digits cannot wrap u; more cannot fit any int.
	if n := i - digits; n == 0 || n > 19 || n > 1 && data[digits] == '0' || u > limit {
		return 0, false
	}
	s.off = i
	if neg {
		return -int64(u), true
	}
	return int64(u), true
}

// DecodeTileSpec parses a TileSpec JSON document and resolves it to a
// prototile, enforcing the catalog grammar, the maxTilePoints bound, and
// the maxTileDim bound. Metric ball tiles ("ball:<r>") need a lattice
// and therefore resolve only through PlanSpec.Resolve; here they report
// an unknown tile. All failures wrap ErrSpec.
func DecodeTileSpec(data []byte) (*prototile.Tile, error) {
	var ts TileSpec
	if err := json.Unmarshal(data, &ts); err != nil {
		return nil, fmt.Errorf("%w: decoding tile: %v", ErrSpec, err)
	}
	if ts.Name != "" && len(ts.Points) > 0 {
		return nil, fmt.Errorf("%w: tile has both a name and explicit points", ErrSpec)
	}
	if ts.Name == "" && len(ts.Points) == 0 {
		return nil, fmt.Errorf("%w: tile is empty", ErrSpec)
	}
	return ts.resolve()
}

// HealthResponse is the body of GET /healthz: liveness and the number
// of cached plans. Traffic counters are on the metrics plane
// (Server.WriteMetrics).
type HealthResponse struct {
	OK    bool `json:"ok"`
	Plans int  `json:"plans"`
}
