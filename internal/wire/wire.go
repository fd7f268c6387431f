// Package wire is the breserved network protocol: the JSON request and
// response shapes served on the per-route HTTP endpoints, and a compact
// length-prefixed binary framing for the single /v1/frame endpoint that
// high-throughput clients use to avoid JSON costs on the hot search path.
// Ops is the table of the five data ops both protocols carry, and
// DecodeJSON, JSONRequest, JSONResponse and DecodeJSONResponse convert each
// op's JSON bodies to and from the Request and Response the binary codec
// uses, so server and client handle one request shape.
//
// Binary framing (all integers little-endian):
//
//	frame    = u32 payloadLen | payload
//	request  = u8 op | u8 nameLen | u8 flags | u8 zero | u32 k | f64 param |
//	           i64 id | u32 nq | u32 dim | nq*dim × f64 coords |
//	           nameLen × name byte | [flags&1: u64 traceID]
//	response = u8 op | u8 status | u8 code | u8 flags |
//	           status 1: u32 msgLen | msg
//	           status 0: i64 value | u32 nres |
//	                     nres × (u32 nitems | nitems × (i64 id, f64 score))
//	           then either way: [flags&1: u64 traceID]
//
// param carries the approx guarantee p (OpApprox) or the radius r
// (OpRange) and must be zero otherwise; id is the OpDelete target; value
// returns the assigned id (OpInsert) or 1/0 liveness (OpDelete).
//
// nameLen/name is the v2 collection address: the request targets the named
// collection, nameLen 0 the "default" collection — which is exactly the
// byte layout every v1 frame carried (nameLen was a must-be-zero reserved
// byte), so old frames decode unchanged and keep routing to the index they
// always addressed. code is the v2 machine-readable error class (see
// ErrCode); v1 encoders wrote a zero there, which is CodeGeneric.
//
// flags bit 0 is the v3 trace extension: when set, the payload carries a
// trailing nonzero u64 trace id after the name (request) or after the
// body (response), and the server echoes the request's id back in the
// response so clients can correlate wire frames with server-side traces
// and slow-query log lines. All other flag bits are reserved
// must-be-zero; v1/v2 frames carried a zero flags byte and decode
// unchanged, and the encoder only sets the bit for a nonzero TraceID, so
// trace-unaware traffic stays byte-identical to v2.
//
// The decoder is a hard trust boundary: it never panics and never
// allocates proportionally to a forged length field. Frames longer than
// MaxFrame, truncated frames, inner counts inconsistent with the frame
// length, non-zero reserved bytes, malformed collection names, and
// non-finite (NaN/Inf) coordinates are all rejected with an error wrapping
// ErrFrame (FuzzRequestDecode pins the no-panic property, FuzzJSONRequest
// the same for DecodeJSON).
package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
)

// Op is the binary-protocol request kind.
type Op uint8

const (
	// OpSearch answers exact kNN for each of nq queries.
	OpSearch Op = 1
	// OpApprox answers kNN with probability guarantee param=p per query.
	OpApprox Op = 2
	// OpRange returns every point within distance param=r of each query.
	OpRange Op = 3
	// OpInsert durably inserts the single carried point; value = new id.
	OpInsert Op = 4
	// OpDelete durably tombstones id; value = 1 if it was live.
	OpDelete Op = 5
)

// OpSpec is one row of the op table.
type OpSpec struct {
	Op Op
	// Name is the op's JSON route (/v1/{name} and
	// /v2/collections/{collection}/{name}) and its name in traces, the
	// slow-query log and the route counters.
	Name string
	// Mutation marks the ops the mutation gate admits; the others are
	// search-class: search gate, stage traces, duration histograms.
	Mutation bool
}

// Ops is the op table: the five data ops in Op order, named once for both
// protocols, server and client alike.
var Ops = [...]OpSpec{
	{OpSearch, "search", false},
	{OpApprox, "approx", false},
	{OpRange, "range", false},
	{OpInsert, "insert", true},
	{OpDelete, "delete", true},
}

// Spec returns op's row of the op table; op must be one of the five.
func (op Op) Spec() OpSpec { return Ops[op-OpSearch] }

// Limits the decoder enforces before trusting any length field.
const (
	// MaxFrame bounds one frame's payload bytes.
	MaxFrame = 16 << 20
	// MaxBatch bounds the queries carried by one frame.
	MaxBatch = 1 << 16
	// MaxDim bounds the coordinate dimensionality.
	MaxDim = 1 << 20
	// MaxName bounds a collection name's bytes (also the registry's cap).
	MaxName = 64
)

// DefaultCollection is the collection every request that names none
// addresses — the single index a pre-collections server served.
const DefaultCollection = "default"

// ValidName reports whether s is a legal collection name: 1..MaxName
// bytes drawn from [a-zA-Z0-9_-]. The alphabet deliberately excludes '.'
// and path separators — names become directory names, and this check is
// the only thing between a network-supplied string and the filesystem.
func ValidName(s string) bool {
	if len(s) < 1 || len(s) > MaxName {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// ErrFrame is wrapped by every decoding error.
var ErrFrame = errors.New("wire: bad frame")

// reqHeader is the fixed-size prefix of a request payload.
const reqHeader = 1 + 1 + 2 + 4 + 8 + 8 + 4 + 4

// Request is one decoded binary request.
type Request struct {
	Op Op
	// Collection names the target collection; "" on the wire means (and
	// decodes as) DefaultCollection.
	Collection string
	K          int
	Param      float64 // p (OpApprox) or r (OpRange); 0 otherwise
	ID         int     // OpDelete target
	// Queries holds nq rows of dim coordinates: the search/approx/range
	// queries, or the single OpInsert point.
	Queries [][]float64
	// TraceID, when nonzero, asks the server to trace this request and
	// echo the id back (flags bit 0 on the wire); zero omits the field.
	TraceID uint64
	// Filter (OpSearch) and Tags (OpInsert) ride JSON requests only: they
	// have no binary encoding, and AppendRequest refuses them.
	Filter *Filter
	Tags   []string
}

// flagTraced marks a payload carrying a trailing u64 trace id.
const flagTraced = 1 << 0

// Item is one (id, distance) answer pair.
type Item struct {
	ID       int     `json:"id"`
	Distance float64 `json:"distance"`
}

// Result is one query's answer items, ascending by (distance, id).
type Result struct {
	Items []Item `json:"items"`
}

// Response is one decoded binary response.
type Response struct {
	Op      Op
	Err     string  // non-empty = the request failed
	Code    ErrCode // machine-readable error class; CodeGeneric for v1 peers
	Value   int64   // OpInsert id / OpDelete liveness
	Results []Result
	// TraceID echoes the request's trace id (nonzero only when the
	// request carried one and the server traced it).
	TraceID uint64
}

// check enforces on a request what DecodeRequest enforces on a frame, so
// neither AppendRequest nor DecodeJSON admits a request a frame could not
// carry. It returns the collection name the frame carries and the length
// of its payload.
func check(req Request) (string, int, error) {
	nq, dim := len(req.Queries), 0
	if nq > 0 {
		dim = len(req.Queries[0])
	}
	if err := validateShape(req.Op, nq, dim); err != nil {
		return "", 0, err
	}
	if req.K != int(int32(req.K)) {
		return "", 0, fmt.Errorf("%w: k %d out of range", ErrFrame, req.K)
	}
	for _, q := range req.Queries {
		if len(q) != dim {
			return "", 0, fmt.Errorf("%w: ragged query rows (%d vs %d)", ErrFrame, len(q), dim)
		}
		for _, v := range q {
			if !finite(v) {
				return "", 0, fmt.Errorf("%w: non-finite coordinate %v", ErrFrame, v)
			}
		}
	}
	if !finite(req.Param) {
		return "", 0, fmt.Errorf("%w: non-finite param %v", ErrFrame, req.Param)
	}
	// The default collection travels as nameLen 0 — byte-identical to a v1
	// frame, so a collection-unaware server still accepts it.
	name := req.Collection
	if name == DefaultCollection {
		name = ""
	}
	if name != "" && !ValidName(name) {
		return "", 0, fmt.Errorf("%w: bad collection name %q", ErrFrame, name)
	}
	payload := reqHeader + 8*nq*dim + len(name)
	if req.TraceID != 0 {
		payload += 8
	}
	if payload > MaxFrame {
		return "", 0, fmt.Errorf("%w: frame of %d bytes exceeds MaxFrame", ErrFrame, payload)
	}
	return name, payload, nil
}

// AppendRequest appends req's binary frame (length prefix included) to
// dst, validating the same invariants DecodeRequest enforces so a client
// cannot emit a frame its server would reject.
func AppendRequest(dst []byte, req Request) ([]byte, error) {
	if req.Filter != nil || len(req.Tags) > 0 {
		return nil, fmt.Errorf("%w: filters and tags have no binary encoding", ErrFrame)
	}
	name, payload, err := check(req)
	if err != nil {
		return nil, err
	}
	nq, dim := len(req.Queries), 0
	if nq > 0 {
		dim = len(req.Queries[0])
	}
	flags := byte(0)
	if req.TraceID != 0 {
		flags |= flagTraced
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(payload))
	dst = append(dst, byte(req.Op), byte(len(name)), flags, 0)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(req.K))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(req.Param))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(req.ID)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(nq))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(dim))
	for _, q := range req.Queries {
		for _, v := range q {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	dst = append(dst, name...)
	if req.TraceID != 0 {
		dst = binary.LittleEndian.AppendUint64(dst, req.TraceID)
	}
	return dst, nil
}

// ReadRequest reads one length-prefixed request frame from r. Truncated
// prefixes and truncated payloads return an ErrFrame-wrapped error (or
// io.EOF when the stream ends cleanly before the prefix).
func ReadRequest(r io.Reader) (Request, error) {
	payload, err := readFrame(r)
	if err != nil {
		return Request{}, err
	}
	return DecodeRequest(payload)
}

// DecodeRequest decodes one request payload (the bytes after the length
// prefix).
func DecodeRequest(payload []byte) (Request, error) {
	if len(payload) < reqHeader {
		return Request{}, fmt.Errorf("%w: request payload of %d bytes, header needs %d", ErrFrame, len(payload), reqHeader)
	}
	op := Op(payload[0])
	nameLen := int(payload[1])
	flags := payload[2]
	if flags&^byte(flagTraced) != 0 || payload[3] != 0 {
		return Request{}, fmt.Errorf("%w: non-zero reserved bytes", ErrFrame)
	}
	if nameLen > MaxName {
		return Request{}, fmt.Errorf("%w: collection name of %d bytes exceeds MaxName", ErrFrame, nameLen)
	}
	k := int(int32(binary.LittleEndian.Uint32(payload[4:8])))
	param := math.Float64frombits(binary.LittleEndian.Uint64(payload[8:16]))
	id := int64(binary.LittleEndian.Uint64(payload[16:24]))
	nq := int(binary.LittleEndian.Uint32(payload[24:28]))
	dim := int(binary.LittleEndian.Uint32(payload[28:32]))
	if err := validateShape(op, nq, dim); err != nil {
		return Request{}, err
	}
	var traceID uint64
	if flags&flagTraced != 0 {
		// The trace id trails the name; strip it so the length equation
		// and name slicing below see the v2 layout.
		if len(payload) < reqHeader+8 {
			return Request{}, fmt.Errorf("%w: traced payload too short for trace id", ErrFrame)
		}
		traceID = binary.LittleEndian.Uint64(payload[len(payload)-8:])
		if traceID == 0 {
			return Request{}, fmt.Errorf("%w: traced flag with zero trace id", ErrFrame)
		}
		payload = payload[:len(payload)-8]
	}
	if len(payload) != reqHeader+8*nq*dim+nameLen {
		return Request{}, fmt.Errorf("%w: payload %d bytes, %d×%d coords + %d name bytes need %d",
			ErrFrame, len(payload), nq, dim, nameLen, reqHeader+8*nq*dim+nameLen)
	}
	if !finite(param) {
		return Request{}, fmt.Errorf("%w: non-finite param", ErrFrame)
	}
	name := DefaultCollection
	if nameLen > 0 {
		name = string(payload[len(payload)-nameLen:])
		if !ValidName(name) {
			return Request{}, fmt.Errorf("%w: bad collection name", ErrFrame)
		}
	}
	req := Request{Op: op, Collection: name, K: k, Param: param, ID: int(id), TraceID: traceID}
	if nq > 0 {
		flat := make([]float64, nq*dim)
		req.Queries = make([][]float64, nq)
		for i := 0; i < nq*dim; i++ {
			v := math.Float64frombits(binary.LittleEndian.Uint64(payload[reqHeader+8*i:]))
			if !finite(v) {
				return Request{}, fmt.Errorf("%w: non-finite coordinate at %d", ErrFrame, i)
			}
			flat[i] = v
		}
		for i := range req.Queries {
			req.Queries[i] = flat[i*dim : (i+1)*dim : (i+1)*dim]
		}
	}
	return req, nil
}

// validateShape enforces the per-op query geometry shared by the encoder
// and the decoder.
func validateShape(op Op, nq, dim int) error {
	if nq < 0 || nq > MaxBatch || dim < 0 || dim > MaxDim {
		return fmt.Errorf("%w: geometry %d×%d out of bounds", ErrFrame, nq, dim)
	}
	switch op {
	case OpSearch, OpApprox, OpRange:
		if nq < 1 || dim < 1 {
			return fmt.Errorf("%w: op %d needs at least one query", ErrFrame, op)
		}
	case OpInsert:
		if nq != 1 || dim < 1 {
			return fmt.Errorf("%w: insert carries exactly one point", ErrFrame)
		}
	case OpDelete:
		if nq != 0 || dim != 0 {
			return fmt.Errorf("%w: delete carries no points", ErrFrame)
		}
	default:
		return fmt.Errorf("%w: unknown op %d", ErrFrame, op)
	}
	return nil
}

// AppendResponse appends resp's binary frame (length prefix included) to
// dst.
func AppendResponse(dst []byte, resp Response) ([]byte, error) {
	payload := 4
	if resp.Err != "" {
		payload += 4 + len(resp.Err)
	} else {
		payload += 8 + 4
		for _, r := range resp.Results {
			payload += 4 + 16*len(r.Items)
		}
	}
	flags := byte(0)
	if resp.TraceID != 0 {
		flags |= flagTraced
		payload += 8
	}
	if payload > MaxFrame {
		return nil, fmt.Errorf("%w: response of %d bytes exceeds MaxFrame", ErrFrame, payload)
	}
	if len(resp.Results) > MaxBatch {
		return nil, fmt.Errorf("%w: %d results exceed MaxBatch", ErrFrame, len(resp.Results))
	}
	if resp.Code > codeMax {
		return nil, fmt.Errorf("%w: unknown error code %d", ErrFrame, resp.Code)
	}
	if resp.Err == "" && resp.Code != CodeGeneric {
		return nil, fmt.Errorf("%w: error code %d on a success response", ErrFrame, resp.Code)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(payload))
	status := byte(0)
	if resp.Err != "" {
		status = 1
	}
	dst = append(dst, byte(resp.Op), status, byte(resp.Code), flags)
	if resp.Err != "" {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(resp.Err)))
		dst = append(dst, resp.Err...)
	} else {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(resp.Value))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(resp.Results)))
		for _, r := range resp.Results {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Items)))
			for _, it := range r.Items {
				dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(it.ID)))
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(it.Distance))
			}
		}
	}
	if resp.TraceID != 0 {
		dst = binary.LittleEndian.AppendUint64(dst, resp.TraceID)
	}
	return dst, nil
}

// ReadResponse reads one length-prefixed response frame from r.
func ReadResponse(r io.Reader) (Response, error) {
	payload, err := readFrame(r)
	if err != nil {
		return Response{}, err
	}
	return DecodeResponse(payload)
}

// DecodeResponse decodes one response payload.
func DecodeResponse(payload []byte) (Response, error) {
	if len(payload) < 4 {
		return Response{}, fmt.Errorf("%w: response payload of %d bytes", ErrFrame, len(payload))
	}
	resp := Response{Op: Op(payload[0]), Code: ErrCode(payload[2])}
	status := payload[1]
	flags := payload[3]
	if flags&^byte(flagTraced) != 0 || status > 1 {
		return Response{}, fmt.Errorf("%w: bad response status bytes", ErrFrame)
	}
	if flags&flagTraced != 0 {
		// The trace id trails the body on both status paths; strip it so
		// the length checks below see the v2 layout.
		if len(payload) < 4+8 {
			return Response{}, fmt.Errorf("%w: traced payload too short for trace id", ErrFrame)
		}
		resp.TraceID = binary.LittleEndian.Uint64(payload[len(payload)-8:])
		if resp.TraceID == 0 {
			return Response{}, fmt.Errorf("%w: traced flag with zero trace id", ErrFrame)
		}
		payload = payload[:len(payload)-8]
	}
	if resp.Code > codeMax {
		return Response{}, fmt.Errorf("%w: unknown error code %d", ErrFrame, resp.Code)
	}
	if status == 0 && resp.Code != CodeGeneric {
		return Response{}, fmt.Errorf("%w: error code on a success response", ErrFrame)
	}
	b := payload[4:]
	if status == 1 {
		if len(b) < 4 {
			return Response{}, fmt.Errorf("%w: truncated error message length", ErrFrame)
		}
		n := int(binary.LittleEndian.Uint32(b))
		if n != len(b)-4 {
			return Response{}, fmt.Errorf("%w: error message length %d vs %d bytes", ErrFrame, n, len(b)-4)
		}
		resp.Err = string(b[4:])
		if resp.Err == "" {
			return Response{}, fmt.Errorf("%w: error status with empty message", ErrFrame)
		}
		return resp, nil
	}
	if len(b) < 12 {
		return Response{}, fmt.Errorf("%w: truncated response header", ErrFrame)
	}
	resp.Value = int64(binary.LittleEndian.Uint64(b))
	nres := int(binary.LittleEndian.Uint32(b[8:12]))
	if nres < 0 || nres > MaxBatch {
		return Response{}, fmt.Errorf("%w: %d results out of bounds", ErrFrame, nres)
	}
	b = b[12:]
	resp.Results = make([]Result, 0, min(nres, 1024))
	for i := 0; i < nres; i++ {
		if len(b) < 4 {
			return Response{}, fmt.Errorf("%w: truncated result %d", ErrFrame, i)
		}
		n := int(binary.LittleEndian.Uint32(b))
		b = b[4:]
		if n < 0 || 16*n > len(b) {
			return Response{}, fmt.Errorf("%w: result %d claims %d items, %d bytes left", ErrFrame, i, n, len(b))
		}
		items := make([]Item, n)
		for j := range items {
			items[j].ID = int(int64(binary.LittleEndian.Uint64(b)))
			items[j].Distance = math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
			b = b[16:]
		}
		resp.Results = append(resp.Results, Result{Items: items})
	}
	if len(b) != 0 {
		return Response{}, fmt.Errorf("%w: %d trailing bytes", ErrFrame, len(b))
	}
	return resp, nil
}

// readFrame reads one u32 length prefix and its payload. A clean EOF
// before the prefix propagates as io.EOF so stream consumers can stop;
// everything else truncated maps to ErrFrame.
func readFrame(r io.Reader) ([]byte, error) {
	var pre [4]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: truncated length prefix: %v", ErrFrame, err)
	}
	n := binary.LittleEndian.Uint32(pre[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: frame of %d bytes exceeds MaxFrame", ErrFrame, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: truncated payload (%d expected): %v", ErrFrame, n, err)
	}
	return payload, nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// ---------------------------------------------------------------------------
// JSON shapes (the per-route HTTP endpoints).
// ---------------------------------------------------------------------------

// MaxFilterTags bounds the tag terms one filter may carry.
const MaxFilterTags = 16

// Filter modes: "any" admits points carrying at least one of the tags,
// "all" only points carrying every tag. An empty mode means "any".
const (
	FilterAny = "any"
	FilterAll = "all"
)

// Filter is a metadata predicate pushed into the leaf scan: the answer is
// the exact top-k over only the points the filter admits (never a
// post-filtered top-k). JSON-only — binary frames address collections but
// carry no filter.
type Filter struct {
	Tags []string `json:"tags"`
	Mode string   `json:"mode,omitempty"`
}

// Validate rejects malformed filters with an ErrBadFilter-wrapped error.
func (f *Filter) Validate() error {
	if f == nil {
		return nil
	}
	if len(f.Tags) == 0 {
		return fmt.Errorf("%w: no tags", ErrBadFilter)
	}
	if len(f.Tags) > MaxFilterTags {
		return fmt.Errorf("%w: %d tags exceed MaxFilterTags", ErrBadFilter, len(f.Tags))
	}
	for _, t := range f.Tags {
		if t == "" || len(t) > MaxName {
			return fmt.Errorf("%w: tag %q", ErrBadFilter, t)
		}
	}
	switch f.Mode {
	case "", FilterAny, FilterAll:
		return nil
	default:
		return fmt.Errorf("%w: unknown mode %q", ErrBadFilter, f.Mode)
	}
}

// SearchRequest is the search/approx/range JSON body (v1 single-index
// routes and v2 collection routes alike). Q carries one query, Queries a
// batch (exactly one of the two); K is the neighbour count, P the approx
// guarantee, R the range radius. Filter restricts exact-search answers to
// matching points; approx and range reject it.
type SearchRequest struct {
	Q       []float64   `json:"q,omitempty"`
	Queries [][]float64 `json:"queries,omitempty"`
	K       int         `json:"k,omitempty"`
	P       float64     `json:"p,omitempty"`
	R       float64     `json:"r,omitempty"`
	Filter  *Filter     `json:"filter,omitempty"`
}

// SearchResponse is the JSON answer: one Result per query, in order.
type SearchResponse struct {
	Results []Result `json:"results"`
}

// InsertRequest is the insert JSON body. Tags (v2 routes only) attach
// metadata tags the collection's filtered search can match on.
type InsertRequest struct {
	P    []float64 `json:"p"`
	Tags []string  `json:"tags,omitempty"`
}

// InsertResponse returns the durably assigned id.
type InsertResponse struct {
	ID int `json:"id"`
}

// DeleteRequest is the /v1/delete JSON body.
type DeleteRequest struct {
	ID int `json:"id"`
}

// DeleteResponse reports whether the id was live.
type DeleteResponse struct {
	Deleted bool `json:"deleted"`
}

// DecodeJSON decodes op's JSON request body into the one request shape
// both protocols share. It refuses, with an error matching ErrFrame, any
// body a binary frame could not carry, except for the filter and tags,
// which only JSON carries. The caller sets Collection and TraceID.
func DecodeJSON(op Op, body io.Reader) (Request, error) {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	req := Request{Op: op}
	var err error
	switch op {
	case OpInsert:
		var b InsertRequest
		if err = dec.Decode(&b); err != nil {
			break
		}
		for _, tag := range b.Tags {
			if tag == "" || len(tag) > MaxName {
				return Request{}, badBody(fmt.Sprintf("bad tag %q", tag))
			}
		}
		req.Queries = [][]float64{b.P}
		if len(b.Tags) > 0 {
			req.Tags = b.Tags
		}
	case OpDelete:
		var b DeleteRequest
		err = dec.Decode(&b)
		req.ID = b.ID
	default:
		var b SearchRequest
		if err = dec.Decode(&b); err != nil {
			break
		}
		if b.Filter != nil && op != OpSearch {
			return Request{}, fmt.Errorf("%w: %s search does not support filters", ErrBadFilter, op.Spec().Name)
		}
		if (b.Q == nil) == (b.Queries == nil) {
			return Request{}, badBody(`exactly one of "q" and "queries" must be set`)
		}
		req.K, req.Filter, req.Queries = b.K, b.Filter, b.Queries
		if b.Q != nil {
			req.Queries = [][]float64{b.Q}
		}
		if len(req.Queries) == 0 || len(req.Queries) > MaxBatch {
			return Request{}, badBody(fmt.Sprintf("need between 1 and %d queries, got %d", MaxBatch, len(req.Queries)))
		}
		if err = b.Filter.Validate(); err != nil {
			return Request{}, err
		}
		switch op {
		case OpApprox:
			req.Param = b.P
		case OpRange:
			req.Param = b.R
		}
	}
	if err != nil {
		return Request{}, badBody("bad request body: " + err.Error())
	}
	if _, _, err := check(req); err != nil {
		return Request{}, err
	}
	return req, nil
}

// badBody is a JSON body DecodeJSON refuses. Its message is the bare
// reason, and it matches ErrFrame like every other refused request.
type badBody string

func (e badBody) Error() string        { return string(e) }
func (e badBody) Is(target error) bool { return target == ErrFrame }

// JSONRequest returns req's JSON body, the value DecodeJSON decodes back.
// A single query travels as "q", a batch as "queries".
func JSONRequest(req Request) any {
	switch req.Op {
	case OpInsert:
		return InsertRequest{P: req.Queries[0], Tags: req.Tags}
	case OpDelete:
		return DeleteRequest{ID: req.ID}
	}
	b := SearchRequest{K: req.K, Filter: req.Filter, Queries: req.Queries}
	if len(req.Queries) == 1 {
		b.Q, b.Queries = req.Queries[0], nil
	}
	switch req.Op {
	case OpApprox:
		b.P = req.Param
	case OpRange:
		b.R = req.Param
	}
	return b
}

// JSONResponse returns a successful resp's JSON body.
func JSONResponse(resp Response) any {
	switch resp.Op {
	case OpInsert:
		return InsertResponse{ID: int(resp.Value)}
	case OpDelete:
		return DeleteResponse{Deleted: resp.Value == 1}
	}
	return SearchResponse{Results: resp.Results}
}

// DecodeJSONResponse decodes op's JSON success body, the inverse of
// JSONResponse.
func DecodeJSONResponse(op Op, body []byte) (Response, error) {
	var b struct {
		SearchResponse
		InsertResponse
		DeleteResponse
	}
	err := json.Unmarshal(body, &b)
	resp := Response{Op: op, Results: b.Results, Value: int64(b.ID)}
	if b.Deleted {
		resp.Value = 1
	}
	return resp, err
}

// ErrorResponse is every non-2xx JSON body. Code is the machine-readable
// class (ErrCode.String names); absent/unknown codes read as CodeGeneric.
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// Health is the /healthz JSON body.
type Health struct {
	Status   string `json:"status"`
	N        int    `json:"n"`
	Live     int    `json:"live"`
	Dim      int    `json:"dim"`
	M        int    `json:"m"`
	Shards   int    `json:"shards"`
	Version  uint64 `json:"version"`
	WALBytes int64  `json:"walBytes"`
	// Collections counts the open collections (0 on pre-collections
	// servers; the index fields above describe the default collection).
	Collections int `json:"collections,omitempty"`
}

// AdminResponse is the /admin/reload and /admin/checkpoint JSON body.
type AdminResponse struct {
	Version  uint64 `json:"version"`
	WALBytes int64  `json:"walBytes"`
}

// ShardCompaction reports one shard compaction in /admin/compact bodies.
type ShardCompaction struct {
	Shard   int `json:"shard"`
	Before  int `json:"before"`
	After   int `json:"after"`
	Dropped int `json:"dropped"`
	CatchUp int `json:"catchUp"`
}

// CompactResponse is the /admin/compact JSON body: the compactions this
// request performed (a targeted shard, or every shard the health sweep
// flagged) plus the post-compaction index state.
type CompactResponse struct {
	Compacted []ShardCompaction `json:"compacted"`
	Version   uint64            `json:"version"`
	WALBytes  int64             `json:"walBytes"`
}

// ---------------------------------------------------------------------------
// Collection shapes (the /v2 routes).
// ---------------------------------------------------------------------------

// Quota is a per-collection admission class: the concurrency and queueing
// this tenant may consume before its requests shed with CodeQuota. Zero
// fields mean "server default".
type Quota struct {
	// MaxInflight bounds this collection's concurrently executing
	// searches.
	MaxInflight int `json:"maxInflight,omitempty"`
	// MaxQueue bounds this collection's waiting searches; beyond it,
	// requests shed immediately instead of queueing.
	MaxQueue int `json:"maxQueue,omitempty"`
}

// ColdSpec opts a collection into cold-tier serving: exact searches run a
// compressed-domain first pass over a resident VA approximation and fault
// only surviving points in from mmap-paged storage through a bounded block
// cache. Answers are identical to hot serving; memory is bounded by the
// VA bytes plus CacheBytes per shard. Zero fields mean "server default".
type ColdSpec struct {
	// Bits per extended dimension of the VA grid (0 = default 6, max 16).
	Bits int `json:"bits,omitempty"`
	// CacheBytes bounds each shard's decoded-block cache (0 = default).
	CacheBytes int64 `json:"cacheBytes,omitempty"`
	// Prefetch is the async survivor-page prefetch depth (0 = default).
	Prefetch int `json:"prefetch,omitempty"`
}

// CollectionSpec is the PUT /v2/collections/{name} create body and the
// durable per-collection configuration: each collection has its own
// divergence, geometry, shard layout, and admission quota. Dim must be
// set so a collection is searchable (empty) from birth.
type CollectionSpec struct {
	// Divergence names the Bregman divergence ("l2", "is", "gkl", "exp",
	// "shannon").
	Divergence string `json:"divergence"`
	// Dim is the fixed coordinate dimensionality.
	Dim int `json:"dim"`
	// M is the per-shard subspace partition count (0 = heuristic).
	M int `json:"m,omitempty"`
	// Shards is the hash-shard count (0 = server default).
	Shards int `json:"shards,omitempty"`
	// Quota is the collection's admission class (nil = server default).
	Quota *Quota `json:"quota,omitempty"`
	// Cold opts the collection into cold-tier serving (nil = hot, unless
	// the server enables cold tiers globally).
	Cold *ColdSpec `json:"cold,omitempty"`
}

// CollectionInfo is one collection's listing entry: its spec plus live
// serving state.
type CollectionInfo struct {
	Name     string         `json:"name"`
	Spec     CollectionSpec `json:"spec"`
	Status   string         `json:"status"`
	N        int            `json:"n"`
	Live     int            `json:"live"`
	Version  uint64         `json:"version"`
	WALBytes int64          `json:"walBytes"`
}

// CollectionsResponse is the GET /v2/collections JSON body.
type CollectionsResponse struct {
	Collections []CollectionInfo `json:"collections"`
}

// DropResponse is the DELETE /v2/collections/{name} JSON body.
type DropResponse struct {
	Dropped bool `json:"dropped"`
}

// AdminSweepEntry is one collection's outcome inside an unscoped admin
// sweep: either its post-operation state or its error — a failing
// collection never strands the rest of the sweep.
type AdminSweepEntry struct {
	Collection string            `json:"collection"`
	Version    uint64            `json:"version,omitempty"`
	WALBytes   int64             `json:"walBytes,omitempty"`
	Compacted  []ShardCompaction `json:"compacted,omitempty"`
	Error      string            `json:"error,omitempty"`
	Code       string            `json:"code,omitempty"`
}

// AdminSweepResponse is the unscoped /admin/{reload,checkpoint,compact}
// JSON body: every collection's outcome, in name order.
type AdminSweepResponse struct {
	Collections []AdminSweepEntry `json:"collections"`
}
