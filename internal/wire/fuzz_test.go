package wire

import (
	"bytes"
	"math"
	"reflect"
	"testing"
)

// FuzzRequestDecode throws arbitrary bytes at the binary request decoder:
// whatever the input — malformed length prefixes, truncated frames,
// forged inner counts, NaN/Inf coordinates — it must return an error or a
// request that re-encodes to an equivalent frame, and never panic or
// over-allocate. Seeds cover every opcode plus the interesting rejection
// shapes; `go test -fuzz FuzzRequestDecode ./internal/wire` explores from
// there.
func FuzzRequestDecode(f *testing.F) {
	seed := func(req Request) {
		frame, err := AppendRequest(nil, req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	seed(Request{Op: OpSearch, K: 10, Queries: [][]float64{{1, 2, 3}, {4, 5, 6}}})
	seed(Request{Op: OpApprox, K: 3, Param: 0.9, Queries: [][]float64{{0.25, 4}}})
	seed(Request{Op: OpRange, Param: 7.5, Queries: [][]float64{{1}}})
	seed(Request{Op: OpInsert, Queries: [][]float64{{3, 2, 1}}})
	seed(Request{Op: OpDelete, ID: 17})
	// v2 shapes: named collections ride in the frame header; "" and
	// "default" encode identically, and MaxName is the hard cap.
	seed(Request{Op: OpSearch, Collection: "docs", K: 4, Queries: [][]float64{{2, 2}}})
	seed(Request{Op: OpDelete, Collection: "audio-2024_v1", ID: 3})
	seed(Request{Op: OpInsert, Collection: string(bytes.Repeat([]byte{'x'}, MaxName)), Queries: [][]float64{{1, 1}}})
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})       // absurd length prefix
	f.Add([]byte{4, 0, 0, 0, 1, 0})             // truncated payload
	f.Add(bytes.Repeat([]byte{0}, reqHeader+4)) // zeroed header
	nan, _ := AppendRequest(nil, Request{Op: OpSearch, K: 1, Queries: [][]float64{{1}}})
	f.Add(append(nan[:len(nan)-8], 0, 0, 0, 0, 0, 0, 0xf8, 0x7f)) // NaN coordinate
	// Forged name length: a valid frame whose name-length byte claims more
	// bytes than MaxName allows must be rejected, not over-read.
	forged, _ := AppendRequest(nil, Request{Op: OpSearch, Collection: "docs", K: 1, Queries: [][]float64{{1}}})
	forged[5] = 0xff // payload byte 1: the name-length field
	f.Add(forged)
	// v3 shapes: the traced flag appends a trailing u64 trace id, with and
	// without a named collection; forged variants flip reserved flag bits
	// and zero the id.
	seed(Request{Op: OpSearch, K: 2, Queries: [][]float64{{1, 2}}, TraceID: 0xfeedface})
	seed(Request{Op: OpApprox, Collection: "docs", K: 1, Param: 0.5, Queries: [][]float64{{3}}, TraceID: 1})
	traced, _ := AppendRequest(nil, Request{Op: OpSearch, K: 1, Queries: [][]float64{{1}}, TraceID: 7})
	badFlag := append([]byte(nil), traced...)
	badFlag[6] |= 0x02 // payload byte 2: an undefined flag bit
	f.Add(badFlag)
	zeroID := append([]byte(nil), traced...)
	for i := len(zeroID) - 8; i < len(zeroID); i++ {
		zeroID[i] = 0 // traced flag set, trace id zero
	}
	f.Add(zeroID)

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ReadRequest(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Decoded OK: every coordinate must be finite and the request must
		// re-encode cleanly (the decoder admits nothing the encoder would
		// refuse).
		for _, q := range req.Queries {
			for _, v := range q {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("decoder admitted non-finite coordinate %v", v)
				}
			}
		}
		frame, err := AppendRequest(nil, req)
		if err != nil {
			t.Fatalf("decoded request does not re-encode: %v", err)
		}
		again, err := ReadRequest(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if again.Op != req.Op || again.K != req.K || len(again.Queries) != len(req.Queries) ||
			again.Collection != req.Collection {
			t.Fatalf("round trip drifted: %+v vs %+v", again, req)
		}
	})
}

// FuzzJSONRequest throws arbitrary bodies at every data op's JSON decoder,
// the JSON side of the trust boundary: whatever the body, DecodeJSON must
// return an error or a request, never panic, and a request it accepts
// without a filter or tags (which have no binary encoding) must re-encode
// as a binary frame that decodes to the same Request. `go test -fuzz
// FuzzJSONRequest ./internal/wire` explores from the seeds.
func FuzzJSONRequest(f *testing.F) {
	seeds := []struct {
		op   Op
		body string
	}{
		{OpSearch, `{"q":[1,2,3],"k":5}`},
		{OpSearch, `{"queries":[[1,2],[3,4]],"k":2}`},
		{OpSearch, `{"q":[1],"k":1,"filter":{"tags":["a"],"mode":"all"}}`},
		{OpApprox, `{"q":[0.5,2],"k":3,"p":0.9}`},
		{OpRange, `{"q":[1,1],"r":2.5}`},
		{OpInsert, `{"p":[3,2,1]}`},
		{OpInsert, `{"p":[1],"tags":["red","blue"]}`},
		{OpDelete, `{"id":17}`},
		// Refusals: both query forms, a ragged batch, an unknown field, k
		// past what a frame carries, a filter on approx, a bad tag, a NaN
		// literal, an empty point, a truncated body.
		{OpSearch, `{"q":[1],"queries":[[1]],"k":1}`},
		{OpSearch, `{"queries":[[1,2],[3]],"k":1}`},
		{OpInsert, `{"p":[1],"bogus":true}`},
		{OpSearch, `{"q":[1],"k":4294967296}`},
		{OpApprox, `{"q":[1],"k":1,"p":0.5,"filter":{"tags":["a"]}}`},
		{OpInsert, `{"p":[1],"tags":[""]}`},
		{OpSearch, `{"q":[NaN],"k":1}`},
		{OpInsert, `{"p":[]}`},
		{OpDelete, `{"id":`},
	}
	for _, s := range seeds {
		f.Add(uint8(s.op-OpSearch), []byte(s.body))
	}
	f.Fuzz(func(t *testing.T, op uint8, body []byte) {
		req, err := DecodeJSON(Ops[int(op)%len(Ops)].Op, bytes.NewReader(body))
		if err != nil || req.Filter != nil || len(req.Tags) > 0 {
			return
		}
		req.Collection = DefaultCollection
		frame, err := AppendRequest(nil, req)
		if err != nil {
			t.Fatalf("accepted body %q does not encode as a frame: %v", body, err)
		}
		again, err := ReadRequest(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("frame of accepted body %q does not decode: %v", body, err)
		}
		if !reflect.DeepEqual(again, req) {
			t.Fatalf("frame round trip drifted: %+v vs %+v", again, req)
		}
	})
}
