package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"testing"

	"brepartition/internal/wire"
)

// protocols are the three ways a data op reaches the server: the /v1 JSON
// route (default collection only), the /v2 JSON route and a binary frame.
var protocols = []string{"v1", "v2", "binary"}

// send issues req over one protocol and returns the HTTP status and the
// answer as a wire.Response; a refusal comes back as its Err and Code.
func send(t *testing.T, s *testServer, proto string, req wire.Request) (int, wire.Response) {
	t.Helper()
	var path, contentType string
	var body []byte
	var err error
	switch proto {
	case "binary":
		path, contentType = "/v1/frame", "application/octet-stream"
		body, err = wire.AppendRequest(nil, req)
	default:
		path = "/v1/" + req.Op.Spec().Name
		if proto == "v2" {
			path = "/v2/collections/" + req.Collection + "/" + req.Op.Spec().Name
		}
		contentType = "application/json"
		body, err = json.Marshal(wire.JSONRequest(req))
	}
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.Post(s.ts.URL+path, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	out, err := io.ReadAll(hr.Body)
	if err != nil {
		t.Fatal(err)
	}
	var resp wire.Response
	switch {
	case proto == "binary":
		if resp, err = wire.ReadResponse(bytes.NewReader(out)); err != nil {
			t.Fatalf("status %d: %v", hr.StatusCode, err)
		}
	case hr.StatusCode == http.StatusOK:
		if resp, err = wire.DecodeJSONResponse(req.Op, out); err != nil {
			t.Fatal(err)
		}
	default:
		var er wire.ErrorResponse
		if err := json.Unmarshal(out, &er); err != nil {
			t.Fatalf("status %d: error body %q: %v", hr.StatusCode, out, err)
		}
		resp = wire.Response{Op: req.Op, Err: er.Error, Code: wire.CodeByName(er.Code)}
	}
	if len(resp.Results) == 0 {
		resp.Results = nil // a mutation's frame carries an empty list, its JSON none
	}
	return hr.StatusCode, resp
}

// TestProtocolParity sends every op of the op table as v1 JSON, v2 JSON
// and a binary frame, each protocol against its own copy of the same
// index, and requires the same items, ids and liveness from all three;
// then it requires every bad input to answer the same HTTP status and
// wire error code on every protocol that can address it.
func TestProtocolParity(t *testing.T) {
	const n, k = 200, 5
	queries := testPoints(3, 10, 51)
	pt := testPoints(1, 10, 52)[0]
	reqs := map[wire.Op]wire.Request{
		wire.OpSearch: {Op: wire.OpSearch, K: k, Queries: queries},
		wire.OpApprox: {Op: wire.OpApprox, K: k, Param: 1, Queries: queries[:1]},
		wire.OpRange:  {Op: wire.OpRange, Param: 2, Queries: queries[:1]},
		wire.OpInsert: {Op: wire.OpInsert, Queries: [][]float64{pt}},
		wire.OpDelete: {Op: wire.OpDelete, ID: n},
	}

	answers := make(map[string][]wire.Response)
	for _, proto := range protocols {
		s := newTestServer(t, n, Config{})
		for _, op := range wire.Ops {
			req := reqs[op.Op]
			req.Collection = wire.DefaultCollection
			status, resp := send(t, s, proto, req)
			if status != http.StatusOK || resp.Err != "" {
				t.Fatalf("%s %s: status %d: %s", proto, op.Name, status, resp.Err)
			}
			answers[proto] = append(answers[proto], resp)
		}
		// The insert landed at id n and the delete found it live.
		if got := answers[proto]; got[3].Value != n || got[4].Value != 1 {
			t.Fatalf("%s: insert id %d, delete liveness %d", proto, got[3].Value, got[4].Value)
		}
	}
	for _, proto := range protocols[1:] {
		if !reflect.DeepEqual(answers[proto], answers[protocols[0]]) {
			t.Fatalf("%s answers differ from %s\n%+v\n%+v", proto, protocols[0], answers[proto], answers[protocols[0]])
		}
	}

	s := newTestServer(t, 120, Config{})
	q := testPoints(1, 10, 53)[0]
	ghost := wire.Request{Op: wire.OpSearch, Collection: "ghost", K: k, Queries: [][]float64{q}}
	bad := []struct {
		name   string
		req    wire.Request
		status int
		code   wire.ErrCode
	}{
		{"k=0", wire.Request{Op: wire.OpSearch, Queries: [][]float64{q}}, http.StatusBadRequest, wire.CodeBadRequest},
		{"p=0", wire.Request{Op: wire.OpApprox, K: k, Queries: [][]float64{q}}, http.StatusBadRequest, wire.CodeBadRequest},
		{"p=1.5", wire.Request{Op: wire.OpApprox, K: k, Param: 1.5, Queries: [][]float64{q}}, http.StatusBadRequest, wire.CodeBadRequest},
		{"r=-1", wire.Request{Op: wire.OpRange, Param: -1, Queries: [][]float64{q}}, http.StatusBadRequest, wire.CodeBadRequest},
		{"search dim", wire.Request{Op: wire.OpSearch, K: k, Queries: [][]float64{q[:2]}}, http.StatusBadRequest, wire.CodeBadRequest},
		{"insert dim", wire.Request{Op: wire.OpInsert, Queries: [][]float64{q[:2]}}, http.StatusBadRequest, wire.CodeBadRequest},
		{"unknown collection", ghost, http.StatusNotFound, wire.CodeNoSuchCollection},
		{"unknown collection delete", wire.Request{Op: wire.OpDelete, Collection: "ghost", ID: 1},
			http.StatusNotFound, wire.CodeNoSuchCollection},
	}
	for _, c := range bad {
		for _, proto := range protocols {
			req := c.req
			if req.Collection == "" {
				req.Collection = wire.DefaultCollection
			} else if proto == "v1" {
				continue // v1 routes address only the default collection
			}
			status, resp := send(t, s, proto, req)
			if status != c.status || resp.Code != c.code || resp.Err == "" {
				t.Errorf("%s over %s: status %d code %s (%q), want %d %s",
					c.name, proto, status, resp.Code, resp.Err, c.status, c.code)
			}
		}
	}

	// Under overload the class gate answers before the collection lookup,
	// on both protocols: an unknown collection sheds with 429, not 404.
	sem := s.srv.searchGate.sem
	for len(sem) < cap(sem) {
		sem <- struct{}{}
	}
	defer func() {
		for len(sem) > 0 {
			<-sem
		}
	}()
	for _, proto := range protocols[1:] {
		status, resp := send(t, s, proto, ghost)
		if status != http.StatusTooManyRequests || resp.Code != wire.CodeOverloaded {
			t.Errorf("overloaded unknown collection over %s: status %d code %s, want 429 overloaded", proto, status, resp.Code)
		}
	}
}
