package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// FuzzServeSolve drives arbitrary bodies through the full HTTP decode and
// validation path of POST /v1/solve and asserts the contract invariants
// the clients of this API lean on:
//
//  1. the handler never panics, whatever the body holds — hostile JSON,
//     hostile graph6, absurd n/k/attackers;
//  2. every non-200 response carries the structured ErrorBody with a
//     non-empty machine-readable code and human-readable message (200s
//     and 202s carry their own documented shapes);
//  3. a body sent twice is answered the same way twice, although the
//     second request may be served from the cache, which a graph6 request
//     consults before parsing, or solved again because an eviction fell
//     between the two sends: a 200 repeats byte for byte apart from
//     "cached" and "solve_ms", and an error repeats its status and code.
//     Outcomes that depend on timing (202, 429, 504) are exempt.
//
// The graph6 seeds spell K3 canonically, then with surrounding
// whitespace, with the ">>graph6<<" header and with nonzero padding bits;
// the last must stay bad_graph6 although its canonical twin is cached by
// then.
//
// The server is configured small (32-vertex cap, tight sync wait) so the
// fuzzer spends its budget on the decode path, not on big solves, and its
// cache holds only a few answers, so evictions happen between sends.
func FuzzServeSolve(f *testing.F) {
	seeds := []string{
		``,
		`{}`,
		`not json at all`,
		`{"n":4,"edges":[[0,1],[1,2],[2,3],[0,3]],"k":1}`,
		`{"n":6,"edges":[[0,1],[1,2],[2,3],[3,4],[4,5],[0,5]],"k":2,"attackers":4}`,
		`{"graph6":"Bw","k":1}`,
		`{"graph6":" \tBw\n","k":1}`,
		`{"graph6":">>graph6<<Bw","k":1}`,
		`{"graph6":"Bx","k":1}`,
		`{"graph6":"IsP@PGXD_","k":3}`,
		`{"graph6":"~~~~","k":1}`,
		`{"graph6":"Ao","k":1}`,
		`{"graph6":">>graph6<<Bw\n","k":1}`,
		`{"n":-1,"edges":[[0,1]],"k":1}`,
		`{"n":2,"edges":[[1,1]],"k":1}`,
		`{"n":2,"edges":[[0,1]],"k":0}`,
		`{"n":2,"edges":[[0,1]],"k":-5,"attackers":-5}`,
		`{"n":9999999,"edges":[[0,1]],"k":1}`,
		`{"n":2,"edges":[[0,1]],"k":1,"timeout_ms":-1}`,
		`{"n":2,"edges":[[0,1]],"k":1,"unknown_field":true}`,
		`{"n":2,"edges":[[0,1]],"k":1} trailing`,
		`{"graph6":"Bw","n":3,"edges":[[0,1]],"k":1}`,
		`{"k":1}`,
		`[1,2,3]`,
		`"just a string"`,
		`{"n":3,"edges":[[0,1],[1,2],[0,2]],"k":18446744073709551615}`,
	}
	for _, s := range seeds {
		f.Add(s)
	}

	srv := New(Config{
		Workers:      2,
		QueueCap:     64,
		SyncWait:     5 * time.Second,
		SolveTimeout: 2 * time.Second,
		MaxVertices:  32,
	})
	srv.cache = newSolveCache(4 << 10)
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Close(ctx)
	})
	h := srv.Handler()

	send := func(body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req) // a panic here fails the fuzz run
		return w
	}

	f.Fuzz(func(t *testing.T, body string) {
		w := send(body)
		if ct := w.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Content-Type %q for body %q", ct, body)
		}
		var code string
		switch w.Code {
		case http.StatusOK:
			var resp SolveResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || resp.Result == nil {
				t.Fatalf("malformed 200 body (%v): %s", err, w.Body.String())
			}
		case http.StatusAccepted:
			var js JobStatus
			if err := json.Unmarshal(w.Body.Bytes(), &js); err != nil || js.ID == "" || js.Poll == "" {
				t.Fatalf("malformed 202 body (%v): %s", err, w.Body.String())
			}
		default:
			var eb ErrorBody
			if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil {
				t.Fatalf("non-200 response %d is not a structured error (%v): %s",
					w.Code, err, w.Body.String())
			}
			if eb.Error.Code == "" || eb.Error.Message == "" {
				t.Fatalf("non-200 response %d missing code/message: %s", w.Code, w.Body.String())
			}
			code = eb.Error.Code
		}

		switch w.Code {
		case http.StatusAccepted, http.StatusTooManyRequests, http.StatusGatewayTimeout:
			return
		}
		again := send(body)
		if again.Code != w.Code {
			t.Fatalf("status %d, then %d for body %q", w.Code, again.Code, body)
		}
		if w.Code == http.StatusOK {
			if a, b := maskVolatile(w.Body.String()), maskVolatile(again.Body.String()); a != b {
				t.Fatalf("repeated 200 differs for body %q:\nfirst:  %s\nsecond: %s", body, a, b)
			}
			return
		}
		var eb ErrorBody
		if err := json.Unmarshal(again.Body.Bytes(), &eb); err != nil || eb.Error.Code != code {
			t.Fatalf("error code %q, then %q (%v) for body %q", code, eb.Error.Code, err, body)
		}
	})
}

// maskVolatile blanks the two fields of a 200 solve body that may differ
// between answers to one request: solve_ms, and cached.
func maskVolatile(body string) string {
	body = solveMSRe.ReplaceAllString(body, `${1}0`)
	return strings.Replace(body, `"cached": true`, `"cached": false`, 1)
}

// FuzzIndentMatchesStd: appendIndent, which trusts its input, writes the
// bytes json.Indent writes for anything json.Marshal produces. Each input
// is checked twice: as a SolveResult built from the fuzzed strings and
// numbers (escaped and \u-encoded strings, nil and empty fields, nested
// tuple lists), and as raw, when raw is JSON, decoded into an arbitrary
// value and marshaled again, which reaches {}, deep nesting and every
// scalar the encoder writes.
func FuzzIndentMatchesStd(f *testing.F) {
	f.Add([]byte(`{"a":{"b":[{},[],null,true,-1.5e-7," "]}}`), "IsP@PGXD_", "k-matching", 10, 5, uint8(3), false)
	f.Add([]byte(`[[[[[[[[[[]]]]]]]]]]`), `a\b"c<d>&e`, "tab\there\x00\x7f", 256, 8, uint8(0), true)
	f.Add([]byte(`"x\"y\\z"`), "\xff\xfe invalid utf-8", "  ", 0, -1, uint8(255), false)
	f.Add([]byte(`{}`), "", "", 1, 1, uint8(1), true)
	f.Add([]byte(`not json`), "~?~~~", "1/3", 3, 2, uint8(7), false)

	check := func(t *testing.T, v any, prefix, indent string) {
		src, err := json.Marshal(v)
		if err != nil {
			return // a value the encoder refuses never reaches the indenter
		}
		var want bytes.Buffer
		if err := json.Indent(&want, src, prefix, indent); err != nil {
			t.Fatalf("json.Indent refused json.Marshal output %q: %v", src, err)
		}
		got := appendIndent([]byte("head"), src, prefix, indent)
		if string(got[:4]) != "head" || !bytes.Equal(got[4:], want.Bytes()) {
			t.Fatalf("appendIndent(%q):\ngot:  %q\nwant: %q", src, got, "head"+want.String())
		}
	}

	f.Fuzz(func(t *testing.T, raw []byte, g6, note string, n, k int, tuples uint8, nilNE bool) {
		res := &SolveResult{Graph6: g6, N: n, M: 2 * n, K: k, Attackers: 1 + int(tuples%4),
			Rho: n / 2, PureNE: k >= n/2, GameValue: note}
		if !nilNE {
			ne := &MixedNE{Family: note, VPSupport: []int{}, EdgeSupport: [][2]int{},
				TupleCount: int(tuples), DefenderGain: g6 + "/" + note}
			for i := 0; i < int(tuples%8); i++ {
				ne.VPSupport = append(ne.VPSupport, i*n)
				ne.EdgeSupport = append(ne.EdgeSupport, [2]int{i, -n})
				ne.Tuples = append(ne.Tuples, [][2]int{{i, k}, {k, i}})
				ne.TupleProbs = append(ne.TupleProbs, note)
			}
			res.MixedNE = ne
		}
		if note != "" {
			res.Notes = []string{note, g6}
		}
		check(t, res, "  ", "  ")

		var v any
		if json.Unmarshal(raw, &v) == nil {
			check(t, v, "  ", "  ")
			check(t, v, "", "\t")
		}
	})
}
