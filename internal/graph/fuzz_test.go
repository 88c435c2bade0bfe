package graph

import (
	"errors"
	"slices"
	"strings"
	"testing"
)

// FuzzParseGraph6: the graph6 decoder must never panic, and must be
// strict enough that Parse→Format→Parse is the identity: any accepted
// string re-encodes byte-identically (after trimming the optional header
// and whitespace), and the re-parse reproduces the same graph. Strictness
// is load-bearing — graph6 strings key the solve-response cache, so two
// spellings of one graph would split cache entries. An accepted string
// must also decode to the graph the one-AddEdge-per-bit reference builds:
// the same edge IDs and the same adjacency lists.
func FuzzParseGraph6(f *testing.F) {
	seeds := []string{
		"", "@", "A_", "Bw", "Bg", "D??", ">>graph6<<Bw\n",
		"Ao",    // nonzero padding
		"~??B?", // non-canonical long form
		"~~~~", "~A", "A__", "\x01_",
		"~?@?" + strings.Repeat("?", 326), // long-form n=64, empty graph
		"IsP@PGXD_",                       // Petersen
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ParseGraph6(input)
		if err != nil {
			return // rejection is fine; panics are not
		}
		enc, err := FormatGraph6(g)
		if err != nil {
			t.Fatalf("accepted graph failed to re-encode: %v", err)
		}
		trimmed := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(input), ">>graph6<<"))
		if enc != trimmed {
			t.Fatalf("Parse→Format is not the identity: %q re-encodes as %q", trimmed, enc)
		}
		back, err := ParseGraph6(enc)
		if err != nil {
			t.Fatalf("re-encoded form rejected: %v", err)
		}
		if back.NumVertices() != g.NumVertices() || back.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed shape: (%d,%d) -> (%d,%d)",
				g.NumVertices(), g.NumEdges(), back.NumVertices(), back.NumEdges())
		}
		for _, e := range g.Edges() {
			if !back.HasEdge(e.U, e.V) {
				t.Fatalf("round trip dropped edge %v", e)
			}
		}
		ref := parseGraph6Scan(t, trimmed)
		if !slices.Equal(g.Edges(), ref.Edges()) {
			t.Fatalf("edge order differs from the AddEdge reference for %q", trimmed)
		}
		for v := 0; v < g.NumVertices(); v++ {
			if !slices.Equal(g.Neighbors(v), ref.Neighbors(v)) {
				t.Fatalf("adjacency of %d differs from the AddEdge reference for %q", v, trimmed)
			}
		}
	})
}

// FuzzBuildCSR differentially fuzzes the CSR bulk load against an
// independent reference: the same edge list inserted one edge at a time
// through New + AddEdge, then converted with FromGraph. For any edge list
// — valid or not — the two must agree on accept or reject; an accepted
// list must give identical RowPtr and Col arrays, and a rejection must
// carry one of the package's input sentinels. Endpoints are raw bytes
// against a small n, so out-of-range, self-loop and duplicate faults all
// occur naturally.
func FuzzBuildCSR(f *testing.F) {
	f.Add(6, []byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 5})
	f.Add(4, []byte{0, 1, 1, 0})       // duplicate, reversed orientation
	f.Add(3, []byte{1, 1})             // self-loop
	f.Add(2, []byte{0, 7})             // out of range
	f.Add(5, []byte{0, 9, 2, 2, 1, 3}) // range fault before self-loop
	f.Add(0, []byte{})
	f.Fuzz(func(t *testing.T, n int, data []byte) {
		n = int(uint(n) % 64)
		m := len(data) / 2
		us := make([]int32, m)
		vs := make([]int32, m)
		g := New(n)
		var refErr error
		for i := 0; i < m; i++ {
			us[i] = int32(data[2*i])
			vs[i] = int32(data[2*i+1])
			if refErr == nil {
				refErr = g.AddEdge(int(us[i]), int(vs[i]))
			}
		}
		got, err := BuildCSR(n, us, vs)
		switch {
		case (err == nil) != (refErr == nil):
			t.Fatalf("BuildCSR err = %v, AddEdge reference err = %v", err, refErr)
		case err != nil:
			if !errors.Is(err, ErrVertexRange) && !errors.Is(err, ErrSelfLoop) && !errors.Is(err, ErrDuplicateEdge) {
				t.Fatalf("BuildCSR rejection %v carries no input sentinel", err)
			}
		default:
			want := FromGraph(g)
			if !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.Col, want.Col) {
				t.Fatalf("BuildCSR differs from the AddEdge reference")
			}
		}
	})
}

// FuzzParse: the edge-list parser must never panic and must only produce
// graphs that re-encode to something it can parse back.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"n 3\n0 1\n1 2\n",
		"0 1\n",
		"# comment\n\nn 10\n0 9\n",
		"n -1\n",
		"0 0\n",
		"1 2 3\n",
		"a b\n",
		"n 2\n0 5\n",
		strings.Repeat("0 1\n", 3),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ParseString(input)
		if err != nil {
			return // rejection is fine; panics are not
		}
		// Anything accepted must round-trip.
		back, err := ParseString(g.EncodeString())
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if back.NumVertices() != g.NumVertices() || back.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed shape: (%d,%d) -> (%d,%d)",
				g.NumVertices(), g.NumEdges(), back.NumVertices(), back.NumEdges())
		}
	})
}
