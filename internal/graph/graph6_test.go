package graph

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseGraph6KnownVectors(t *testing.T) {
	tests := []struct {
		name  string
		g6    string
		wantN int
		wantM int
	}{
		{"K2", "A_", 2, 1},
		{"K3", "Bw", 3, 3},
		{"P3", "Bg", 3, 2},
		{"empty5", "D??", 5, 0},
		{"singleton", "@", 1, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g, err := ParseGraph6(tt.g6)
			if err != nil {
				t.Fatalf("ParseGraph6(%q): %v", tt.g6, err)
			}
			if g.NumVertices() != tt.wantN || g.NumEdges() != tt.wantM {
				t.Errorf("got n=%d m=%d, want n=%d m=%d",
					g.NumVertices(), g.NumEdges(), tt.wantN, tt.wantM)
			}
		})
	}
}

func TestParseGraph6Header(t *testing.T) {
	g, err := ParseGraph6(">>graph6<<Bw\n")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 3 {
		t.Errorf("m = %d", g.NumEdges())
	}
}

// TestGraph6OrderAgreesWithParse: the header-only decoder reports the
// vertex count ParseGraph6 builds, rejects the headers ParseGraph6
// rejects, and ignores the adjacency bytes.
func TestGraph6OrderAgreesWithParse(t *testing.T) {
	for _, g := range []*Graph{New(1), Path(4), Petersen(), Cycle(63), Grid(9, 9)} {
		s, err := FormatGraph6(g)
		if err != nil {
			t.Fatal(err)
		}
		n, err := Graph6Order(">>graph6<<" + s + "\n")
		if err != nil || n != g.NumVertices() {
			t.Errorf("Graph6Order(%q) = %d, %v; want %d", s, n, err, g.NumVertices())
		}
	}
	for _, s := range []string{"", " ", "\x01_", "~A", "~??B?", "~??aFE", "~~~~"} {
		if _, err := Graph6Order(s); !errors.Is(err, ErrBadGraph6) {
			t.Errorf("Graph6Order(%q) err = %v, want ErrBadGraph6", s, err)
		}
	}
	// Only the header is read: a truncated body still declares its n.
	if n, err := Graph6Order("~?Bw"); err != nil || n != 248 {
		t.Errorf("Graph6Order(truncated) = %d, %v; want 248", n, err)
	}
}

func TestParseGraph6Errors(t *testing.T) {
	bad := []string{
		"",
		"A",         // truncated adjacency
		"A__",       // too many bytes
		"\x01_",     // byte below 63
		"~A",        // truncated extended count
		"A\x7f\x20", // out-of-range bytes
		"Ao",        // nonzero padding bits (n=2 uses 1 of 6 bits)
		"Bx",        // nonzero padding bits (n=3 uses 3 of 6 bits)
		"~??B?",     // non-canonical long-form header for n=3
		"~??aFE",    // non-canonical long-form header for n=34
		"~~~~",      // 8-byte vertex count (also any claimed n > 258047)
	}
	for _, s := range bad {
		if _, err := ParseGraph6(s); !errors.Is(err, ErrBadGraph6) {
			t.Errorf("ParseGraph6(%q) = %v, want ErrBadGraph6", s, err)
		}
	}
}

// TestParseGraph6LongFormTrailing pins the regression the service cache
// depends on: a valid long-form (n >= 63) encoding followed by trailing
// bytes must be rejected, not silently reinterpreted.
func TestParseGraph6LongFormTrailing(t *testing.T) {
	enc, err := FormatGraph6(Path(63))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseGraph6(enc); err != nil {
		t.Fatalf("canonical long-form encoding rejected: %v", err)
	}
	for _, suffix := range []string{"?", "A", "~~~"} {
		if _, err := ParseGraph6(enc + suffix); !errors.Is(err, ErrBadGraph6) {
			t.Errorf("ParseGraph6(valid+%q) = %v, want ErrBadGraph6", suffix, err)
		}
	}
}

func TestFormatGraph6KnownVectors(t *testing.T) {
	if got, err := FormatGraph6(Complete(3)); err != nil || got != "Bw" {
		t.Errorf("K3 = %q (%v), want Bw", got, err)
	}
	if got, err := FormatGraph6(Path(3)); err != nil || got != "Bg" {
		t.Errorf("P3 = %q (%v), want Bg", got, err)
	}
	if got, err := FormatGraph6(Path(2)); err != nil || got != "A_" {
		t.Errorf("K2 = %q (%v), want A_", got, err)
	}
}

func TestGraph6ExtendedVertexCount(t *testing.T) {
	// n = 100 > 62 uses the '~' form.
	g := Path(100)
	enc, err := FormatGraph6(g)
	if err != nil {
		t.Fatal(err)
	}
	if enc[0] != '~' {
		t.Fatalf("expected extended header, got %q", enc[:4])
	}
	back, err := ParseGraph6(enc)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumVertices() != 100 || back.NumEdges() != 99 {
		t.Errorf("round trip: n=%d m=%d", back.NumVertices(), back.NumEdges())
	}
}

// Property: FormatGraph6 / ParseGraph6 round-trips arbitrary graphs.
func TestPropertyGraph6RoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(70) // crosses the 62 boundary
		g := RandomGNP(n, rng.Float64(), seed)
		enc, err := FormatGraph6(g)
		if err != nil {
			return false
		}
		back, err := ParseGraph6(enc)
		if err != nil {
			return false
		}
		if back.NumVertices() != g.NumVertices() || back.NumEdges() != g.NumEdges() {
			return false
		}
		for _, e := range g.Edges() {
			if !back.HasEdge(e.U, e.V) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// formatGraph6Scan is the reference encoder FormatGraph6 replaced: it
// probes HasEdge for every pair of the upper triangle in bit order,
// O(n²/2) map lookups. The differential tests hold the edge-list encoder
// to its output byte for byte.
func formatGraph6Scan(g *Graph) string {
	n := g.NumVertices()
	var sb strings.Builder
	if n <= 62 {
		sb.WriteByte(byte(n + 63))
	} else {
		sb.WriteByte(126)
		sb.WriteByte(byte(n>>12&63 + 63))
		sb.WriteByte(byte(n>>6&63 + 63))
		sb.WriteByte(byte(n&63 + 63))
	}
	acc, accBits := 0, 0
	for j := 1; j < n; j++ {
		for i := 0; i < j; i++ {
			acc <<= 1
			if g.HasEdge(i, j) {
				acc |= 1
			}
			if accBits++; accBits == 6 {
				sb.WriteByte(byte(acc + 63))
				acc, accBits = 0, 0
			}
		}
	}
	if accBits > 0 {
		sb.WriteByte(byte(acc<<uint(6-accBits) + 63))
	}
	return sb.String()
}

// parseGraph6Scan is the reference decoder ParseGraph6 replaced: one
// AddEdge per set bit of the upper triangle, in bit order. The input must
// already be a valid trimmed graph6 line.
func parseGraph6Scan(t *testing.T, s string) *Graph {
	t.Helper()
	n, pos, err := graph6Order(s)
	if err != nil {
		t.Fatal(err)
	}
	g := New(n)
	bit := 0
	for j := 1; j < n; j++ {
		for i := 0; i < j; i++ {
			if (s[pos+bit/6]-63)>>uint(5-bit%6)&1 == 1 {
				g.mustAddEdge(i, j)
			}
			bit++
		}
	}
	return g
}

// graph6DiffOrders crosses the one-byte/long header boundary (62/63) and
// reaches past the server's 256-vertex cap.
var graph6DiffOrders = []int{0, 1, 2, 62, 63, 64, 256, 300}

// TestFormatGraph6MatchesHasEdgeScan: the edge-list encoder writes the
// same bytes as the HasEdge scan on random graphs of every density, and
// on graphs whose edges were inserted in an order other than the
// format's.
func TestFormatGraph6MatchesHasEdgeScan(t *testing.T) {
	for _, n := range graph6DiffOrders {
		for seed, p := range []float64{0, 0.02, 0.3, 0.9, 1} {
			g := RandomGNP(n, p, int64(100*n+seed))
			got, err := FormatGraph6(g)
			if err != nil {
				t.Fatal(err)
			}
			if want := formatGraph6Scan(g); got != want {
				t.Errorf("n=%d p=%v: FormatGraph6 = %.40q..., HasEdge scan = %.40q...", n, p, got, want)
			}
		}
	}
	// RandomGNP inserts in row order; a reversed insertion order must not
	// change the encoding.
	g := RandomGNP(64, 0.2, 7)
	rev := New(64)
	edges := g.Edges()
	for i := len(edges) - 1; i >= 0; i-- {
		rev.mustAddEdge(edges[i].V, edges[i].U)
	}
	if a, b := mustFormat(t, rev), formatGraph6Scan(g); a != b {
		t.Errorf("reversed insertion order changed the encoding")
	}
}

// TestParseGraph6MatchesAddEdgeScan: the one-walk decoder builds the same
// graph as one AddEdge per set bit in bit order — the same edge IDs (the
// column-major order that fixes tuple order and every golden), the same
// sorted adjacency lists — and a parsed graph still accepts new edges
// without corrupting its neighbours' lists.
func TestParseGraph6MatchesAddEdgeScan(t *testing.T) {
	for _, n := range graph6DiffOrders {
		for seed, p := range []float64{0, 0.02, 0.3, 0.9, 1} {
			s := mustFormat(t, RandomGNP(n, p, int64(100*n+seed)))
			got, err := ParseGraph6(s)
			if err != nil {
				t.Fatal(err)
			}
			want := parseGraph6Scan(t, s)
			if !slices.Equal(got.Edges(), want.Edges()) {
				t.Fatalf("n=%d p=%v: edge order differs from the AddEdge scan", n, p)
			}
			for v := 0; v < n; v++ {
				if !slices.Equal(got.Neighbors(v), want.Neighbors(v)) {
					t.Fatalf("n=%d p=%v: adjacency of %d = %v, want %v", n, p, v, got.Neighbors(v), want.Neighbors(v))
				}
			}
			for id, e := range want.Edges() {
				if got.EdgeID(e) != id {
					t.Fatalf("n=%d p=%v: EdgeID(%v) = %d, want %d", n, p, e, got.EdgeID(e), id)
				}
			}
		}
	}
	g, err := ParseGraph6("Bg") // P3 0-1-2, its lists sharing one array
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	for v, want := range [][]int{{1, 2}, {0, 2}, {0, 1}} {
		if got := g.Neighbors(v); !slices.Equal(got, want) {
			t.Errorf("after AddEdge, adjacency of %d = %v, want %v", v, got, want)
		}
	}
}

func mustFormat(t *testing.T, g *Graph) string {
	t.Helper()
	s, err := FormatGraph6(g)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// BenchmarkFormatGraph6 encodes a 256-vertex, 400-edge graph: the server
// cap, at the density of the serve-large inputs.
func BenchmarkFormatGraph6(b *testing.B) {
	g := RandomGNP(256, 400/(256*255/2.0), 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := FormatGraph6(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseGraph6 decodes the same 256-vertex graph.
func BenchmarkParseGraph6(b *testing.B) {
	s, err := FormatGraph6(RandomGNP(256, 400/(256*255/2.0), 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseGraph6(s); err != nil {
			b.Fatal(err)
		}
	}
}
