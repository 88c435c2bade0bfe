package graph

import (
	"errors"
	"math/rand"
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
