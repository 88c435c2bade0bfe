package game

import (
	"errors"
	"testing"

	"github.com/defender-game/defender/internal/graph"
)

func mustGame(t *testing.T, g *graph.Graph, nu, k int) *Game {
	t.Helper()
	gm, err := New(g, nu, k)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return gm
}

func mustTuple(t *testing.T, g *graph.Graph, edges ...graph.Edge) Tuple {
	t.Helper()
	tp, err := NewTuple(g, edges)
	if err != nil {
		t.Fatalf("NewTuple(%v): %v", edges, err)
	}
	return tp
}

func TestNewGameValidation(t *testing.T) {
	g := graph.Cycle(4)
	tests := []struct {
		name    string
		g       *graph.Graph
		nu, k   int
		wantErr error
	}{
		{"nil graph", nil, 1, 1, nil},
		{"empty graph", graph.New(0), 1, 1, nil},
		{"zero attackers", g, 0, 1, ErrBadAttackers},
		{"negative attackers", g, -2, 1, ErrBadAttackers},
		{"k zero", g, 1, 0, ErrBadK},
		{"k above m", g, 1, 5, ErrBadK},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(tt.g, tt.nu, tt.k)
			if err == nil {
				t.Fatal("want error")
			}
			if tt.wantErr != nil && !errors.Is(err, tt.wantErr) {
				t.Errorf("err = %v, want %v", err, tt.wantErr)
			}
		})
	}
	// Isolated vertices rejected.
	iso := graph.New(3)
	if err := iso.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := New(iso, 1, 1); !errors.Is(err, ErrIsolatedVertex) {
		t.Errorf("err = %v, want ErrIsolatedVertex", err)
	}
	// Valid construction and accessors.
	gm := mustGame(t, g, 3, 2)
	if gm.Graph() != g || gm.Attackers() != 3 || gm.K() != 2 {
		t.Error("accessors broken")
	}
	if gm.String() == "" {
		t.Error("String should render")
	}
}

func TestTupleConstruction(t *testing.T) {
	g := graph.Cycle(5)
	tp := mustTuple(t, g, graph.NewEdge(0, 1), graph.NewEdge(2, 3))
	if tp.Size() != 2 {
		t.Errorf("Size = %d", tp.Size())
	}
	if _, err := NewTuple(g, []graph.Edge{graph.NewEdge(0, 2)}); !errors.Is(err, ErrInvalidProfile) {
		t.Errorf("foreign edge: err = %v", err)
	}
	if _, err := NewTupleFromIDs(g, []int{0, 0}); !errors.Is(err, ErrInvalidProfile) {
		t.Errorf("duplicate ids: err = %v", err)
	}
	if _, err := NewTupleFromIDs(g, []int{-1}); !errors.Is(err, ErrInvalidProfile) {
		t.Errorf("negative id: err = %v", err)
	}
	if _, err := NewTupleFromIDs(g, []int{99}); !errors.Is(err, ErrInvalidProfile) {
		t.Errorf("out of range id: err = %v", err)
	}
}

func TestTupleCanonicalization(t *testing.T) {
	g := graph.Cycle(5)
	a := mustTuple(t, g, g.EdgeByID(2), g.EdgeByID(0))
	b := mustTuple(t, g, g.EdgeByID(0), g.EdgeByID(2))
	if !a.Equal(b) {
		t.Error("order must not matter")
	}
	if a.Key() != b.Key() {
		t.Errorf("keys differ: %q vs %q", a.Key(), b.Key())
	}
	c := mustTuple(t, g, g.EdgeByID(0))
	if a.Equal(c) {
		t.Error("different sizes are unequal")
	}
	d := mustTuple(t, g, g.EdgeByID(0), g.EdgeByID(3))
	if a.Equal(d) {
		t.Error("different edges are unequal")
	}
	if a.String() != "⟨0,2⟩" {
		t.Errorf("String = %q", a.String())
	}
}

func TestTupleVerticesAndCovers(t *testing.T) {
	g := graph.Path(5) // edges: 0:(0,1) 1:(1,2) 2:(2,3) 3:(3,4)
	tp := mustTuple(t, g, g.EdgeByID(0), g.EdgeByID(1))
	vs := tp.Vertices(g)
	want := []int{0, 1, 2}
	if !graph.SetsEqual(vs, want) {
		t.Errorf("Vertices = %v, want %v (shared endpoint deduplicated)", vs, want)
	}
	for _, v := range want {
		if !tp.covers(g, v) {
			t.Errorf("should cover %d", v)
		}
	}
	if tp.covers(g, 4) {
		t.Error("should not cover 4")
	}
	// Edges resolve back.
	edges := tp.Edges(g)
	if len(edges) != 2 || edges[0] != g.EdgeByID(0) || edges[1] != g.EdgeByID(1) {
		t.Errorf("Edges = %v", edges)
	}
	// IDs returns a copy.
	ids := tp.IDs()
	ids[0] = 99
	if tp.IDs()[0] == 99 {
		t.Error("IDs must return a copy")
	}
}

func TestValidatePure(t *testing.T) {
	g := graph.Cycle(4)
	gm := mustGame(t, g, 2, 2)
	good := PureProfile{
		VertexChoice: []int{0, 3},
		TupleChoice:  mustTuple(t, g, g.EdgeByID(0), g.EdgeByID(2)),
	}
	if err := gm.ValidatePure(good); err != nil {
		t.Fatalf("valid profile rejected: %v", err)
	}
	bad := []PureProfile{
		{VertexChoice: []int{0}, TupleChoice: good.TupleChoice},                  // wrong arity
		{VertexChoice: []int{0, 9}, TupleChoice: good.TupleChoice},               // bad vertex
		{VertexChoice: []int{0, 1}, TupleChoice: mustTuple(t, g, g.EdgeByID(0))}, // wrong k
	}
	for i, p := range bad {
		if err := gm.ValidatePure(p); !errors.Is(err, ErrInvalidProfile) {
			t.Errorf("bad profile %d: err = %v", i, err)
		}
	}
}

func TestPureProfits(t *testing.T) {
	g := graph.Path(4) // edges (0,1),(1,2),(2,3)
	gm := mustGame(t, g, 3, 1)
	p := PureProfile{
		VertexChoice: []int{0, 1, 3},
		TupleChoice:  mustTuple(t, g, g.EdgeByID(0)), // covers {0,1}
	}
	if got := gm.ProfitTP(p); got != 2 {
		t.Errorf("ProfitTP = %d, want 2 (attackers at 0 and 1 caught)", got)
	}
	wantVP := []int{0, 0, 1}
	for i, want := range wantVP {
		if got := gm.ProfitVP(p, i); got != want {
			t.Errorf("ProfitVP(%d) = %d, want %d", i, got, want)
		}
	}
	// Conservation: ν = IP_tp + Σ IP_i.
	sum := gm.ProfitTP(p)
	for i := range p.VertexChoice {
		sum += gm.ProfitVP(p, i)
	}
	if sum != gm.Attackers() {
		t.Errorf("profit conservation violated: %d != %d", sum, gm.Attackers())
	}
}

// Equal reports whether two tuples contain the same edge set.
func (t Tuple) Equal(o Tuple) bool {
	if len(t.ids) != len(o.ids) {
		return false
	}
	for i := range t.ids {
		if t.ids[i] != o.ids[i] {
			return false
		}
	}
	return true
}
