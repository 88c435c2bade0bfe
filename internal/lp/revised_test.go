package lp

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/defender-game/defender/internal/graph"
)

// The revised simplex must take exactly the pivots of the dense Bland
// tableau in dense_test.go: same entering and leaving choices, hence the
// same final basis, status, value, X and duals, on every program.

// lpCase is one standard-form program of the differential corpus.
type lpCase struct {
	name string
	c    []*big.Rat
	a    [][]*big.Rat
	b    []*big.Rat
}

func rats(vs ...int64) []*big.Rat {
	out := make([]*big.Rat, len(vs))
	for i, v := range vs {
		out[i] = big.NewRat(v, 1)
	}
	return out
}

// maximizeCorpus gathers the Maximize programs of this package's tests
// and benchmarks — textbook, degenerate, unbounded, infeasible, both
// phase-one shapes, Beale's cycling example, Klee–Minty — plus the
// random programs of the certificate properties.
func maximizeCorpus() []lpCase {
	cs := []lpCase{
		{"textbook", rats(3, 5), [][]*big.Rat{rats(1, 0), rats(0, 2), rats(3, 2)}, rats(4, 12, 18)},
		{"degenerate", rats(1, 1), [][]*big.Rat{rats(1, 1), rats(1, 0)}, []*big.Rat{ri(1), r(1, 2)}},
		{"unbounded", rats(1, 0), [][]*big.Rat{rats(1, -1)}, rats(1)},
		{"infeasible", rats(1), [][]*big.Rat{rats(1)}, rats(-1)},
		{"phase-one", rats(1, 1), [][]*big.Rat{rats(-1, -1), rats(1, 0), rats(0, 1)}, rats(-2, 3, 3)},
		{"phase-one-equality", rats(2, 1), [][]*big.Rat{rats(1, 1), rats(-1, -1)}, rats(1, -1)},
		{"phase-one-redundant", rats(1, 1), [][]*big.Rat{rats(1, 1), rats(-1, -1), rats(2, 2)}, rats(1, -1, 2)},
		{"no-constraints", rats(-1, 0), nil, nil},
		{"minimize-as-maximize", rats(-1, -1), [][]*big.Rat{rats(-1, -1)}, rats(-2)},
		{"beale",
			[]*big.Rat{r(3, 4), ri(-150), r(1, 50), ri(-6)},
			[][]*big.Rat{
				{r(1, 4), ri(-60), r(-1, 25), ri(9)},
				{r(1, 2), ri(-90), r(-1, 50), ri(3)},
				rats(0, 0, 1, 0),
			},
			rats(0, 0, 1)},
		{"klee-minty", rats(100, 10, 1), [][]*big.Rat{rats(1, 0, 0), rats(20, 1, 0), rats(200, 20, 1)}, rats(1, 100, 10000)},
	}
	c, a, b := denseProgram(24, 24)
	cs = append(cs, lpCase{"dense-24x24", c, a, b})
	c, a, b = denseProgram(18, 18)
	for i := range b {
		if i%2 == 1 {
			for j := range a[i] {
				a[i][j] = new(big.Rat).Neg(a[i][j])
			}
			b[i] = big.NewRat(-int64(i+1), 8)
		}
	}
	cs = append(cs, lpCase{"phase-one-18x18", c, a, b})
	for seed := int64(0); seed < 60; seed++ {
		cs = append(cs, randomProgram(seed, seed%2 == 1))
	}
	return cs
}

// randomProgram draws a small boxed program in the shape of the
// certificate properties; withNegative mixes negative bounds in so phase
// one (and infeasibility) is exercised.
func randomProgram(seed int64, withNegative bool) lpCase {
	rng := rand.New(rand.NewSource(seed))
	n, m := 1+rng.Intn(4), 1+rng.Intn(4)
	c := make([]*big.Rat, n)
	for j := range c {
		c[j] = big.NewRat(int64(rng.Intn(7)-2), 1)
	}
	a := make([][]*big.Rat, m)
	for i := range a {
		a[i] = make([]*big.Rat, n)
		for j := range a[i] {
			if withNegative {
				a[i][j] = big.NewRat(int64(rng.Intn(7)-3), 1)
			} else {
				a[i][j] = big.NewRat(int64(rng.Intn(5)), int64(1+rng.Intn(2)))
			}
		}
	}
	b := make([]*big.Rat, m)
	for i := range b {
		if withNegative {
			b[i] = big.NewRat(int64(rng.Intn(9)-3), 1)
		} else {
			b[i] = big.NewRat(int64(rng.Intn(9)), 1)
		}
	}
	return lpCase{fmt.Sprintf("random-%d", seed), c, a, b}
}

// sameRats reports whether two exact vectors are equal entry by entry.
func sameRats(x, y []*big.Rat) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if (x[i] == nil) != (y[i] == nil) || (x[i] != nil && x[i].Cmp(y[i]) != 0) {
			return false
		}
	}
	return true
}

// diffMaximize runs both engines on one program and reports the first
// disagreement.
func diffMaximize(c []*big.Rat, a [][]*big.Rat, b []*big.Rat) error {
	want, dense, derr := maximizeDense(c, a, b)
	p, err := newProgram(c, a, b)
	if (err == nil) != (derr == nil) {
		return fmt.Errorf("validation: revised %v, dense %v", err, derr)
	}
	if err != nil {
		return nil
	}
	s, err := p.solve(context.Background())
	if err != nil {
		return err
	}
	got := s.solution()
	switch {
	case got.Status != want.Status:
		return fmt.Errorf("status %v, dense %v", got.Status, want.Status)
	case s.pivots != dense.pivots:
		return fmt.Errorf("pivots %d, dense %d", s.pivots, dense.pivots)
	case !slices.Equal(s.basis, dense.basis):
		return fmt.Errorf("basis %v, dense %v", s.basis, dense.basis)
	case !sameRats([]*big.Rat{got.Value}, []*big.Rat{want.Value}):
		return fmt.Errorf("value %v, dense %v", got.Value, want.Value)
	case !sameRats(got.X, want.X):
		return fmt.Errorf("x %v, dense %v", got.X, want.X)
	case !sameRats(got.Dual, want.Dual):
		return fmt.Errorf("dual %v, dense %v", got.Dual, want.Dual)
	}
	return nil
}

func TestRevisedMatchesDenseMaximize(t *testing.T) {
	statuses := map[Status]int{}
	for _, tc := range maximizeCorpus() {
		if err := diffMaximize(tc.c, tc.a, tc.b); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		sol, err := Maximize(tc.c, tc.a, tc.b)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		statuses[sol.Status]++
	}
	// The corpus must reach every outcome, or the comparison is hollow.
	for _, st := range []Status{Optimal, Unbounded, Infeasible} {
		if statuses[st] == 0 {
			t.Errorf("corpus never ends %v", st)
		}
	}
}

// zeroSumCorpus gathers the payoff matrices of zerosum_test.go and the
// oracle benchmark, plus random rational matrices of both orientations.
func zeroSumCorpus() map[string][][]*big.Rat {
	cs := map[string][][]*big.Rat{
		"pennies":    matrix([]int64{1, -1}, []int64{-1, 1}),
		"rps":        matrix([]int64{0, -1, 1}, []int64{1, 0, -1}, []int64{-1, 1, 0}),
		"saddle":     matrix([]int64{3, 2}, []int64{1, 0}),
		"asymmetric": matrix([]int64{4, 1}, []int64{2, 3}),
		"non-square": matrix([]int64{4, 1}, []int64{2, 3}, []int64{0, 0}),
		"negative":   matrix([]int64{-5, -3}, []int64{-2, -7}),
		"single":     matrix([]int64{7}),
	}
	oracle := make([][]*big.Rat, 16)
	for i := range oracle {
		oracle[i] = make([]*big.Rat, 16)
		for j := range oracle[i] {
			oracle[i][j] = big.NewRat(int64((i*j)%5-2), int64(1+(i+j)%4))
		}
	}
	cs["oracle-16x16"] = oracle
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(6), 1+rng.Intn(6)
		m := make([][]*big.Rat, rows)
		for i := range m {
			m[i] = make([]*big.Rat, cols)
			for j := range m[i] {
				m[i][j] = big.NewRat(int64(rng.Intn(11)-5), int64(1+rng.Intn(3)))
			}
		}
		cs[fmt.Sprintf("random-%d", seed)] = m
	}
	return cs
}

// coveragePayoff is the ν = 1 Tuple-model game of (g, k): one row per
// k-subset of edges in lexicographic id order, one column per vertex,
// payoff 1 when the tuple covers the vertex.
func coveragePayoff(g *graph.Graph, k int) [][]*big.Rat {
	zero, one := new(big.Rat), big.NewRat(1, 1)
	var out [][]*big.Rat
	ids := make([]int, k)
	var rec func(pos, next int)
	rec = func(pos, next int) {
		if pos == k {
			row := make([]*big.Rat, g.NumVertices())
			for v := range row {
				row[v] = zero
			}
			for _, id := range ids {
				e := g.EdgeByID(id)
				row[e.U], row[e.V] = one, one
			}
			out = append(out, row)
			return
		}
		for id := next; id <= g.NumEdges()-(k-pos); id++ {
			ids[pos] = id
			rec(pos+1, id+1)
		}
	}
	rec(0, 0)
	return out
}

// gameCase is one tuple-coverage game of the differential corpus.
type gameCase struct {
	name string
	g    *graph.Graph
	k    int
}

// gameCorpus holds the game LPs the service and the experiments solve:
// one instance of each serve-lp stratum shape, E16's lp-minimax zoo
// entries, and C31 at k = 3 (4,495 tuples).
func gameCorpus() []gameCase {
	return []gameCase{
		{"bipartite-6x6/k=2", graph.RandomBipartite(6, 6, 0.45, 3), 2},
		{"tree-16/k=2", graph.RandomTree(16, 1), 2},
		{"tree-12/k=3", graph.RandomTree(12, 2), 3},
		{"gnm-10/k=2", graph.RandomConnected(10, 0.4, 5), 2},
		{"grid-3x4/k=2", graph.Grid(3, 4), 2},
		{"tree-20/k=2", graph.RandomTree(20, 3), 2},
		{"cycle-15/k=2", graph.Cycle(15), 2},
		{"grid-2x5/k=3", graph.Grid(2, 5), 3},
		{"grid-3x5/k=2", graph.Grid(3, 5), 2},
		{"cycle-12/k=3", graph.Cycle(12), 3},
		{"cycle-11/k=3", graph.Cycle(11), 3},
		{"caterpillar-15/k=3", graph.Caterpillar(5, 2), 3},
		{"cycle-13/k=3", graph.Cycle(13), 3},
		{"E16 C5/k=1", graph.Cycle(5), 1},
		{"E16 C5/k=2", graph.Cycle(5), 2},
		{"E16 wheel7/k=1", graph.Wheel(7), 1},
		{"E16 wheel7/k=2", graph.Wheel(7), 2},
		{"E16 lollipop41/k=1", graph.Lollipop(4, 1), 1},
		{"C31/k=3", graph.Cycle(31), 3},
	}
}

// diffZeroSum runs both reductions on one payoff matrix and reports the
// first disagreement.
func diffZeroSum(m [][]*big.Rat) error {
	want, dense, err := solveZeroSumDense(m)
	if err != nil {
		return fmt.Errorf("dense: %w", err)
	}
	p, _, err := zeroSumProgram(m)
	if err != nil {
		return err
	}
	s, err := p.solve(context.Background())
	if err != nil {
		return err
	}
	got, err := SolveZeroSum(m)
	if err != nil {
		return err
	}
	switch {
	case s.pivots != dense.pivots:
		return fmt.Errorf("pivots %d, dense %d", s.pivots, dense.pivots)
	case !slices.Equal(s.basis, dense.basis):
		return fmt.Errorf("basis %v, dense %v", s.basis, dense.basis)
	case got.Value.Cmp(want.Value) != 0:
		return fmt.Errorf("value %v, dense %v", got.Value, want.Value)
	case !sameRats(got.Row, want.Row):
		return fmt.Errorf("row %v, dense %v", got.Row, want.Row)
	case !sameRats(got.Col, want.Col):
		return fmt.Errorf("col %v, dense %v", got.Col, want.Col)
	}
	return nil
}

func TestRevisedMatchesDenseZeroSum(t *testing.T) {
	for name, m := range zeroSumCorpus() {
		if err := diffZeroSum(m); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestRevisedMatchesDenseGameLPs covers the tuple-coverage games. C31 at
// k = 3 costs the dense oracle several seconds, so -short skips it.
func TestRevisedMatchesDenseGameLPs(t *testing.T) {
	for _, tc := range gameCorpus() {
		if testing.Short() && tc.name == "C31/k=3" {
			continue
		}
		if err := diffZeroSum(coveragePayoff(tc.g, tc.k)); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

// TestSolveZeroSumCtxCancelled: a cancelled context stops the simplex at
// its next pivot. On C31 at k = 3 (31 rows, 4,495 columns) the solve
// returns context.Canceled well within a second of the cancel, having
// taken fewer pivots than the full solve.
func TestSolveZeroSumCtxCancelled(t *testing.T) {
	m := coveragePayoff(graph.Cycle(31), 3)
	p, _, err := zeroSumProgram(m)
	if err != nil {
		t.Fatal(err)
	}
	full, err := p.solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := SolveZeroSumCtx(ctx, m); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled solve: err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("pre-cancelled solve took %v", d)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	var cancelledAt time.Time
	time.AfterFunc(2*time.Millisecond, func() { cancelledAt = time.Now(); cancel() })
	s, err := p.solve(ctx)
	returned := time.Now()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-solve cancel: err = %v after %d pivots, want context.Canceled", err, s.pivots)
	}
	if s.pivots >= full.pivots {
		t.Errorf("cancelled solve took %d pivots, the full solve %d", s.pivots, full.pivots)
	}
	if d := returned.Sub(cancelledAt); d > time.Second {
		t.Errorf("solve returned %v after the cancel", d)
	}
}

// FuzzSimplexVsDense drives both engines on small random rational
// programs — negative bounds allowed, so phase one, infeasibility and
// unboundedness all occur — and requires identical outcomes and pivots.
func FuzzSimplexVsDense(f *testing.F) {
	f.Add([]byte{2, 2, 3, 5, 1, 0, 0, 2, 3, 2, 4, 12, 18})
	f.Add([]byte{1, 2, 1, 1, 1, 1, 255, 255, 1, 255})
	f.Add([]byte{3, 3, 0, 200, 17, 9, 44, 130, 7, 7, 7, 250, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			v := data[0]
			data = data[1:]
			return v
		}
		// Entries are small fractions num/den with num in [-4, 4] and den
		// in [1, 3], the shape of the game reductions' payoffs.
		frac := func() *big.Rat {
			v := next()
			return big.NewRat(int64(v%9)-4, int64(1+(v/9)%3))
		}
		n, m := 1+int(next()%5), 1+int(next()%5)
		c := make([]*big.Rat, n)
		for j := range c {
			c[j] = frac()
		}
		a := make([][]*big.Rat, m)
		for i := range a {
			a[i] = make([]*big.Rat, n)
			for j := range a[i] {
				a[i][j] = frac()
			}
		}
		b := make([]*big.Rat, m)
		for i := range b {
			b[i] = frac()
		}
		if err := diffMaximize(c, a, b); err != nil {
			t.Fatal(err)
		}
	})
}
