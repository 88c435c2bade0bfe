package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"github.com/defender-game/defender/internal/core"
	"github.com/defender-game/defender/internal/graph"
)

// timeLift measures one lift invocation.
func timeLift(ne core.EdgeEquilibrium, k int) (time.Duration, core.TupleEquilibrium, error) {
	start := time.Now()
	lifted, err := core.LiftToTupleModel(ne, k)
	return time.Since(start), lifted, err
}

// The paper has no figures; these regenerate its two headline *shapes* as
// plain-text plots: F1, the linear growth of the defender gain in k, and
// F2, the linear growth of Algorithm A_tuple's work in k·n. cmd/experiments
// prints them after the tables with -figures.

// Figure is a rendered plain-text plot plus the self-check flag.
type Figure struct {
	// ID is the figure identifier ("F1", "F2").
	ID string
	// Title is the one-line figure caption.
	Title string
	// Body is the rendered ASCII plot.
	Body string
	// OK reports whether the figure's monotonicity self-check passed.
	OK bool
}

// Series is one labelled polyline of (x, y) points.
type Series struct {
	// Label names the series in the plot legend.
	Label string
	// Points are the (x, y) pairs in drawing order.
	Points [][2]float64
}

// renderASCII draws the series on a width×height character canvas with
// one marker glyph per series and a simple legend. It is intentionally
// minimal: monotone shapes (the only thing the figures assert) survive
// terminal rendering; precise values live in the tables.
func renderASCII(series []Series, width, height int, xLabel, yLabel string) string {
	if width < 16 {
		width = 16
	}
	if height < 6 {
		height = 6
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		for _, p := range s.Points {
			minX, maxX = math.Min(minX, p[0]), math.Max(maxX, p[0])
			minY, maxY = math.Min(minY, p[1]), math.Max(maxY, p[1])
		}
	}
	if math.IsInf(minX, 1) {
		return "(no data)\n"
	}
	// Degenerate (single-valued) ranges get unit width; the negated form
	// avoids float equality and also catches NaN bounds.
	if !(maxX > minX) {
		maxX = minX + 1
	}
	if !(maxY > minY) {
		maxY = minY + 1
	}
	canvas := make([][]byte, height)
	for r := range canvas {
		canvas[r] = []byte(strings.Repeat(" ", width))
	}
	glyphs := []byte{'*', 'o', '+', 'x', '#', '@', '%', '&'}
	for si, s := range series {
		glyph := glyphs[si%len(glyphs)]
		for _, p := range s.Points {
			c := int(math.Round((p[0] - minX) / (maxX - minX) * float64(width-1)))
			r := height - 1 - int(math.Round((p[1]-minY)/(maxY-minY)*float64(height-1)))
			canvas[r][c] = glyph
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", yLabel)
	for r := 0; r < height; r++ {
		y := maxY - (maxY-minY)*float64(r)/float64(height-1)
		fmt.Fprintf(&sb, "%9.2f |%s\n", y, canvas[r])
	}
	fmt.Fprintf(&sb, "%9s +%s\n", "", strings.Repeat("-", width))
	fmt.Fprintf(&sb, "%9s  %-*.2f%*.2f   (%s)\n", "", width/2, minX, width-width/2, maxX, xLabel)
	for si, s := range series {
		fmt.Fprintf(&sb, "  %c %s\n", glyphs[si%len(glyphs)], s.Label)
	}
	return sb.String()
}

// f1GainLinearity plots defender gain against k for several families — the
// paper's headline as a picture. The self-check asserts every series is
// exactly linear through the origin (gain = k · gain(1)).
func f1GainLinearity(cfg Config) (Figure, error) {
	fams := []struct {
		name string
		g    *graph.Graph
	}{
		{"K{4,6}", graph.CompleteBipartite(4, 6)},
		{"grid3x4", graph.Grid(3, 4)},
		{"cycle16", graph.Cycle(16)},
	}
	const nu = 12
	var series []Series
	linear := true
	for _, f := range fams {
		base, err := core.SolveTupleModel(f.g, nu, 1)
		if err != nil {
			return Figure{}, fmt.Errorf("experiments: F1 %s: %w", f.name, err)
		}
		gain1, _ := base.DefenderGain().Float64()
		maxK := len(base.EdgeSupport)
		if cfg.Quick && maxK > 4 {
			maxK = 4
		}
		s := Series{Label: fmt.Sprintf("%s (|IS|=%d)", f.name, len(base.VPSupport))}
		for k := 1; k <= maxK; k++ {
			ne, err := core.SolveTupleModel(f.g, nu, k)
			if err != nil {
				return Figure{}, fmt.Errorf("experiments: F1 %s k=%d: %w", f.name, k, err)
			}
			gain, _ := ne.DefenderGain().Float64()
			s.Points = append(s.Points, [2]float64{float64(k), gain})
			if math.Abs(gain-float64(k)*gain1) > 1e-9 {
				linear = false
			}
		}
		series = append(series, s)
	}
	return Figure{
		ID:    "F1",
		Title: "Defender gain versus power k (exactly linear, Thm 4.5)",
		Body:  renderASCII(series, 56, 14, "k", "IP_tp"),
		OK:    linear,
	}, nil
}

// f2LiftScaling plots Algorithm A_tuple's lift time against k·|EC| on
// cycles — Theorem 4.13's O(k·n) as a picture. The self-check only asserts
// monotone growth of work with k·|EC| at fixed k (timings are noisy).
func f2LiftScaling(cfg Config) (Figure, error) {
	sizes := []int{128, 512, 2048}
	if cfg.Quick {
		sizes = []int{64, 256}
	}
	const k = 8
	s := Series{Label: fmt.Sprintf("lift time at k=%d", k)}
	var deltas []int
	for _, n := range sizes {
		g := graph.Cycle(n)
		edgeNE, err := core.SolveEdgeModel(g, 4)
		if err != nil {
			return Figure{}, fmt.Errorf("experiments: F2 n=%d: %w", n, err)
		}
		elapsed, lifted, err := timeLift(edgeNE, k)
		if err != nil {
			return Figure{}, fmt.Errorf("experiments: F2 n=%d: %w", n, err)
		}
		s.Points = append(s.Points, [2]float64{
			float64(k * len(edgeNE.EdgeSupport)),
			float64(elapsed.Microseconds()),
		})
		deltas = append(deltas, len(lifted.Tuples))
	}
	// Structural self-check: δ grew proportionally with |EC| at fixed k.
	ok := true
	for i := 1; i < len(deltas); i++ {
		if deltas[i] <= deltas[i-1] {
			ok = false
		}
	}
	return Figure{
		ID:    "F2",
		Title: "Algorithm A_tuple lift time versus k·|EC| (O(k·n), Thm 4.13)",
		Body:  renderASCII([]Series{s}, 56, 12, "k·|EC|", "µs"),
		OK:    ok,
	}, nil
}

// Figures lists the figure generators in presentation order.
func Figures() []struct {
	ID  string
	Run func(Config) (Figure, error)
} {
	return []struct {
		ID  string
		Run func(Config) (Figure, error)
	}{
		{"F1", f1GainLinearity},
		{"F2", f2LiftScaling},
	}
}
