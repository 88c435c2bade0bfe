package main

import (
	"sort"
	"time"
)

// stageTimes accumulates the benchmark's own spans around calls into the
// program's public functions: per stage, the wall time, the bytes
// allocated and the number of calls. Stages never nest, so a stage's
// self time is its whole duration.
type stageTimes struct {
	order []string
	dur   map[string]time.Duration
	alloc map[string]uint64
	calls map[string]int
}

func newStageTimes() *stageTimes {
	return &stageTimes{dur: map[string]time.Duration{}, alloc: map[string]uint64{}, calls: map[string]int{}}
}

func (s *stageTimes) run(name string, fn func() error) error {
	if _, seen := s.calls[name]; !seen {
		s.order = append(s.order, name)
	}
	a := allocBytes()
	t := time.Now()
	err := fn()
	s.dur[name] += time.Since(t)
	s.alloc[name] += allocBytes() - a
	s.calls[name]++
	return err
}

func (s *stageTimes) total() time.Duration {
	var t time.Duration
	for _, d := range s.dur {
		t += d
	}
	return t
}

// perOp is a duration total spread over n operations, in ms.
func perOp(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return ms(d) / float64(n)
}

// budgetLine is one row of a stage budget: a stage's self time per
// operation and its share of the blocking path.
type budgetLine struct {
	stage  string
	selfMS float64
}

// logBudget prints a stage budget, largest self time first, with each
// stage's share of totalMS and what no stage accounts for.
func logBudget(r *report, lines []budgetLine, totalMS float64, what string) {
	sort.Slice(lines, func(i, j int) bool { return lines[i].selfMS > lines[j].selfMS })
	sum := 0.0
	for _, l := range lines {
		sum += l.selfMS
		r.logf("# budget workload=%s stage=%s self_ms=%.6g share=%.2f%%", r.workload, l.stage, l.selfMS, 100*l.selfMS/totalMS)
	}
	r.logf("# budget workload=%s stage=unattributed self_ms=%.6g share=%.2f%% (%s)", r.workload, totalMS-sum, 100*(totalMS-sum)/totalMS, what)
}
