package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"time"

	"github.com/defender-game/defender/internal/obs"
	"github.com/defender-game/defender/internal/server"
)

// serveSpec fixes one serve workload.
type serveSpec struct {
	name    string
	limitMS float64 // the workload's p99 latency limit
	// capacity is the closed-loop max_rate_rps the seed commit measured
	// on the baseline machine (median of ten runs, baseline.json); the
	// open-loop rates are shares of it.
	capacity float64
	// serialRPS and saturateRPS bound how fast the closed-loop phases can
	// go on one and on every connection; they size those phases' pools
	// of requests.
	serialRPS, saturateRPS float64
	hot                    bool // serve-hot: a primed working set instead of a stream
	stream                 func(rng *rand.Rand, count int) ([]*request, error)
}

// The open loop runs at nominalShare of a workload's capacity. Requests
// wait for one another more the closer the rate comes to capacity, but
// the median latency then also swings with every slow spell of the
// machine. On the 2-vCPU baseline VM, serve-large's latency_p50_ms spread
// (IQR over median, five seeds) was 0.08 at a share of 0.4, 0.14 at 0.5
// and 0.28 at 0.6; 0.4 is the highest share tried that keeps it under a
// third of its 0.25 bound. A traced run also steps through ladderShares
// of the capacity, up to saturation, where the waiting shows.
const nominalShare = 0.4

var ladderShares = []float64{0.6, 0.8, 1.0}

// generatorRate caps every nominal rate, requests per second, at what the
// in-process load generator can keep to. Each of the baseline VM's two
// clients needs at least twice the p99 lateness of Go's timer there
// (2 ms, loadgen.lag_p99_ms) between its due times, or a late wake-up
// pushes its next request past the due time and the generator's own lag
// is charged as latency: 2 / (2 × 2 ms) = 500 rps. At 0.4 of serve-hot's
// capacity (1396 rps) its latency_p50_ms read 0.34–2.2 ms over five seeds.
const generatorRate = 500

// rate is the nominal open-loop rate, requests per second.
func (s serveSpec) rate() float64 { return min(nominalShare*s.capacity, generatorRate) }

// ladder lists the rates, requests per second, a traced run steps through.
func (s serveSpec) ladder() []float64 {
	out := make([]float64, len(ladderShares))
	for i, f := range ladderShares {
		out[i] = f * s.capacity
	}
	return out
}

// The p99 latency limits are stated choices, as no service-level
// objective is recorded for the service: round numbers ten to twenty
// times the p99 each workload reads at its nominal rate on the baseline
// VM, so slo_attainment is 1 there and falls only when a change slows
// requests by an order of magnitude, not with the machine's noise.
var serveSpecs = []serveSpec{
	{name: "serve-hot", limitMS: 100, capacity: 3489, serialRPS: 8000, saturateRPS: 5000, hot: true},
	{name: "serve-lp", limitMS: 1000, capacity: 102.7, serialRPS: 150, saturateRPS: 150, stream: lpStream},
	{name: "serve-large", limitMS: 100, capacity: 600.7, serialRPS: 400, saturateRPS: 700, stream: largeStream},
}

// A run sets up from scratch at least setupReps times, and until
// setupBudget is spent, so a set-up of a few milliseconds is sampled over
// as many seconds of the machine's noise as a slow one. setup_s is the
// median; the last set-up is the one measured. A traced run sets up
// once: set-up time is an end-to-end metric only.
const (
	setupReps   = 5
	setupBudget = 3 * time.Second
)

// setUpAgain reports whether a run that has set up done times, taking
// spent in all, sets up once more.
func setUpAgain(traced bool, done int, spent time.Duration) bool {
	return !traced && (done < setupReps || spent < setupBudget)
}

// phasePlan splits a run's seconds: a short unmeasured warm-up; a
// closed-loop phase on one connection (solve_s); the nominal open-loop
// phase (latency, SLO, CPU and heap); and a closed-loop phase on every
// connection (max_rate_rps). A traced run replaces the last by the rate
// ladder, one rung each.
type phasePlan struct{ warm, serial, nominal, saturate, rung time.Duration }

func planFor(seconds float64) phasePlan {
	s := time.Duration(seconds * float64(time.Second))
	return phasePlan{warm: s / 20, serial: s * 4 / 20, nominal: s * 10 / 20, saturate: s * 5 / 20, rung: s / 10}
}

// serveInputs is every request of one run, by phase, drawn from the seed.
type serveInputs struct {
	hot                             [][2]*request
	warm, serial, nominal, saturate []*request
	rungs                           [][]*request // traced runs only
}

func genServeInputs(spec serveSpec, seed int64, plan phasePlan, traced bool) (serveInputs, error) {
	count := func(rate float64, d time.Duration) int { return max(1, int(rate*d.Seconds())) }
	sizes := []int{count(spec.rate(), plan.warm), count(spec.serialRPS, plan.serial), count(spec.rate(), plan.nominal), count(spec.saturateRPS, plan.saturate)}
	if traced {
		for _, rate := range spec.ladder() {
			sizes = append(sizes, count(rate, plan.rung))
		}
	}
	total := 0
	for _, n := range sizes {
		total += n
	}
	rng := rand.New(rand.NewSource(seed))
	var in serveInputs
	var all []*request
	if spec.hot {
		set, err := hotSet(rng)
		if err != nil {
			return in, err
		}
		in.hot, all = set, hotStream(rng, set, total)
	} else {
		var err error
		if all, err = spec.stream(rng, total); err != nil {
			return in, err
		}
	}
	take := func(n int) []*request {
		out := all[:n]
		all = all[n:]
		return out
	}
	in.warm, in.serial, in.nominal, in.saturate = take(sizes[0]), take(sizes[1]), take(sizes[2]), take(sizes[3])
	for _, n := range sizes[4:] {
		in.rungs = append(in.rungs, take(n))
	}
	return in, nil
}

// serveEnv is the server under test on a loopback listener, plus the
// load generator's clients (one connection each, nproc of them).
type serveEnv struct {
	srv     *server.Server
	hs      *http.Server
	served  chan error
	clients []*client
}

func startServer() (*serveEnv, error) {
	srv := server.New(server.Config{Workers: runtime.NumCPU()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	e := &serveEnv{srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan error, 1)}
	go func() { e.served <- e.hs.Serve(ln) }()
	e.clients = newClients("http://"+ln.Addr().String(), runtime.NumCPU())
	return e, nil
}

func (e *serveEnv) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, c := range e.clients {
		c.close()
	}
	err := e.hs.Shutdown(ctx)
	if serr := <-e.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, e.srv.Close(ctx))
}

// prime solves every working-set graph once through the server and
// records the checked answer each later hit must repeat.
func prime(c *client, set [][2]*request) error {
	for _, pair := range set {
		req := pair[0]
		raw, _, err := c.fetch(req)
		if err != nil {
			return fmt.Errorf("priming %s: %w", req.kind, err)
		}
		fam, err := checkResult(raw, req)
		if err != nil {
			return fmt.Errorf("priming %s: %w", req.kind, err)
		}
		req.hot.result, req.hot.family = append([]byte(nil), raw...), fam
	}
	return nil
}

// setupServe sets up as setUpAgain says and returns the last set-up with
// every set-up's duration in seconds.
func setupServe(spec serveSpec, seed int64, plan phasePlan, traced bool) (*serveEnv, serveInputs, []float64, error) {
	var (
		setups []float64
		spent  time.Duration
	)
	for {
		runtime.GC() // leave the previous set-up's garbage out of this one
		start := time.Now()
		in, err := genServeInputs(spec, seed, plan, traced)
		if err != nil {
			return nil, in, nil, err
		}
		env, err := startServer()
		if err != nil {
			return nil, in, nil, err
		}
		if spec.hot {
			if err := prime(env.clients[0], in.hot); err != nil {
				return nil, in, nil, errors.Join(err, env.stop())
			}
		}
		d := time.Since(start)
		setups, spent = append(setups, d.Seconds()), spent+d
		if !setUpAgain(traced, len(setups), spent) {
			return env, in, setups, nil
		}
		if err := env.stop(); err != nil {
			return nil, in, nil, err
		}
	}
}

// phaseStats summarizes one phase's outcomes against the latency limit.
type phaseStats struct {
	sent, ok, failed, wrong, accepted int
	withinLimit                       int
	p50                               float64 // ms; a failed request counts as never answered
	p99                               tailStat
	lag                               tailStat // how late an idle client sent, ms
	backlog                           bool
	families                          map[string]int
}

// unanswered is the latency charged to a failed request.
var unanswered = float64(requestTimeout) / float64(time.Millisecond)

func summarize(outs []outcome, limitMS float64) phaseStats {
	st := phaseStats{sent: len(outs), families: map[string]int{}}
	lat := latencies(outs)
	lag := []float64{0}
	for i := range outs {
		o := &outs[i]
		if o.woke {
			lag = append(lag, ms(o.sent-o.due))
		}
		if o.accepted {
			st.accepted++
		}
		if o.err != nil {
			st.failed++
			if o.wrong {
				st.wrong++
			}
			continue
		}
		st.ok++
		st.families[o.family]++
		if lat[i] <= limitMS {
			st.withinLimit++
		}
	}
	if len(outs) == 0 {
		return st
	}
	sorted := sortedCopy(lat)
	st.p50, st.p99, st.lag = nearestRank(sorted, 0.5), tail(sorted, 0.99), tail(sortedCopy(lag), 0.99)
	// A growing backlog shows as requests leaving later and later after
	// their due time: compare the last quarter's lateness with the first's.
	if q := len(outs) / 4; q > 0 {
		first, last := make([]float64, q), make([]float64, q)
		for i := 0; i < q; i++ {
			first[i] = ms(outs[i].sent - outs[i].due)
			last[i] = ms(outs[len(outs)-q+i].sent - outs[len(outs)-q+i].due)
		}
		st.backlog = median(last)-median(first) > limitMS/2
	}
	return st
}

func (st phaseStats) pass(limitMS float64) bool {
	return st.failed == 0 && !st.backlog && st.p99.Value <= limitMS
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencies returns every outcome's latency in ms, failures as unanswered.
func latencies(outs []outcome) []float64 {
	out := make([]float64, len(outs))
	for i := range outs {
		out[i] = ms(outs[i].latency())
		if outs[i].err != nil {
			out[i] = unanswered
		}
	}
	return out
}

// windowSamples is the fewest requests a latency window may hold.
const windowSamples = 250

// windowed splits a phase's outcomes (in due order) into up to ten
// consecutive windows of at least windowSamples requests and returns the
// median over windows of each window's p50 and tail percentile: a stall
// of the machine hurts one window instead of the whole figure.
func windowed(outs []outcome, limitMS float64) (p50, p99 float64, w int, one tailStat) {
	w = max(1, min(10, len(outs)/windowSamples))
	var p50s, p99s []float64
	for i := 0; i < w; i++ {
		st := summarize(outs[i*len(outs)/w:(i+1)*len(outs)/w], limitMS)
		p50s, p99s, one = append(p50s, st.p50), append(p99s, st.p99.Value), st.p99
	}
	return median(p50s), median(p99s), w, one
}

// saturationRate is the median, over five equal windows of the phase, of
// correct answers per second.
func saturationRate(outs []outcome, wall time.Duration) float64 {
	const w = 5
	var counts [w]int
	for i := range outs {
		if outs[i].err == nil {
			counts[min(w-1, int(int64(w)*int64(outs[i].done)/int64(wall)))]++
		}
	}
	rates := make([]float64, w)
	for i, c := range counts {
		rates[i] = float64(c) / (wall.Seconds() / w)
	}
	return median(rates)
}

// runServe runs one serve workload: untraced, the end-to-end metrics;
// traced, the per-layer metrics.
func runServe(spec serveSpec, seed int64, seconds float64, traced bool) (*report, error) {
	obs.Default().SetEnabled(true) // as cmd/defenderd runs it
	plan := planFor(seconds)
	env, in, setups, err := setupServe(spec, seed, plan, traced)
	if err != nil {
		return nil, err
	}
	r := &report{workload: spec.name}
	r.logf("# setup_s samples: %.4g", setups)
	r.logf("# setup: %d graphs in the working set; requests: %d serial, %d nominal, %d saturation, ladder %v",
		len(in.hot), len(in.serial), len(in.nominal), len(in.saturate), lens(in.rungs))
	runtime.GC()
	warm := summarize(openLoop(env.clients, in.warm, spec.rate()), spec.limitMS)
	r.addOps(warm.sent, warm.failed, warm.wrong)
	if traced {
		err = traceServe(r, spec, env, in, plan)
	} else {
		r.add("setup_s", median(setups), "s", len(setups), "median set-up: inputs, server start, serve-hot cache priming")
		measureServe(r, spec, env, in, plan)
	}
	return r, errors.Join(err, env.stop())
}

func lens(rs [][]*request) []int {
	out := make([]int, len(rs))
	for i, r := range rs {
		out[i] = len(r)
	}
	return out
}

// measureServe runs the measured phases and reports the end-to-end metrics.
func measureServe(r *report, spec serveSpec, env *serveEnv, in serveInputs, plan phasePlan) {
	heap := startHeapSampler()
	serialOuts, _ := closedLoop(env.clients[:1], in.serial, plan.serial)
	serial := summarize(serialOuts, spec.limitMS)
	logKinds(r, in.serial, serialOuts)
	before := usageNow()
	nomOuts := openLoop(env.clients, in.nominal, spec.rate())
	use := usageNow().since(before)
	peak := heap.stop()
	nom := summarize(nomOuts, spec.limitMS)
	satOuts, satWall := closedLoop(env.clients, in.saturate, plan.saturate)
	sat := summarize(satOuts, spec.limitMS)
	r.addOps(serial.sent+nom.sent+sat.sent, serial.failed+nom.failed+sat.failed, serial.wrong+nom.wrong+sat.wrong)

	p50, p99, w, one := windowed(nomOuts, spec.limitMS)
	r.logf("# nominal workload=%s whole-phase p50=%.4g ms p%.4g=%.4g ms (beyond=%d) lag_p99=%.4g ms backlog=%v", spec.name, nom.p50, 100*nom.p99.Q, nom.p99.Value, nom.p99.Beyond, nom.lag.Value, nom.backlog)
	r.add("latency_p50_ms", p50, "ms", nom.sent, fmt.Sprintf("open loop at %.4g rps from due time; median of %d windows", spec.rate(), w))
	r.show("latency_p99_ms", p99, "ms", nom.sent, fmt.Sprintf("median of %d windows' p%.4g (%d samples beyond each)", w, 100*one.Q, one.Beyond))
	r.show("loadgen.lag_p99_ms", nom.lag.Value, "ms", nom.sent, fmt.Sprintf("lateness of an idle client waking for a due request, p%.4g; left out of latency", 100*nom.lag.Q))
	r.add("slo_attainment", float64(nom.withinLimit)/float64(nom.sent), "ratio", nom.sent, fmt.Sprintf("correct 200 within %.4g ms", spec.limitMS))
	r.add("max_rate_rps", saturationRate(satOuts, satWall), "1/s", sat.sent, fmt.Sprintf("correct answers per second, closed loop on %d connections; median of 5 windows", len(env.clients)))
	r.add("cpu_ms_per_op", ms(use.cpu)/float64(nom.sent), "ms", nom.sent, "process CPU (server and load generator) per nominal request")
	r.add("heap_peak_mb", peak, "MB", 1, "peak heap goal over the closed-loop and nominal phases")
	r.add("solve_s", median(latencies(serialOuts))/1000, "s", serial.sent, "median closed-loop request, one client, idle server")
}
