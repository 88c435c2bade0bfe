// Command defender computes and inspects Nash equilibria of the Tuple
// model ("The Power of the Defender", ICDCS 2006) on a graph.
//
// Usage:
//
//	defender info      <graph-spec>
//	defender solve     <graph-spec> [-nu N] [-k K] [-v] [-json] [-any]
//	defender pure      <graph-spec> [-nu N] [-k K]
//	defender sim       <graph-spec> [-nu N] [-k K] [-rounds R] [-seed S]
//	defender dot       <graph-spec> [-nu N] [-k K]
//	defender check     <graph-spec> -profile FILE
//	defender value     <graph-spec> [-k K]
//	defender learn     <graph-spec> [-rounds R]
//	defender partition <graph-spec>
//
// Graph specs are parsed by internal/gspec: path:N cycle:N complete:N
// star:N wheel:N ladder:N kbip:A,B grid:R,C hypercube:D binarytree:L
// caterpillar:S,L petersen gnp:N,P[,SEED] bip:A,B,P[,SEED] tree:N[,SEED]
// conn:N,P[,SEED] ba:N,ATTACH[,SEED] ws:N,K,P[,SEED] g6:STRING,
// @file (edge list), or "-" for stdin.
//
// Every subcommand also accepts the observability flags of
// OBSERVABILITY.md: -metrics dumps the metrics snapshot to stderr on
// exit, -debug-addr serves /metrics, expvar and net/http/pprof while the
// command runs, and -trace-out streams span events as JSONL.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"github.com/defender-game/defender/internal/core"
	"github.com/defender-game/defender/internal/cover"
	"github.com/defender-game/defender/internal/dynamics"
	"github.com/defender-game/defender/internal/game"
	"github.com/defender-game/defender/internal/graph"
	"github.com/defender-game/defender/internal/gspec"
	"github.com/defender-game/defender/internal/matching"
	"github.com/defender-game/defender/internal/obs"
	"github.com/defender-game/defender/internal/sim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "defender:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) < 2 {
		usage()
		return errors.New("expected a subcommand and a graph spec")
	}
	sub, spec := args[0], args[1]
	fs := flag.NewFlagSet(sub, flag.ContinueOnError)
	var (
		nu        = fs.Int("nu", 4, "number of attackers ν")
		k         = fs.Int("k", 1, "defender power: edges per tuple")
		rounds    = fs.Int("rounds", 20000, "Monte-Carlo or learning rounds (sim, learn)")
		seed      = fs.Int64("seed", 1, "random seed (sim)")
		verbose   = fs.Bool("v", false, "print full distributions (solve)")
		jsonOut   = fs.Bool("json", false, "emit the equilibrium profile as JSON (solve)")
		profile   = fs.String("profile", "", "JSON profile file to verify (check)")
		anyFam    = fs.Bool("any", false, "solve: fall back to any equilibrium family (perfect-matching, regular, LP minimax)")
		metrics   = fs.Bool("metrics", false, "dump the metrics snapshot as JSON to stderr on exit")
		debugAddr = fs.String("debug-addr", "", "serve /metrics, expvar and pprof on this address while running (e.g. localhost:6060)")
		traceOut  = fs.String("trace-out", "", "stream span events as JSONL to this file")
	)
	if err := fs.Parse(args[2:]); err != nil {
		return err
	}
	reg := obs.Default()
	reg.SetEnabled(true)
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
		reg.SetTraceWriter(f)
		defer func() {
			reg.SetTraceWriter(nil)
			f.Close()
		}()
	}
	if *debugAddr != "" {
		addr, err := obs.StartDebugServer(*debugAddr, reg)
		if err != nil {
			return fmt.Errorf("debug-addr: %w", err)
		}
		fmt.Fprintf(os.Stderr, "debug server listening on http://%s (/metrics, /debug/pprof/, /debug/vars)\n", addr)
	}
	if *metrics {
		defer func() {
			// lint:invariant(errlost): exit-time metrics dump to stderr; nothing can act on a failure here
			_ = reg.Snapshot().WriteJSON(os.Stderr)
		}()
	}
	g, err := gspec.Parse(spec)
	if err != nil {
		return err
	}

	switch sub {
	case "info":
		return cmdInfo(g)
	case "solve":
		return cmdSolve(g, *nu, *k, *verbose, *jsonOut, *anyFam)
	case "pure":
		return cmdPure(g, *nu, *k)
	case "sim":
		return cmdSim(g, *nu, *k, *rounds, *seed)
	case "dot":
		return cmdDOT(g, *nu, *k)
	case "check":
		return cmdCheck(g, *profile)
	case "value":
		return cmdValue(g, *k)
	case "learn":
		return cmdLearn(g, *rounds)
	case "partition":
		return cmdPartition(g)
	default:
		usage()
		return fmt.Errorf("unknown subcommand %q", sub)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: defender <info|solve|pure|sim|dot|check|value|learn|partition> <graph-spec> [flags]
graph specs: path:N cycle:N complete:N star:N wheel:N ladder:N kbip:A,B
             grid:R,C hypercube:D binarytree:L caterpillar:S,L petersen
             gnp:N,P[,SEED] bip:A,B,P[,SEED] tree:N[,SEED] conn:N,P[,SEED]
             ba:N,ATTACH[,SEED] ws:N,K,P[,SEED] @file -
subcommands:
  info       structure + equilibrium existence report
  solve      compute & verify a k-matching NE (-json to emit the profile)
  pure       pure-equilibrium frontier (Thm 3.1)
  sim        Monte-Carlo playout of the equilibrium
  dot        Graphviz rendering with the defense support bolded
  check      verify a JSON profile (-profile FILE) as an exact NE
  value      exact minimax value via the LP oracle (ν=1)
  learn      fictitious play + multiplicative weights on the Edge model
  partition  the Cor 4.11 certificate: IS, VC and the SDR witness`)
}

func cmdPartition(g *graph.Graph) error {
	p, err := cover.FindNEPartition(g)
	if err != nil {
		return err
	}
	fmt.Printf("independent set IS (%d vertices): %v\n", len(p.IS), p.IS)
	fmt.Printf("vertex cover VC (%d vertices):   %v\n", len(p.VC), p.VC)
	fmt.Println("expander witness (VC vertex -> IS representative):")
	for _, v := range p.VC {
		fmt.Printf("  %d -> %d\n", v, p.Rep[v])
	}
	fmt.Printf("Π_k(G) admits a k-matching NE for every k <= %d (Cor 4.11)\n", len(p.IS))
	if g.NumVertices() <= 24 {
		if count, err := cover.CountNEPartitions(g); err == nil {
			fmt.Printf("distinct maximal equilibrium partitions: %d\n", count)
		}
	}
	return nil
}

func cmdInfo(g *graph.Graph) error {
	fmt.Printf("vertices: %d\nedges:    %d\n", g.NumVertices(), g.NumEdges())
	fmt.Printf("connected: %v\nbipartite: %v\n", g.IsConnected(), g.IsBipartite())
	if ok, d := g.IsRegular(); ok {
		fmt.Printf("regular:   true (degree %d)\n", d)
	} else {
		fmt.Printf("regular:   false (degrees %d..%d)\n", g.MinDegree(), g.MaxDegree())
	}
	if g.HasIsolatedVertex() {
		fmt.Println("WARNING: graph has isolated vertices; the Tuple model is undefined on it")
		return nil
	}
	// One maximum matching gives both ρ(G) = n − ν(G) (Gallai) and the
	// Cor 4.11 partition.
	mate := matching.Maximum(g)
	rho := g.NumVertices() - matching.Size(mate)
	fmt.Printf("edge-cover number ρ(G): %d  (pure NE exists iff k >= %d, Thm 3.1)\n", rho, rho)

	p, err := cover.FindNEPartitionFromMatching(g, mate)
	switch {
	case err == nil:
		fmt.Printf("k-matching NE: YES — partition |IS|=%d |VC|=%d (Cor 4.11)\n", len(p.IS), len(p.VC))
		fmt.Printf("  defender gain at power k: k·ν/%d;  per-attacker arrest probability: k/%d\n", len(p.IS), len(p.IS))
	case errors.Is(err, cover.ErrNoPartition):
		fmt.Println("k-matching NE: NO — no independent-set/expander partition exists (Cor 4.11)")
	default:
		return err
	}
	return nil
}

func cmdSolve(g *graph.Graph, nu, k int, verbose, jsonOut, anyFam bool) error {
	var (
		ne     core.TupleEquilibrium
		family = "k-matching"
		err    error
	)
	if anyFam {
		ne, family, err = core.SolveAny(g, nu, k)
	} else {
		ne, err = core.SolveTupleModel(g, nu, k)
	}
	if err != nil {
		return err
	}
	if err := core.VerifyNE(ne.Game, ne.Profile); err != nil {
		return fmt.Errorf("internal: produced profile failed verification: %w", err)
	}
	if jsonOut {
		data, err := ne.Game.EncodeProfile(ne.Profile)
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return nil
	}
	fmt.Printf("%s mixed Nash equilibrium of Π_%d(G), ν=%d\n", family, k, nu)
	fmt.Printf("attacker support D(VP) (|IS|=%d): %v\n", len(ne.VPSupport), ne.VPSupport)
	fmt.Printf("edge support E(D(tp)) (%d edges): %v\n", len(ne.EdgeSupport), ne.EdgeSupport)
	if family == "lp-minimax" {
		fmt.Printf("defender tuples |D(tp)|: %d (LP minimax probabilities)\n", len(ne.Tuples))
	} else {
		fmt.Printf("defender tuples δ=|D(tp)|: %d, each with probability 1/%d\n", len(ne.Tuples), len(ne.Tuples))
	}
	if verbose {
		for i, t := range ne.Tuples {
			fmt.Printf("  t%-3d %v  p=%s\n", i+1, t.Edges(g), ne.Profile.TP.Prob(t).RatString())
		}
	}
	fmt.Printf("defender gain IP_tp = %s\n", ne.DefenderGain().RatString())
	if family == "k-matching" {
		fmt.Printf("per-attacker arrest probability = %s  (= k/|E(D(tp))|)\n", ne.HitProbability().RatString())
	}
	fmt.Println("verified: exact Nash equilibrium (Theorem 3.4 conditions)")
	return nil
}

func cmdPure(g *graph.Graph, nu, k int) error {
	has, err := core.HasPureNE(g, k)
	if err != nil {
		return err
	}
	if !has {
		rho, err := cover.EdgeCoverNumber(g)
		if err != nil {
			return fmt.Errorf("no pure NE for k=%d and no edge cover exists: %w", k, err)
		}
		fmt.Printf("no pure NE for k=%d: edge-cover number is %d (Thm 3.1)\n", k, rho)
		if g.NumVertices() >= 2*k+1 {
			fmt.Printf("(also forced by Cor 3.3: n=%d >= 2k+1=%d)\n", g.NumVertices(), 2*k+1)
		}
		return nil
	}
	gm, p, err := core.BuildPureNE(g, nu, k)
	if err != nil {
		return err
	}
	fmt.Printf("pure NE exists for k=%d (Thm 3.1)\n", k)
	fmt.Printf("defender tuple (an edge cover of size %d): %v\n", k, p.TupleChoice.Edges(g))
	fmt.Printf("defender profit: %d of ν=%d attackers caught wherever they stand\n", gm.ProfitTP(p), nu)
	return nil
}

func cmdSim(g *graph.Graph, nu, k, rounds int, seed int64) error {
	ne, err := core.SolveTupleModel(g, nu, k)
	if err != nil {
		return err
	}
	res, err := sim.Run(ne.Game, ne.Profile, rounds, seed)
	if err != nil {
		return err
	}
	fmt.Printf("simulated %d rounds of the k-matching equilibrium (seed %d)\n", res.Rounds, seed)
	fmt.Printf("exact expected catch:    %.6f\n", res.ExpectedCaught)
	fmt.Printf("empirical mean catch:    %.6f  (std err %.6f, z = %+.2f)\n", res.MeanCaught, res.StdErr, res.ZScore())
	hit, _ := ne.HitProbability().Float64()
	fmt.Printf("predicted escape rate:   %.6f per attacker\n", 1-hit)
	lo, hi := res.EscapeRate[0], res.EscapeRate[0]
	for _, r := range res.EscapeRate[1:] {
		if r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	fmt.Printf("empirical escape rates:  %.6f .. %.6f\n", lo, hi)
	return nil
}

func cmdCheck(g *graph.Graph, profilePath string) error {
	if profilePath == "" {
		return errors.New("check requires -profile FILE")
	}
	data, err := os.ReadFile(profilePath)
	if err != nil {
		return fmt.Errorf("read profile: %w", err)
	}
	gm, mp, err := game.DecodeProfile(g, data)
	if err != nil {
		return err
	}
	fmt.Printf("profile: Π_%d(G) with ν=%d, |D(VP)|=%d, |D(tp)|=%d\n",
		gm.K(), gm.Attackers(), len(mp.SupportUnionVP()), mp.TP.SupportSize())
	if err := core.VerifyNE(gm, mp); err != nil {
		if errors.Is(err, core.ErrNotEquilibrium) {
			fmt.Printf("NOT a Nash equilibrium: %v\n", err)
			if reg, rerr := core.ComputeRegret(gm, mp); rerr == nil {
				fmt.Printf("deviation incentives: attacker max %s, defender %s\n",
					reg.MaxAttacker().RatString(), reg.Defender.RatString())
			}
			return errors.New("verification failed")
		}
		return err
	}
	fmt.Printf("exact Nash equilibrium ✓ (defender gain %s)\n",
		gm.ExpectedProfitTP(mp).RatString())
	return nil
}

func cmdValue(g *graph.Graph, k int) error {
	value, tuples, probs, err := core.GameValue(g, k)
	if err != nil {
		return err
	}
	fmt.Printf("minimax value of Π_%d(G) with one attacker: %s\n", k, value.RatString())
	fmt.Println("(the probability an optimal defender catches an optimal attacker)")
	support := 0
	for _, p := range probs {
		if p.Sign() > 0 {
			support++
		}
	}
	fmt.Printf("optimal defender support: %d of %d tuples\n", support, len(tuples))
	return nil
}

func cmdLearn(g *graph.Graph, rounds int) error {
	fp, err := dynamics.FictitiousPlay(g, rounds)
	if err != nil {
		return err
	}
	lo, _ := fp.LowerBound.Float64()
	hi, _ := fp.UpperBound.Float64()
	fmt.Printf("fictitious play, %d rounds: value ∈ [%.5f, %.5f] (exact bounds %s .. %s)\n",
		fp.Rounds, lo, hi, fp.LowerBound.RatString(), fp.UpperBound.RatString())
	mw, err := dynamics.MultiplicativeWeights(g, rounds, 0)
	if err != nil {
		return err
	}
	fmt.Printf("multiplicative weights, %d rounds: value ∈ [%.5f, %.5f]\n",
		mw.Rounds, mw.LowerBound, mw.UpperBound)
	if value, _, _, err := core.GameValue(g, 1); err == nil {
		fmt.Printf("LP oracle (exact):       value = %s\n", value.RatString())
	}
	return nil
}

func cmdDOT(g *graph.Graph, nu, k int) error {
	ne, err := core.SolveTupleModel(g, nu, k)
	if err != nil {
		// Fall back to a plain rendering when no equilibrium exists.
		fmt.Print(g.DOT("G", nil))
		return nil
	}
	fmt.Print(g.DOT("G", ne.EdgeSupport))
	return nil
}
