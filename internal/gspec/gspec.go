// Package gspec parses the compact graph specifications shared by the
// command-line tools (defender, graphgen):
//
//	path:N  cycle:N  complete:N  star:N  kbip:A,B  grid:R,C  hypercube:D
//	petersen  wheel:N  ladder:N  binarytree:LEVELS  caterpillar:S,LEGS
//	gnp:N,P[,SEED]  bip:A,B,P[,SEED]  tree:N[,SEED]  conn:N,P[,SEED]
//	ba:N,ATTACH[,SEED]  ws:N,K,P[,SEED]  g6:STRING (graph6 encoding)
//	@FILE   edge-list file        -   edge list on stdin
//
// Trailing SEED arguments default to 1 when omitted or malformed, so specs
// remain copy-pasteable across runs.
package gspec

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"github.com/defender-game/defender/internal/graph"
)

// Parse resolves a spec into a graph, reading stdin for "-".
func Parse(spec string) (*graph.Graph, error) {
	return parseFrom(spec, os.Stdin)
}

// parseFrom is Parse with an explicit reader backing the "-" spec, for
// testability.
func parseFrom(spec string, stdin io.Reader) (*graph.Graph, error) {
	if spec == "-" {
		return graph.Parse(stdin)
	}
	if rest, ok := strings.CutPrefix(spec, "@"); ok {
		f, err := os.Open(rest)
		if err != nil {
			return nil, fmt.Errorf("gspec: open graph file: %w", err)
		}
		defer f.Close()
		return graph.Parse(f)
	}

	name, argStr, _ := strings.Cut(spec, ":")
	var args []string
	if argStr != "" {
		args = strings.Split(argStr, ",")
	}
	p := &parser{spec: spec, args: args}

	switch name {
	case "path":
		return finish(graph.Path(p.int(0)), p.err)
	case "cycle":
		return finish(graph.Cycle(p.int(0)), p.err)
	case "complete":
		return finish(graph.Complete(p.int(0)), p.err)
	case "star":
		return finish(graph.Star(p.int(0)), p.err)
	case "wheel":
		return finish(graph.Wheel(p.int(0)), p.err)
	case "ladder":
		return finish(graph.Ladder(p.int(0)), p.err)
	case "binarytree":
		return finish(graph.CompleteBinaryTree(p.int(0)), p.err)
	case "kbip":
		return finish(graph.CompleteBipartite(p.int(0), p.int(1)), p.err)
	case "grid":
		return finish(graph.Grid(p.int(0), p.int(1)), p.err)
	case "caterpillar":
		return finish(graph.Caterpillar(p.int(0), p.int(1)), p.err)
	case "hypercube":
		return finish(graph.Hypercube(p.int(0)), p.err)
	case "petersen":
		return graph.Petersen(), nil
	case "gnp":
		return finish(graph.RandomGNP(p.int(0), p.float(1), p.seed(2)), p.err)
	case "bip":
		return finish(graph.RandomBipartite(p.int(0), p.int(1), p.float(2), p.seed(3)), p.err)
	case "tree":
		return finish(graph.RandomTree(p.int(0), p.seed(1)), p.err)
	case "conn":
		return finish(graph.RandomConnected(p.int(0), p.float(1), p.seed(2)), p.err)
	case "ba":
		return finish(graph.BarabasiAlbert(p.int(0), p.int(1), p.seed(2)), p.err)
	case "ws":
		return finish(graph.WattsStrogatz(p.int(0), p.int(1), p.float(2), p.seed(3)), p.err)
	case "g6":
		return graph.ParseGraph6(argStr)
	default:
		return nil, fmt.Errorf("gspec: unknown graph spec %q (try path:N, grid:R,C, ba:N,2, @file, -)", spec)
	}
}

// finish suppresses the partially-built graph when argument parsing
// failed, so callers never see a value alongside an error.
func finish(g *graph.Graph, err error) (*graph.Graph, error) {
	if err != nil {
		return nil, err
	}
	return g, nil
}

// parser accumulates the first argument error while letting generator
// calls read positional arguments fluently. Generators run before the
// error check, but they only ever receive zero values then, and the error
// return suppresses the result.
type parser struct {
	spec string
	args []string
	err  error
}

func (p *parser) raw(i int) (string, bool) {
	if i >= len(p.args) {
		return "", false
	}
	return strings.TrimSpace(p.args[i]), true
}

func (p *parser) int(i int) int {
	s, ok := p.raw(i)
	if !ok {
		p.fail(i, "missing integer argument")
		return 0
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		p.fail(i, "not an integer")
		return 0
	}
	return v
}

func (p *parser) float(i int) float64 {
	s, ok := p.raw(i)
	if !ok {
		p.fail(i, "missing numeric argument")
		return 0
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		p.fail(i, "not a number")
		return 0
	}
	return v
}

// seed is lenient: absent or malformed trailing seeds default to 1.
func (p *parser) seed(i int) int64 {
	s, ok := p.raw(i)
	if !ok {
		return 1
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 1
	}
	return v
}

func (p *parser) fail(i int, msg string) {
	if p.err == nil {
		p.err = fmt.Errorf("gspec: spec %q argument %d: %s", p.spec, i+1, msg)
	}
}
