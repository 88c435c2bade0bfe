package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"github.com/defender-game/defender/internal/core"
	"github.com/defender-game/defender/internal/game"
	"github.com/defender-game/defender/internal/graph"
	"github.com/defender-game/defender/internal/matching"
	"github.com/defender-game/defender/internal/rat"
)

// maxRenderedTuples caps the defender-support enumeration included in a
// response body: an lp-minimax support can hold thousands of tuples, and
// the full list belongs in a follow-up endpoint, not every solve
// response. The count is always reported.
const maxRenderedTuples = 512

// apiError is an error with its HTTP mapping attached; every handler
// failure path funnels through one.
type apiError struct {
	status  int
	code    string
	message string
}

func (e *apiError) Error() string { return e.code + ": " + e.message }

func errBad(status int, code, format string, args ...any) *apiError {
	return &apiError{status: status, code: code, message: fmt.Sprintf(format, args...)}
}

// decodeSolveRequest reads and validates the body of POST /v1/solve up to
// the graph-independent checks. The body is capped at maxBody bytes and
// unknown fields are rejected, so contract drift fails loudly.
func decodeSolveRequest(w http.ResponseWriter, r *http.Request, maxBody int64) (*SolveRequest, *apiError) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	dec.DisallowUnknownFields()
	var req SolveRequest
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, errBad(http.StatusRequestEntityTooLarge, CodeBodyTooLarge,
				"request body exceeds %d bytes", tooLarge.Limit)
		}
		return nil, errBad(http.StatusBadRequest, CodeBadRequest, "invalid JSON body: %v", err)
	}
	if dec.More() {
		return nil, errBad(http.StatusBadRequest, CodeBadRequest, "trailing data after the request object")
	}
	if req.Attackers == 0 {
		req.Attackers = 1
	}
	if req.Attackers < 1 {
		return nil, errBad(http.StatusUnprocessableEntity, CodeBadAttackers,
			"attackers must be >= 1, got %d", req.Attackers)
	}
	if req.TimeoutMS < 0 {
		return nil, errBad(http.StatusBadRequest, CodeBadRequest, "timeout_ms must be >= 0")
	}
	return &req, nil
}

// buildGraph materializes the request's graph and its canonical graph6
// key, enforcing the server's size cap and the model's validity rules
// (no isolated vertices, 1 <= k <= m). A graph6 request's key is its own
// trimmed string, which ParseGraph6's strictness makes canonical; an edge
// list is encoded with FormatGraph6.
func buildGraph(req *SolveRequest, maxVertices int) (*graph.Graph, string, *apiError) {
	hasG6 := req.Graph6 != ""
	hasEdges := req.N != 0 || len(req.Edges) != 0
	if hasG6 == hasEdges {
		return nil, "", errBad(http.StatusBadRequest, CodeBadRequest,
			"exactly one of graph6 or n+edges must be given")
	}
	var g *graph.Graph
	if hasG6 {
		// Refuse an oversized graph from its header, before the O(n²)
		// decode: a body under MaxBodyBytes can declare thousands of
		// vertices, and this runs outside the broker's bounded pool.
		if n, err := graph.Graph6Order(req.Graph6); err == nil && n > maxVertices {
			return nil, "", errBad(http.StatusUnprocessableEntity, CodeGraphTooLarge,
				"n=%d exceeds the server cap of %d vertices", n, maxVertices)
		}
		parsed, err := graph.ParseGraph6(req.Graph6)
		if err != nil {
			return nil, "", errBad(http.StatusBadRequest, CodeBadGraph6, "%v", err)
		}
		g = parsed
	} else {
		if req.N < 1 {
			return nil, "", errBad(http.StatusBadRequest, CodeBadGraph, "n must be >= 1, got %d", req.N)
		}
		if req.N > maxVertices {
			return nil, "", errBad(http.StatusUnprocessableEntity, CodeGraphTooLarge,
				"n=%d exceeds the server cap of %d vertices", req.N, maxVertices)
		}
		built := graph.New(req.N)
		for _, e := range req.Edges {
			if err := built.AddEdge(e[0], e[1]); err != nil {
				return nil, "", errBad(http.StatusBadRequest, CodeBadGraph, "edge [%d,%d]: %v", e[0], e[1], err)
			}
		}
		g = built
	}
	if g.HasIsolatedVertex() {
		return nil, "", errBad(http.StatusUnprocessableEntity, CodeIsolatedVertex,
			"the Tuple model is undefined on graphs with isolated vertices")
	}
	if req.K < 1 || req.K > g.NumEdges() {
		return nil, "", errBad(http.StatusUnprocessableEntity, CodeBadK,
			"k must satisfy 1 <= k <= m=%d, got %d", g.NumEdges(), req.K)
	}
	if hasG6 {
		return g, graph.TrimGraph6(req.Graph6), nil
	}
	g6, err := graph.FormatGraph6(g)
	if err != nil {
		// Unreachable under the vertex cap; keep the contract total.
		return nil, "", errBad(http.StatusUnprocessableEntity, CodeGraphTooLarge, "%v", err)
	}
	return g, g6, nil
}

// solveErr maps a solver failure to its API shape.
func solveErr(err error) *apiError {
	switch {
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		return errBad(http.StatusGatewayTimeout, CodeTimeout, "solve exceeded its deadline")
	case errors.Is(err, core.ErrValueTooLarge):
		return errBad(http.StatusUnprocessableEntity, CodeTooLarge, "%v", err)
	case errors.Is(err, game.ErrBadK):
		return errBad(http.StatusUnprocessableEntity, CodeBadK, "%v", err)
	case errors.Is(err, game.ErrIsolatedVertex):
		return errBad(http.StatusUnprocessableEntity, CodeIsolatedVertex, "%v", err)
	default:
		return errBad(http.StatusInternalServerError, CodeInternal, "solve failed: %v", err)
	}
}

// solve runs the full pipeline for one instance: edge-cover number and
// pure-NE existence (Theorem 3.1), a verified mixed equilibrium
// (core.SolveAny), and the exact ν=1 game value — by LP oracle when the
// tuple space is enumerable, else by the structured equilibrium's closed
// form (Claim 4.3). One blossom maximum matching M serves the whole
// request: ρ(G) = n − |M| by Gallai's identity (buildGraph has rejected
// isolated vertices), and the same mate array feeds the k-matching and
// perfect-matching families. An lp-minimax equilibrium already carries
// the LP's value, so that family solves one LP per request, not two. It
// runs on a broker worker; ctx is observed between stages and at every
// simplex pivot, so an expired request frees its worker.
func solve(ctx context.Context, g *graph.Graph, g6 string, k, attackers int) (*SolveResult, error) {
	res := &SolveResult{
		Graph6:    g6,
		N:         g.NumVertices(),
		M:         g.NumEdges(),
		K:         k,
		Attackers: attackers,
	}
	mate := matching.MaximumCtx(ctx, g)
	res.Rho = g.NumVertices() - matching.Size(mate)
	res.PureNE = k >= res.Rho
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	ne, family, err := core.SolveAnyFromMatchingCtx(ctx, g, mate, attackers, k)
	switch {
	case err == nil:
		res.MixedNE = renderMixedNE(g, ne, family, res)
	case errors.Is(err, core.ErrValueTooLarge):
		res.Notes = append(res.Notes,
			"no structured equilibrium family applies and the tuple space exceeds the LP enumeration budget; mixed_ne unavailable")
	default:
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	if ne.LPValue != nil {
		res.GameValue = ne.LPValue.RatString()
		res.GameValueSource = "lp"
	} else if value, _, _, err := core.GameValueCtx(ctx, g, k); err == nil {
		res.GameValue = value.RatString()
		res.GameValueSource = "lp"
	} else if !errors.Is(err, core.ErrValueTooLarge) {
		return nil, err
	} else if res.MixedNE != nil && (family == "k-matching" || family == "perfect-matching") {
		// Claim 4.3: in these families every support vertex lies on
		// exactly one support edge, so the per-attacker arrest
		// probability k/|E(D(tp))| is the constant-sum game's value.
		res.GameValue = ne.HitProbability().RatString()
		res.GameValueSource = "closed-form"
	} else {
		res.Notes = append(res.Notes,
			"tuple space exceeds the LP enumeration budget and no closed form applies; game_value unavailable")
	}
	return res, nil
}

// renderMixedNE shapes a verified equilibrium for the wire.
func renderMixedNE(g *graph.Graph, ne core.TupleEquilibrium, family string, res *SolveResult) *MixedNE {
	m := &MixedNE{
		Family:       family,
		VPSupport:    append([]int{}, ne.VPSupport...),
		EdgeSupport:  renderEdges(ne.EdgeSupport),
		TupleCount:   len(ne.Tuples),
		DefenderGain: ne.DefenderGain().RatString(),
	}
	if family == "k-matching" || family == "perfect-matching" {
		m.HitProbability = ne.HitProbability().RatString()
	}
	if len(ne.Tuples) <= maxRenderedTuples {
		m.Tuples = make([][][2]int, len(ne.Tuples))
		m.TupleProbs = make([]string, len(ne.Tuples))
		// Every support tuple has k edges: one backing array holds them
		// all. Each distinct probability is formatted once; a uniform
		// strategy has one.
		k := ne.Game.K()
		cells := make([][2]int, k*len(ne.Tuples))
		formatted := make(map[rat.Rat]string, 1)
		var ids []int
		for i, t := range ne.Tuples {
			ids = t.AppendIDs(ids[:0])
			row := cells[i*k : i*k+len(ids) : i*k+len(ids)]
			for j, id := range ids {
				e := g.EdgeByID(id)
				row[j] = [2]int{e.U, e.V}
			}
			m.Tuples[i] = row
			p := ne.Profile.TP.ProbRat(t)
			str, ok := formatted[p]
			if !ok {
				str = p.String()
				formatted[p] = str
			}
			m.TupleProbs[i] = str
		}
	} else {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"defender support holds %d tuples, above the %d-tuple rendering cap; tuples/tuple_probs elided",
			len(ne.Tuples), maxRenderedTuples))
	}
	return m
}

func renderEdges(edges []graph.Edge) [][2]int {
	out := make([][2]int, len(edges))
	for i, e := range edges {
		out[i] = [2]int{e.U, e.V}
	}
	return out
}

// writeJSON writes v as a JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// A failed write means the client hung up; nothing to do.
	_ = enc.Encode(v)
}

// solvedBufs recycles writeSolved's output buffers. Each grows by append
// to the largest body it has held.
var solvedBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBody bounds the buffers solvedBufs keeps, so one rare huge
// body does not stay pinned for every later hit.
const maxPooledBody = 1 << 20

// writeSolved writes the 200 body of POST /v1/solve, hit or miss, around
// result, the compact JSON of a SolveResult. The bytes equal those of
// writeJSON(w, http.StatusOK, SolveResponse{...}) without reflecting over
// the result again: appendIndent nests the stored bytes one level deep
// between a fixed prefix and the "cached"/"solve_ms" suffix, and solveMS
// is formatted by json.Marshal as the encoder would.
func writeSolved(w http.ResponseWriter, result []byte, cached bool, solveMS float64) {
	pooled := solvedBufs.Get().(*[]byte)
	buf := append((*pooled)[:0], "{\n  \"result\": "...)
	buf = appendIndent(buf, result, "  ", "  ")
	buf = append(buf, ",\n  \"cached\": "...)
	buf = strconv.AppendBool(buf, cached)
	buf = append(buf, ",\n  \"solve_ms\": "...)
	// A latency is a finite float, which json.Marshal always encodes.
	ms, _ := json.Marshal(solveMS)
	buf = append(buf, ms...)
	buf = append(buf, "\n}\n"...)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	// A failed write means the client hung up; nothing to do.
	_, _ = w.Write(buf)
	if cap(buf) <= maxPooledBody {
		*pooled = buf
		solvedBufs.Put(pooled)
	}
}

// appendIndent appends src indented as json.Indent(dst, src, prefix,
// indent) would, byte for byte, without validating it: src must be valid
// JSON with no insignificant whitespace, as json.Marshal writes it. Only
// the structural bytes outside strings, {}[],:, change the layout, so the
// indenter tracks string state and copies every other byte unchanged.
func appendIndent(dst, src []byte, prefix, indent string) []byte {
	// line is a newline, the prefix and the indents of the deepest level
	// reached so far; a line break at depth d appends a prefix of it.
	line := []byte("\n" + prefix)
	newline := func(dst []byte, depth int) []byte {
		n := 1 + len(prefix) + depth*len(indent)
		for len(line) < n {
			line = append(line, indent...)
		}
		return append(dst, line[:n]...)
	}
	depth := 0
	// needIndent defers the newline after an opening bracket, so that an
	// empty object or array stays {} or [], as json.Indent writes it.
	needIndent := false
	for i := 0; i < len(src); i++ {
		c := src[i]
		if needIndent && c != '}' && c != ']' {
			needIndent = false
			depth++
			dst = newline(dst, depth)
		}
		switch c {
		case '"':
			// Copy the string through its closing quote; a backslash
			// escapes the byte after it, so \" does not end the string.
			j := i + 1
			for src[j] != '"' {
				if src[j] == '\\' {
					j++
				}
				j++
			}
			dst = append(dst, src[i:j+1]...)
			i = j
		case '{', '[':
			needIndent = true
			dst = append(dst, c)
		case ',':
			dst = append(dst, c)
			dst = newline(dst, depth)
		case ':':
			dst = append(dst, c, ' ')
		case '}', ']':
			if needIndent {
				needIndent = false
			} else {
				depth--
				dst = newline(dst, depth)
			}
			dst = append(dst, c)
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// drainBody discards any unread request body so keep-alive connections
// stay reusable.
func drainBody(r *http.Request) {
	// Best effort; the connection is simply not reused on error.
	_, _ = io.Copy(io.Discard, io.LimitReader(r.Body, 1<<16))
}
