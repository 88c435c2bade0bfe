package server

import (
	"bytes"
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
		for i, t := range ne.Tuples {
			m.Tuples[i] = renderEdges(t.Edges(g))
			m.TupleProbs[i] = ne.Profile.TP.Prob(t).RatString()
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

// solvedBufs recycles writeSolved's output buffers.
var solvedBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBody bounds the buffers solvedBufs keeps, so one rare huge
// body does not stay pinned for every later hit.
const maxPooledBody = 1 << 20

// writeSolved writes the 200 body of POST /v1/solve, hit or miss, around
// result, the compact JSON of a SolveResult. The bytes equal those of
// writeJSON(w, http.StatusOK, SolveResponse{...}) without reflecting over
// the result again: json.Indent nests the stored bytes one level deep
// between a fixed prefix and the "cached"/"solve_ms" suffix, and solveMS
// is formatted by json.Marshal as the encoder would.
func writeSolved(w http.ResponseWriter, result []byte, cached bool, solveMS float64) {
	buf := solvedBufs.Get().(*bytes.Buffer)
	buf.WriteString("{\n  \"result\": ")
	// Neither encoding call can fail: result came from json.Marshal, and
	// a latency is a finite float.
	_ = json.Indent(buf, result, "  ", "  ")
	buf.WriteString(",\n  \"cached\": ")
	buf.WriteString(strconv.FormatBool(cached))
	buf.WriteString(",\n  \"solve_ms\": ")
	ms, _ := json.Marshal(solveMS)
	buf.Write(ms)
	buf.WriteString("\n}\n")
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	// A failed write means the client hung up; nothing to do.
	_, _ = w.Write(buf.Bytes())
	if buf.Cap() <= maxPooledBody {
		buf.Reset()
		solvedBufs.Put(buf)
	}
}

// drainBody discards any unread request body so keep-alive connections
// stay reusable.
func drainBody(r *http.Request) {
	// Best effort; the connection is simply not reused on error.
	_, _ = io.Copy(io.Discard, io.LimitReader(r.Body, 1<<16))
}
