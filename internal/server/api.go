// Package server implements the defender-as-a-service HTTP/JSON API of
// cmd/defenderd: POST /v1/solve accepts a graph (edge list or graph6) and
// a defender power k, and returns Nash-equilibrium existence, the
// defender's mixed strategy, and the exact game value with every rational
// rendered as a "p/q" string. Solves that outrun the synchronous wait
// window return a 202 job handle polled at GET /v1/jobs/{id}.
//
// Requests flow through a bounded worker broker
// (internal/server/broker) in front of a graph6-keyed response cache, so
// N requests for one graph cost one solve plus N-1 cache hits, and
// overload sheds as 429 + Retry-After instead of queueing unboundedly.
// The wire contract is pinned by golden request/response pairs under
// testdata/golden and fuzzed end-to-end by FuzzServeSolve.
package server

// api.go defines the wire contract: every request and response body of
// the /v1 API. Fields marked "p/q" carry exact rationals rendered with
// math/big.Rat.RatString ("2/3", or "1" for integers) — the service
// never converts game values to floating point.

import "github.com/defender-game/defender/internal/obs"

// TraceHeader is the request/response header carrying the request's
// trace ID. Every response sets it; a request may supply its own valid
// (32 lowercase hex) ID to correlate client-side records with the
// server's span JSONL — see TRACING.md.
const TraceHeader = "X-Defender-Trace-Id"

// SolveRequest is the body of POST /v1/solve. Exactly one of Graph6 or
// (N, Edges) must describe the graph.
type SolveRequest struct {
	// Graph6 is the graph in canonical graph6 encoding.
	Graph6 string `json:"graph6,omitempty"`
	// N and Edges give the graph as an explicit edge list on vertices
	// 0..n-1.
	N     int      `json:"n,omitempty"`
	Edges [][2]int `json:"edges,omitempty"`
	// K is the defender power: edges per tuple, 1 <= k <= m.
	K int `json:"k"`
	// Attackers is the number of vertex players ν (default 1).
	Attackers int `json:"attackers,omitempty"`
	// TimeoutMS optionally lowers the server's per-solve deadline.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// MixedNE is the defender's side of a verified mixed Nash equilibrium.
type MixedNE struct {
	// Family is the construction that produced the equilibrium:
	// "k-matching", "perfect-matching", "regular" or "lp-minimax".
	Family string `json:"family"`
	// VPSupport is D(VP), the common attacker support.
	VPSupport []int `json:"vp_support"`
	// EdgeSupport is E(D(tp)), the distinct edges of support tuples.
	EdgeSupport [][2]int `json:"edge_support"`
	// TupleCount is |D(tp)|. Tuples and TupleProbs enumerate the support
	// tuples (each tuple a list of edges) with their probabilities
	// ("p/q"); both are omitted when the support exceeds the rendering
	// cap, with a note explaining the elision.
	TupleCount int        `json:"tuple_count"`
	Tuples     [][][2]int `json:"tuples,omitempty"`
	TupleProbs []string   `json:"tuple_probs,omitempty"`
	// DefenderGain is IP_tp, the expected number of arrested attackers
	// ("p/q").
	DefenderGain string `json:"defender_gain"`
	// HitProbability is the per-attacker arrest probability k/|E(D(tp))|
	// ("p/q"), present for the structured families (Claim 4.3).
	HitProbability string `json:"hit_probability,omitempty"`
}

// SolveResult is the cacheable payload of a completed solve: a pure
// function of (graph, k, attackers). The response cache stores it once,
// as its compact JSON encoding, and writes every response that carries
// it — the miss that solved it, each later hit and a finished job's
// poll — from those bytes.
type SolveResult struct {
	// Graph6 is the canonical encoding of the solved graph (also the
	// response-cache key, together with K and Attackers).
	Graph6 string `json:"graph6"`
	// N, M, K, Attackers echo the solved instance.
	N         int `json:"n"`
	M         int `json:"m"`
	K         int `json:"k"`
	Attackers int `json:"attackers"`
	// Rho is the edge-cover number ρ(G); a pure NE exists iff k >= ρ(G)
	// (Theorem 3.1), which PureNE reports.
	Rho    int  `json:"rho"`
	PureNE bool `json:"pure_ne"`
	// MixedNE is the verified mixed equilibrium, or null when no
	// equilibrium could be computed within the enumeration budget (a
	// note explains why).
	MixedNE *MixedNE `json:"mixed_ne,omitempty"`
	// GameValue is the exact ν=1 minimax value ("p/q"): the probability
	// the defender catches an optimally-playing attacker.
	// GameValueSource records how it was obtained: "lp" (the
	// structure-free LP oracle) or "closed-form" (k/|E(D(tp))| from the
	// verified structured equilibrium, Claim 4.3). Empty when
	// unavailable.
	GameValue       string `json:"game_value,omitempty"`
	GameValueSource string `json:"game_value_source,omitempty"`
	// Notes carries human-readable caveats (elided tuple rendering,
	// unavailable LP value, ...).
	Notes []string `json:"notes,omitempty"`
}

// SolveResponse is the 200 body of POST /v1/solve.
type SolveResponse struct {
	Result *SolveResult `json:"result"`
	// Cached reports whether the result was answered from the response
	// cache without a solve.
	Cached bool `json:"cached"`
	// SolveMS is the request's server-side latency in milliseconds
	// (volatile; golden tests mask it).
	SolveMS float64 `json:"solve_ms"`
}

// JobStatus values.
const (
	JobPending = "pending"
	JobDone    = "done"
	JobFailed  = "failed"
)

// JobStatus is the body of a 202 solve response and of GET /v1/jobs/{id}.
type JobStatus struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	// Poll is the URL to poll for completion.
	Poll string `json:"poll"`
	// Result is set once Status is "done".
	Result *SolveResult `json:"result,omitempty"`
	// Error is set once Status is "failed".
	Error *ErrorInfo `json:"error,omitempty"`
}

// ReadyStatus is the body of GET /readyz: 200 with status "ready", or
// 503 with status "unavailable" and the tripped condition in Reason,
// so load balancers (and operators reading the body) see why the
// instance is shedding. SLO carries the rolling-window burn rates
// behind the decision.
type ReadyStatus struct {
	Status string `json:"status"`
	// Reason names the tripped condition ("queue_high_water" or
	// "burn_rate"); empty when ready.
	Reason string `json:"reason,omitempty"`
	// QueueDepth and QueueHighWater expose the backpressure check's
	// inputs.
	QueueDepth     int `json:"queue_depth"`
	QueueHighWater int `json:"queue_high_water"`
	// SLO is the monitor's current window evaluation.
	SLO obs.SLOStatus `json:"slo"`
}

// ErrorBody is the body of every non-2xx response: machine-readable code
// plus human-readable message, always present (asserted by
// FuzzServeSolve).
type ErrorBody struct {
	Error ErrorInfo `json:"error"`
}

// ErrorInfo is the structured error payload.
type ErrorInfo struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error codes of the /v1 API.
const (
	CodeBadRequest       = "bad_request"     // malformed JSON or request shape
	CodeBadGraph6        = "bad_graph6"      // graph6 string rejected
	CodeBadGraph         = "bad_graph"       // edge list rejected
	CodeGraphTooLarge    = "graph_too_large" // vertex count over the server cap
	CodeBadK             = "bad_k"           // k outside 1..m
	CodeBadAttackers     = "bad_attackers"   // attackers < 1
	CodeIsolatedVertex   = "isolated_vertex" // model undefined on the graph
	CodeTooLarge         = "too_large"       // tuple space over the enumeration budget
	CodeTimeout          = "timeout"         // per-solve deadline exceeded
	CodeQueueFull        = "queue_full"      // broker backpressure (429)
	CodeNotFound         = "not_found"       // unknown route or job id
	CodeMethodNotAllowed = "method_not_allowed"
	CodeBodyTooLarge     = "body_too_large" // request body over the byte cap
	CodeInternal         = "internal"       // unexpected solver failure
)
