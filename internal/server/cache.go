package server

import (
	"context"
	"sync"

	"github.com/defender-game/defender/internal/obs"
)

// Response-cache metrics (catalogued in OBSERVABILITY.md). The
// conservation laws, asserted under -race by the handler tests: every
// validated solve request counts exactly one hit or one miss, so hits +
// misses equals the validated requests that reached the cache; only a
// missed request can become the leader that stores, so stores <= misses;
// and coalesced counts the followers that piggybacked on a leader's
// in-flight solve.
var (
	cacheHits      = obs.Default().Counter("server.cache.hits")
	cacheMisses    = obs.Default().Counter("server.cache.misses")
	cacheStores    = obs.Default().Counter("server.cache.stores")
	cacheCoalesced = obs.Default().Counter("server.cache.coalesced")
	cacheEntries   = obs.Default().Gauge("server.cache.entries")
	cacheBytes     = obs.Default().Gauge("server.cache.bytes")
)

// cacheKey identifies one answer: the instance's canonical graph6 string,
// the defender power k and the attacker count ν. A graph6 request keys on
// its own trimmed string, which is canonical whenever it parses
// (graph.TrimGraph6); an edge-list request keys on graph.FormatGraph6 of
// the graph it built. Both spellings of one graph therefore share an
// entry.
type cacheKey struct {
	g6    string
	k, nu int
}

// inflightEntry is one in-progress solve that followers wait on.
type inflightEntry struct {
	ready chan struct{} // closed when body/err are set
	body  []byte
	err   error
}

// solveCache is the response cache of the solve API. It memoizes each
// successful answer forever (an answer is a pure function of its key) as
// the compact JSON of its SolveResult, stored once and never mutated, so
// a hit costs a lookup and the indenting copy writeSolved makes. It also
// coalesces concurrent misses of one key into a single solve — the
// reason N identical requests cost one solve plus N-1 hits even when they
// arrive in one burst.
type solveCache struct {
	mu       sync.Mutex
	done     map[cacheKey][]byte
	inflight map[cacheKey]*inflightEntry
	bytes    int // graph6 key plus body bytes of every done entry
}

func newSolveCache() *solveCache {
	return &solveCache{
		done:     make(map[cacheKey][]byte),
		inflight: make(map[cacheKey]*inflightEntry),
	}
}

// Lookup is the handler's fast path: a hit answers the request without
// touching the broker, and is counted here. A miss is not counted here
// but by Miss once the request has passed validation, because a graph6
// request is looked up before it is parsed.
func (c *solveCache) Lookup(key cacheKey) ([]byte, bool) {
	c.mu.Lock()
	body, ok := c.done[key]
	c.mu.Unlock()
	if ok {
		cacheHits.Inc()
	}
	return body, ok
}

// Miss counts a validated request that Lookup did not answer; the handler
// calls it once per such request.
func (c *solveCache) Miss() { cacheMisses.Inc() }

// Do computes the entry for key: the first caller (the leader) runs
// compute and stores a successful body; concurrent callers for the same
// key wait for the leader instead of solving again. Errors are not
// cached — the next request retries. Do runs on a broker worker; ctx
// bounds a follower's wait.
func (c *solveCache) Do(ctx context.Context, key cacheKey, compute func() ([]byte, error)) ([]byte, error) {
	c.mu.Lock()
	// A racing leader may have stored between the handler's Lookup miss
	// and this worker picking the request up.
	if body, ok := c.done[key]; ok {
		c.mu.Unlock()
		return body, nil
	}
	if e, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		cacheCoalesced.Inc()
		select {
		case <-e.ready:
			return e.body, e.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	e := &inflightEntry{ready: make(chan struct{})}
	c.inflight[key] = e
	c.mu.Unlock()

	e.body, e.err = compute()
	c.mu.Lock()
	delete(c.inflight, key)
	if e.err == nil {
		c.done[key] = e.body
		c.bytes += len(key.g6) + len(e.body)
		cacheStores.Inc()
		cacheEntries.Set(float64(len(c.done)))
		cacheBytes.Set(float64(c.bytes))
	}
	c.mu.Unlock()
	close(e.ready)
	return e.body, e.err
}
