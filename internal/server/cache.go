package server

import (
	"context"
	"sync"

	"github.com/defender-game/defender/internal/obs"
)

// Response-cache metrics (catalogued in OBSERVABILITY.md). The
// conservation laws, asserted under -race by the handler tests: every
// solve request performs exactly one Lookup, so hits + misses equals the
// requests that reached the cache; only a missed request can become the
// leader that stores, so stores <= misses; and coalesced counts the
// followers that piggybacked on a leader's in-flight solve.
var (
	cacheHits      = obs.Default().Counter("server.cache.hits")
	cacheMisses    = obs.Default().Counter("server.cache.misses")
	cacheStores    = obs.Default().Counter("server.cache.stores")
	cacheCoalesced = obs.Default().Counter("server.cache.coalesced")
	cacheEntries   = obs.Default().Gauge("server.cache.entries")
)

// inflightEntry is one in-progress solve that followers wait on.
type inflightEntry struct {
	ready chan struct{} // closed when res/err are set
	res   *SolveResult
	err   error
}

// solveCache is the response cache of the solve API, keyed by
// "graph6|k=K|nu=N" so structurally identical graphs share one entry
// regardless of how the request spelled them. It memoizes successful
// results forever (they are pure functions of the key) and coalesces
// concurrent misses of one key into a single solve — the reason N
// identical requests cost one solve plus N-1 hits even when they arrive
// in one burst. Stored *SolveResult values are shared and treated as
// immutable by every reader.
type solveCache struct {
	mu       sync.Mutex
	done     map[string]*SolveResult
	inflight map[string]*inflightEntry
}

func newSolveCache() *solveCache {
	return &solveCache{
		done:     make(map[string]*SolveResult),
		inflight: make(map[string]*inflightEntry),
	}
}

// Lookup is the handler's fast path: a hit answers the request without
// touching the broker. Exactly one Lookup runs per solve request, which
// is what makes the hit/miss counters request-conservation laws.
func (c *solveCache) Lookup(key string) (*SolveResult, bool) {
	c.mu.Lock()
	res, ok := c.done[key]
	c.mu.Unlock()
	if ok {
		cacheHits.Inc()
	} else {
		cacheMisses.Inc()
	}
	return res, ok
}

// Do computes the entry for key: the first caller (the leader) runs
// compute and stores a successful result; concurrent callers for the
// same key wait for the leader instead of solving again. Errors are not
// cached — the next request retries. Do runs on a broker worker; ctx
// bounds a follower's wait.
func (c *solveCache) Do(ctx context.Context, key string, compute func() (*SolveResult, error)) (*SolveResult, error) {
	c.mu.Lock()
	// A racing leader may have stored between the handler's Lookup miss
	// and this worker picking the request up.
	if res, ok := c.done[key]; ok {
		c.mu.Unlock()
		return res, nil
	}
	if e, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		cacheCoalesced.Inc()
		select {
		case <-e.ready:
			return e.res, e.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	e := &inflightEntry{ready: make(chan struct{})}
	c.inflight[key] = e
	c.mu.Unlock()

	e.res, e.err = compute()
	c.mu.Lock()
	delete(c.inflight, key)
	if e.err == nil {
		c.done[key] = e.res
		cacheStores.Inc()
		cacheEntries.Set(float64(len(c.done)))
	}
	c.mu.Unlock()
	close(e.ready)
	return e.res, e.err
}
