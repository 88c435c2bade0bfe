package server

import (
	"container/list"
	"context"
	"sync"

	"github.com/defender-game/defender/internal/obs"
)

// Response-cache metrics (catalogued in OBSERVABILITY.md). The
// conservation laws, asserted under -race by the handler tests: every
// validated solve request counts exactly one hit or one miss, so hits +
// misses equals the validated requests that reached the cache; only a
// missed request can become the leader that stores, so stores <= misses;
// every stored entry is either still held or was evicted once, so
// entries = stores - evictions; and coalesced counts the followers that
// piggybacked on a leader's in-flight solve.
var (
	cacheHits      = obs.Default().Counter("server.cache.hits")
	cacheMisses    = obs.Default().Counter("server.cache.misses")
	cacheStores    = obs.Default().Counter("server.cache.stores")
	cacheEvictions = obs.Default().Counter("server.cache.evictions")
	cacheCoalesced = obs.Default().Counter("server.cache.coalesced")
	cacheEntries   = obs.Default().Gauge("server.cache.entries")
	cacheBytes     = obs.Default().Gauge("server.cache.bytes")
)

// cacheBudget bounds the graph6 key plus body bytes the response cache
// retains. It is a stated choice until production traffic says
// otherwise: about 50× the whole working set of 64 hot graphs, 30× the
// answers of a thousand distinct small LP instances, and about 1,400
// answers for 256-vertex graphs (~12 KB each).
const cacheBudget = 16 << 20

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

// cacheEntry is one retained answer, the value of an lru element.
type cacheEntry struct {
	key  cacheKey
	body []byte
}

// size is what an entry counts against the budget.
func (e *cacheEntry) size() int { return len(e.key.g6) + len(e.body) }

// inflightEntry is one in-progress solve that followers wait on.
type inflightEntry struct {
	ready chan struct{} // closed when body/err are set
	body  []byte
	err   error
}

// solveCache is the response cache of the solve API: a least-recently-used
// cache bounded in bytes. Each successful answer (a pure function of its
// key) is stored as the compact JSON of its SolveResult, once and never
// mutated, so a hit costs a lookup and the indenting copy writeSolved
// makes. A store evicts the coldest answers until the retained key and
// body bytes fit the budget; an evicted key is simply solved again, to
// the same bytes, and a finished job keeps its own reference to its
// answer. It also coalesces concurrent misses of one key into a single
// solve — the reason N identical requests cost one solve plus N-1 hits
// even when they arrive in one burst.
type solveCache struct {
	mu       sync.Mutex
	budget   int
	lru      *list.List // of *cacheEntry, most recently used at the front
	done     map[cacheKey]*list.Element
	inflight map[cacheKey]*inflightEntry
	bytes    int // size of every retained entry
}

func newSolveCache(budget int) *solveCache {
	return &solveCache{
		budget:   budget,
		lru:      list.New(),
		done:     make(map[cacheKey]*list.Element),
		inflight: make(map[cacheKey]*inflightEntry),
	}
}

// Lookup is the handler's fast path: a hit answers the request without
// touching the broker, and is counted here. A miss is not counted here
// but by Miss once the request has passed validation, because a graph6
// request is looked up before it is parsed.
func (c *solveCache) Lookup(key cacheKey) ([]byte, bool) {
	c.mu.Lock()
	body, ok := c.getLocked(key)
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
	if body, ok := c.getLocked(key); ok {
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
		c.storeLocked(&cacheEntry{key: key, body: e.body})
	}
	c.mu.Unlock()
	close(e.ready)
	return e.body, e.err
}

// getLocked returns key's body and marks it most recently used; callers
// hold c.mu.
func (c *solveCache) getLocked(key cacheKey) ([]byte, bool) {
	el, ok := c.done[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// storeLocked puts e at the front, then evicts from the back until the
// retained bytes fit the budget, never evicting e itself: an answer
// larger than the whole budget is held alone. Callers hold c.mu, and
// only the key's single-flight leader stores, so e.key is not yet held.
func (c *solveCache) storeLocked(e *cacheEntry) {
	c.done[e.key] = c.lru.PushFront(e)
	c.bytes += e.size()
	cacheStores.Inc()
	for c.bytes > c.budget && c.lru.Len() > 1 {
		old := c.lru.Remove(c.lru.Back()).(*cacheEntry)
		delete(c.done, old.key)
		c.bytes -= old.size()
		cacheEvictions.Inc()
	}
	cacheEntries.Set(float64(len(c.done)))
	cacheBytes.Set(float64(c.bytes))
}
