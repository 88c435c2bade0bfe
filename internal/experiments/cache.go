package experiments

import (
	"fmt"
	"math/big"
	"sync"

	"github.com/defender-game/defender/internal/core"
	"github.com/defender-game/defender/internal/cover"
	"github.com/defender-game/defender/internal/game"
	"github.com/defender-game/defender/internal/graph"
	"github.com/defender-game/defender/internal/matching"
	"github.com/defender-game/defender/internal/obs"
)

// cacheMetrics is one key kind's worth of cache observability: lookup
// outcomes as counters plus the current entry count as a gauge, named
// "experiments.cache.<kind>.{hits,misses,stores}" and
// "experiments.cache.<kind>.entries" (catalogued in OBSERVABILITY.md).
// Under concurrent misses of the same key, stores may exceed distinct
// keys: two workers can both miss and both store — last write wins, which
// is sound because entries are pure functions of the key.
type cacheMetrics struct {
	hits    *obs.Counter
	misses  *obs.Counter
	stores  *obs.Counter
	entries *obs.Gauge
}

func newCacheMetrics(kind string) cacheMetrics {
	prefix := "experiments.cache." + kind + "."
	return cacheMetrics{
		hits:    obs.Default().Counter(prefix + "hits"),   // lint:invariant(metricname): per-kind family, catalogued as experiments.cache.<kind>.hits
		misses:  obs.Default().Counter(prefix + "misses"), // lint:invariant(metricname): per-kind family, catalogued as experiments.cache.<kind>.misses
		stores:  obs.Default().Counter(prefix + "stores"), // lint:invariant(metricname): per-kind family, catalogued as experiments.cache.<kind>.stores
		entries: obs.Default().Gauge(prefix + "entries"),  // lint:invariant(metricname): per-kind family, catalogued as experiments.cache.<kind>.entries
	}
}

// lookup records a lookup outcome.
func (m cacheMetrics) lookup(hit bool) {
	if hit {
		m.hits.Inc()
	} else {
		m.misses.Inc()
	}
}

// stored records a store and the resulting entry count.
func (m cacheMetrics) stored(entries int) {
	m.stores.Inc()
	m.entries.Set(float64(entries))
}

// Per-kind metrics of the process-wide structure cache.
var (
	matchingCacheMetrics = newCacheMetrics("matching")
	coverCacheMetrics    = newCacheMetrics("cover")
	tuplesCacheMetrics   = newCacheMetrics("tuples")
	valueCacheMetrics    = newCacheMetrics("value")
)

// structCache memoizes the pure-structure computations that many (graph, k)
// cells share — maximum matchings, minimum edge covers, tuple enumerations,
// and LP game values — so repeated probes of the same graph stop re-running
// blossom / Hopcroft–Karp / simplex from scratch. It is safe for concurrent
// use by the runner's worker pool.
//
// Graphs are keyed structurally (graph6), so two independently constructed
// but identical graphs share entries across tables. Every lookup hands out
// defensive copies of mutable values (mate arrays, edge slices, *big.Rat),
// per the ratalias discipline: a caller mutating its copy cannot corrupt
// the cache or another cell.
type structCache struct {
	mu     sync.Mutex
	mates  map[string][]int
	covers map[string][]graph.Edge
	tuples map[string][]game.Tuple
	values map[string]*big.Rat
}

func newStructCache() *structCache {
	return &structCache{
		mates:  make(map[string][]int),
		covers: make(map[string][]graph.Edge),
		tuples: make(map[string][]game.Tuple),
		values: make(map[string]*big.Rat),
	}
}

// stcache is the process-wide cache shared by all table builders. Entries
// are pure functions of graph structure, so sharing across configurations
// and tables is sound.
var stcache = newStructCache()

// key returns the structural cache key of g. Encoding is O(n²); the graphs
// the experiments cache are all small, but degrade gracefully to a
// per-instance key if graph6 ever rejects one.
func (c *structCache) key(g *graph.Graph) string {
	s, err := graph.FormatGraph6(g)
	if err != nil {
		return fmt.Sprintf("ptr:%p", g)
	}
	return s
}

// MaximumMatching returns a maximum matching of g as a fresh mate array.
func (c *structCache) MaximumMatching(g *graph.Graph) []int {
	key := c.key(g)
	c.mu.Lock()
	mate, ok := c.mates[key]
	c.mu.Unlock()
	matchingCacheMetrics.lookup(ok)
	if !ok {
		mate = matching.Maximum(g)
		c.mu.Lock()
		c.mates[key] = mate
		n := len(c.mates)
		c.mu.Unlock()
		matchingCacheMetrics.stored(n)
	}
	return matching.CloneMate(mate)
}

// MinimumEdgeCover returns a minimum edge cover of g as a fresh edge slice,
// derived from the cached maximum matching via Gallai's identity.
func (c *structCache) MinimumEdgeCover(g *graph.Graph) ([]graph.Edge, error) {
	if g.HasIsolatedVertex() {
		return nil, cover.ErrIsolatedVertex
	}
	key := c.key(g)
	c.mu.Lock()
	ec, ok := c.covers[key]
	c.mu.Unlock()
	coverCacheMetrics.lookup(ok)
	if !ok {
		mate := c.MaximumMatching(g)
		var err error
		ec, err = cover.MinimumEdgeCoverFromMatching(g, mate)
		if err != nil {
			return nil, err
		}
		c.mu.Lock()
		c.covers[key] = ec
		n := len(c.covers)
		c.mu.Unlock()
		coverCacheMetrics.stored(n)
	}
	out := make([]graph.Edge, len(ec))
	copy(out, ec)
	return out, nil
}

// EdgeCoverNumber returns rho(G) from the cached minimum edge cover.
func (c *structCache) EdgeCoverNumber(g *graph.Graph) (int, error) {
	ec, err := c.MinimumEdgeCover(g)
	if err != nil {
		return 0, err
	}
	return len(ec), nil
}

// Tuples returns the enumeration of all k-subsets of g's edges. The
// returned slice is a fresh header+elements copy; Tuple values themselves
// are immutable and safely shared.
func (c *structCache) Tuples(g *graph.Graph, k int) []game.Tuple {
	key := fmt.Sprintf("%s|k=%d", c.key(g), k)
	c.mu.Lock()
	ts, ok := c.tuples[key]
	c.mu.Unlock()
	tuplesCacheMetrics.lookup(ok)
	if !ok {
		ts = core.EnumerateTuples(g, k)
		c.mu.Lock()
		c.tuples[key] = ts
		n := len(c.tuples)
		c.mu.Unlock()
		tuplesCacheMetrics.stored(n)
	}
	out := make([]game.Tuple, len(ts))
	copy(out, ts)
	return out
}

// GameValue returns the exact minimax value of Π_k(G) with one attacker,
// as a fresh *big.Rat.
func (c *structCache) GameValue(g *graph.Graph, k int) (*big.Rat, error) {
	key := fmt.Sprintf("%s|k=%d", c.key(g), k)
	c.mu.Lock()
	v, ok := c.values[key]
	c.mu.Unlock()
	valueCacheMetrics.lookup(ok)
	if !ok {
		value, _, _, err := core.GameValue(g, k)
		if err != nil {
			return nil, err
		}
		// Store a private copy: GameValue's result may alias LP-internal
		// state that a later caller could mutate.
		v = new(big.Rat).Set(value)
		c.mu.Lock()
		c.values[key] = v
		n := len(c.values)
		c.mu.Unlock()
		valueCacheMetrics.stored(n)
	}
	return new(big.Rat).Set(v), nil
}

// Size reports the number of cached entries per kind (matchings, covers,
// tuple enumerations, values) — observability for tests and benchmarks.
func (c *structCache) Size() (mates, covers, tuples, values int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.mates), len(c.covers), len(c.tuples), len(c.values)
}
