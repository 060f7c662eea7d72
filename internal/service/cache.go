package service

import (
	"container/list"
	"encoding/binary"
	"hash/fnv"
	"math"
	"sync"
	"sync/atomic"
)

// cacheKey identifies one cached solution: the canonical problem hash, the
// operation, and the operation's scalar parameter (delay budget for
// OpMaxFrameRate, sweep resolution for OpFront, 0 for OpMinDelay).
type cacheKey struct {
	hash  string
	op    Op
	param float64
}

// CacheStats reports solution-cache counters, aggregated across shards.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	// HitRatio is Hits / (Hits + Misses), 0 before any lookup. With the
	// cache disabled every lookup is a miss, so the ratio reads 0.
	HitRatio float64 `json:"hit_ratio"`
	Entries  int     `json:"entries"`
	Capacity int     `json:"capacity"`
	Shards   int     `json:"shards"`

	// Similarity-tier counters: near-miss lookups keyed by the structural
	// hash (capacities excluded), consulted only for requests that opt in.
	// A hit is only served after the cached mapping re-validates on the
	// request's actual capacities; failed re-validations are Rejected and
	// fall through to a full solve.
	SimilarityHits     uint64 `json:"similarity_hits"`
	SimilarityMisses   uint64 `json:"similarity_misses"`
	SimilarityRejected uint64 `json:"similarity_rejected"`
	SimilarityEntries  int    `json:"similarity_entries"`
}

// lruShard is one independently locked LRU segment.
type lruShard struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used
	items map[cacheKey]*list.Element

	hits, misses, evictions atomic.Uint64
}

type lruEntry struct {
	key cacheKey
	sol *solution
}

func (s *lruShard) get(k cacheKey) (*solution, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[k]
	if !ok {
		s.misses.Add(1)
		return nil, false
	}
	s.order.MoveToFront(el)
	s.hits.Add(1)
	return el.Value.(*lruEntry).sol, true
}

// peek is get without counting a hit or a miss or refreshing k's recency.
func (s *lruShard) peek(k cacheKey) (*solution, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[k]
	if !ok {
		return nil, false
	}
	return el.Value.(*lruEntry).sol, true
}

func (s *lruShard) put(k cacheKey, sol *solution) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[k]; ok {
		el.Value.(*lruEntry).sol = sol
		s.order.MoveToFront(el)
		return
	}
	s.items[k] = s.order.PushFront(&lruEntry{key: k, sol: sol})
	for s.order.Len() > s.cap {
		oldest := s.order.Back()
		s.order.Remove(oldest)
		delete(s.items, oldest.Value.(*lruEntry).key)
		s.evictions.Add(1)
	}
}

func (s *lruShard) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.order.Len()
}

// cache is a sharded LRU over solved planning requests. A nil cache (or one
// built with capacity 0) is disabled: every get is a recorded miss and puts
// are dropped, which keeps the solver code path uniform.
type cache struct {
	shards   []*lruShard
	capacity int
	disabled atomic.Uint64 // misses recorded while disabled

	// sim is the similarity tier: a second, smaller LRU keyed by the
	// structural hash (cacheKey.hash = StructuralHash output), holding the
	// most recent exact solution per structural family. Lookups never serve
	// from it directly — the solver re-validates the cached mapping on the
	// request's capacities first. Nil when the cache is disabled.
	sim        []*lruShard
	simCap     int
	simRejects atomic.Uint64
}

// similarityFraction sizes the similarity tier relative to the exact cache:
// it holds one entry per structural family (not per capacity variant), so a
// quarter of the exact capacity is generous.
const similarityFraction = 4

// buildShards splits capacity across shard LRUs; the first capacity%shards
// shards take one extra entry, so Entries can never exceed capacity.
func buildShards(capacity, shards int) []*lruShard {
	if shards > capacity {
		shards = capacity
	}
	base, extra := capacity/shards, capacity%shards
	out := make([]*lruShard, shards)
	for i := range out {
		perShard := base
		if i < extra {
			perShard++
		}
		out[i] = &lruShard{
			cap:   perShard,
			order: list.New(),
			items: make(map[cacheKey]*list.Element),
		}
	}
	return out
}

// newCache builds a cache of the given total capacity split across shards.
// Capacity 0 returns a disabled cache.
func newCache(capacity, shards int) *cache {
	c := &cache{capacity: capacity}
	if capacity <= 0 {
		return c
	}
	c.shards = buildShards(capacity, shards)
	c.simCap = capacity / similarityFraction
	if c.simCap < 1 {
		c.simCap = 1
	}
	c.sim = buildShards(c.simCap, shards)
	return c
}

// shardIndex hashes k onto one of n shards by FNV-1a over the full key.
func shardIndex(k cacheKey, n int) int {
	h := fnv.New32a()
	h.Write([]byte(k.hash))
	h.Write([]byte(k.op))
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(k.param))
	h.Write(b[:])
	return int(h.Sum32() % uint32(n))
}

// shardFor picks the exact-tier shard owning k.
func (c *cache) shardFor(k cacheKey) *lruShard {
	return c.shards[shardIndex(k, len(c.shards))]
}

func (c *cache) get(k cacheKey) (*solution, bool) {
	if len(c.shards) == 0 {
		c.disabled.Add(1)
		return nil, false
	}
	return c.shardFor(k).get(k)
}

// peek is get without counting a hit, a miss or a disabled lookup: the
// solver's second look, under its flight lock, for a solution a flight
// cached after the request's counted lookup missed.
func (c *cache) peek(k cacheKey) (*solution, bool) {
	if len(c.shards) == 0 {
		return nil, false
	}
	return c.shardFor(k).peek(k)
}

func (c *cache) put(k cacheKey, sol *solution) {
	if len(c.shards) == 0 {
		return
	}
	c.shardFor(k).put(k, sol)
}

// simGet looks the structural key up in the similarity tier. The caller must
// re-validate the returned solution's mapping against the request's actual
// capacities before serving it.
func (c *cache) simGet(k cacheKey) (*solution, bool) {
	if len(c.sim) == 0 {
		return nil, false
	}
	return c.sim[shardIndex(k, len(c.sim))].get(k)
}

// simPut records the latest exact solution for a structural family.
func (c *cache) simPut(k cacheKey, sol *solution) {
	if len(c.sim) == 0 {
		return
	}
	c.sim[shardIndex(k, len(c.sim))].put(k, sol)
}

// noteSimReject counts a similarity hit whose mapping failed re-validation
// on the request's capacities (the request fell through to a full solve).
func (c *cache) noteSimReject() { c.simRejects.Add(1) }

func (c *cache) stats() CacheStats {
	st := CacheStats{
		Capacity: c.capacity,
		Shards:   len(c.shards),
		Misses:   c.disabled.Load(),
	}
	for _, s := range c.shards {
		st.Hits += s.hits.Load()
		st.Misses += s.misses.Load()
		st.Evictions += s.evictions.Load()
		st.Entries += s.len()
	}
	if lookups := st.Hits + st.Misses; lookups > 0 {
		st.HitRatio = float64(st.Hits) / float64(lookups)
	}
	st.SimilarityRejected = c.simRejects.Load()
	for _, s := range c.sim {
		st.SimilarityHits += s.hits.Load()
		st.SimilarityMisses += s.misses.Load()
		st.SimilarityEntries += s.len()
	}
	return st
}
