package service

import (
	"container/list"
	"crypto/sha256"
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
	// BodyHits counts the Hits a planning route answered from the body
	// tier: byte-identical repeats of a body already decoded, served
	// without decoding or hashing the problem again.
	BodyHits uint64 `json:"body_hits"`

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

// lruShard is one independently locked LRU segment mapping K to V.
type lruShard[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used
	items map[K]*list.Element

	hits, misses, evictions atomic.Uint64
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

func (s *lruShard[K, V]) get(k K) (V, bool) { return s.lookup(k, true) }

// lookup is get that counts a miss only when countMiss is set: a hit
// always counts and refreshes k's recency.
func (s *lruShard[K, V]) lookup(k K, countMiss bool) (V, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[k]
	if !ok {
		if countMiss {
			s.misses.Add(1)
		}
		var zero V
		return zero, false
	}
	s.order.MoveToFront(el)
	s.hits.Add(1)
	return el.Value.(*lruEntry[K, V]).val, true
}

// peek is get without counting a hit or a miss or refreshing k's recency.
func (s *lruShard[K, V]) peek(k K) (V, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[k]
	if !ok {
		var zero V
		return zero, false
	}
	return el.Value.(*lruEntry[K, V]).val, true
}

func (s *lruShard[K, V]) put(k K, v V) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[k]; ok {
		el.Value.(*lruEntry[K, V]).val = v
		s.order.MoveToFront(el)
		return
	}
	s.items[k] = s.order.PushFront(&lruEntry[K, V]{key: k, val: v})
	for s.order.Len() > s.cap {
		oldest := s.order.Back()
		s.order.Remove(oldest)
		delete(s.items, oldest.Value.(*lruEntry[K, V]).key)
		s.evictions.Add(1)
	}
}

func (s *lruShard[K, V]) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.order.Len()
}

// solutionShard is an exact- or similarity-tier segment; aliasShard is a
// body-tier one.
type (
	solutionShard = lruShard[cacheKey, *solution]
	aliasShard    = lruShard[bodyKey, cacheKey]
)

// bodyKey identifies one planning body: the route's operation and the
// SHA-256 of the raw bytes, before any decoding.
type bodyKey struct {
	op     Op
	digest [sha256.Size]byte
}

// cache is a sharded LRU over solved planning requests. A nil cache (or one
// built with capacity 0) is disabled: every get is a recorded miss and puts
// are dropped, which keeps the solver code path uniform.
type cache struct {
	shards   []*solutionShard
	capacity int
	disabled atomic.Uint64 // misses recorded while disabled

	// sim is the similarity tier: a second, smaller LRU keyed by the
	// structural hash (cacheKey.hash = StructuralHash output), holding the
	// most recent exact solution per structural family. Lookups never serve
	// from it directly — the solver re-validates the cached mapping on the
	// request's capacities first. Nil when the cache is disabled.
	sim        []*solutionShard
	simCap     int
	simRejects atomic.Uint64

	// bodies is the body tier: an LRU of the exact tier's capacity from a
	// planning body's bodyKey to the cacheKey its decode produced, so a
	// byte-identical repeat reaches its exact entry without decoding or
	// hashing the problem again. It holds only keys, never solutions. Nil
	// when the cache is disabled.
	bodies   []*aliasShard
	bodyHits atomic.Uint64
}

// similarityFraction sizes the similarity tier relative to the exact cache:
// it holds one entry per structural family (not per capacity variant), so a
// quarter of the exact capacity is generous.
const similarityFraction = 4

// buildShards splits capacity across shard LRUs; the first capacity%shards
// shards take one extra entry, so Entries can never exceed capacity.
func buildShards[K comparable, V any](capacity, shards int) []*lruShard[K, V] {
	if shards > capacity {
		shards = capacity
	}
	base, extra := capacity/shards, capacity%shards
	out := make([]*lruShard[K, V], shards)
	for i := range out {
		perShard := base
		if i < extra {
			perShard++
		}
		out[i] = &lruShard[K, V]{
			cap:   perShard,
			order: list.New(),
			items: make(map[K]*list.Element),
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
	c.shards = buildShards[cacheKey, *solution](capacity, shards)
	c.simCap = capacity / similarityFraction
	if c.simCap < 1 {
		c.simCap = 1
	}
	c.sim = buildShards[cacheKey, *solution](c.simCap, shards)
	c.bodies = buildShards[bodyKey, cacheKey](capacity, shards)
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
func (c *cache) shardFor(k cacheKey) *solutionShard {
	return c.shards[shardIndex(k, len(c.shards))]
}

// bodyShard picks the body-tier shard owning k; the digest is already
// uniform, so its first bytes pick the shard.
func (c *cache) bodyShard(k bodyKey) *aliasShard {
	return c.bodies[binary.LittleEndian.Uint32(k.digest[:4])%uint32(len(c.bodies))]
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

// getBody looks a planning body up in the body tier and then its key in
// the exact tier. A hit counts as an exact-tier hit and a body hit, and
// refreshes both entries' recency, as a canonical hit does. A miss (no
// alias, or an alias whose exact entry was evicted) counts nothing: the
// caller falls back to the decode path, whose lookup is the request's one
// counted lookup.
func (c *cache) getBody(b bodyKey) (*solution, cacheKey, bool) {
	if len(c.bodies) == 0 {
		return nil, cacheKey{}, false
	}
	k, ok := c.bodyShard(b).lookup(b, false)
	if !ok {
		return nil, cacheKey{}, false
	}
	sol, ok := c.shardFor(k).lookup(k, false)
	if !ok {
		return nil, cacheKey{}, false
	}
	c.bodyHits.Add(1)
	return sol, k, true
}

// putBody aliases a planning body to the key its decode produced. Only a
// body that read, decoded and validated completely may be aliased.
func (c *cache) putBody(b bodyKey, k cacheKey) {
	if len(c.bodies) == 0 {
		return
	}
	c.bodyShard(b).put(b, k)
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
		BodyHits: c.bodyHits.Load(),
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
