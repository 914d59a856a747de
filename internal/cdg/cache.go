package cdg

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"

	"ebda/internal/channel"
	"ebda/internal/core"
	"ebda/internal/topology"
)

// Cache memoizes verdicts of one kind under the engine's dual-hash
// identities (VerifyKey, DeltaKey, ModeKey). Each entry stores a second,
// independently derived 64-bit check hash: a probe whose key matches but
// whose check differs is treated as a miss, so a single-hash collision
// can never surface a wrong verdict. Past maxCacheEntries the map is
// flushed wholesale (an epoch flush — correctness never depends on cache
// contents) and the dropped entries are counted as evictions.
//
// The zero value is ready to use and goroutine-safe. Every instance of
// one verdict type records into the same process-wide metric series; the
// entries gauge is the live total across those instances. Cached verdicts
// share their witness slices; callers must treat them as read-only.
type Cache[R Verdict] struct {
	mu sync.RWMutex
	m  map[uint64]cacheEntry[R]

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// Verdict is the set of report types a Cache can hold — Report and
// ModeReport. Each names the metric series its cache kind records into;
// the method is unexported, so no other type can join the set.
type Verdict interface {
	cacheSeries() *cacheSeries
}

func (Report) cacheSeries() *cacheSeries     { return &verifyCacheSeries }
func (ModeReport) cacheSeries() *cacheSeries { return &modeCacheSeries }

type cacheEntry[R any] struct {
	check uint64
	rep   R
}

// maxCacheEntries bounds memory: past it the map is flushed wholesale.
// The repository's full sweep population is a few thousand entries. It
// is a variable only so tests can lower it to exercise the eviction path.
var maxCacheEntries = 1 << 15

func (c *Cache[R]) series() *cacheSeries {
	var zero R
	return zero.cacheSeries()
}

// Lookup probes the cache without computing on a miss. A hit counts as
// cache traffic (it answers a verification); a miss counts nothing — the
// caller decides whether to compute, and Do records the miss. Serving
// layers use Lookup to report provenance exactly, and cluster replicas
// use it to answer a peer's probe by raw identity.
func (c *Cache[R]) Lookup(key, check uint64) (R, bool) {
	c.mu.RLock()
	e, ok := c.m[key]
	c.mu.RUnlock()
	if ok && e.check == check {
		c.hits.Add(1)
		c.series().hits.Inc()
		return e.rep, true
	}
	var zero R
	return zero, false
}

// Do returns the verdict memoized under (key, check), computing and
// caching it on a miss. A hit is answered even when ctx has already
// expired — it costs no work and the verdict is real. A compute that
// fails (cancellation, an invalid diff) returns its error and stores
// nothing, so partial results never become cache entries.
func (c *Cache[R]) Do(ctx context.Context, key, check uint64, compute func(context.Context) (R, error)) (R, error) {
	if rep, ok := c.Lookup(key, check); ok {
		return rep, nil
	}
	c.misses.Add(1)
	c.series().misses.Inc()
	rep, err := compute(ctx)
	if err != nil {
		var zero R
		return zero, err
	}
	c.put(keyedEntry[R]{key, cacheEntry[R]{check, rep}})
	return rep, nil
}

// keyedEntry is one entry with its key: the unit snapshots carry.
type keyedEntry[R any] struct {
	key uint64
	cacheEntry[R]
}

// entries captures the cache's entries in ascending key order.
func (c *Cache[R]) entries() []keyedEntry[R] {
	c.mu.RLock()
	out := make([]keyedEntry[R], 0, len(c.m))
	for k, e := range c.m {
		out = append(out, keyedEntry[R]{k, e})
	}
	c.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// put inserts entries in order under one lock. An insert into a full
// map epoch-flushes it first, counting the dropped entries as
// evictions; the shared entries gauge moves by this cache's net size
// change.
func (c *Cache[R]) put(es ...keyedEntry[R]) {
	s := c.series()
	c.mu.Lock()
	before := len(c.m)
	for _, e := range es {
		if n := len(c.m); n >= maxCacheEntries {
			c.evictions.Add(uint64(n))
			s.evictions.Add(uint64(n))
			c.m = nil
		}
		if c.m == nil {
			c.m = make(map[uint64]cacheEntry[R])
		}
		c.m[e.key] = e.cacheEntry
	}
	s.entries.Add(int64(len(c.m) - before))
	c.mu.Unlock()
}

// Stats returns current hit/miss/eviction counters and the live entry
// count.
func (c *Cache[R]) Stats() CacheStats {
	c.mu.RLock()
	n := len(c.m)
	c.mu.RUnlock()
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   n,
	}
}

// Reset clears all entries and counters. Entries dropped here are not
// counted as evictions: Reset marks an intentional epoch boundary (the
// bench harness isolates experiments with it), not capacity pressure.
func (c *Cache[R]) Reset() {
	c.mu.Lock()
	c.series().entries.Add(-int64(len(c.m)))
	c.m = nil
	c.mu.Unlock()
	c.hits.Store(0)
	c.misses.Store(0)
	c.evictions.Store(0)
}

// CacheStats is a snapshot of cache effectiveness.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
}

// HitRate returns hits / (hits + misses), or 0 when empty.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// VerifyCache memoizes turn-set and delta verification Reports, keyed by
// VerifyKey and DeltaKey. The experiment sweeps (E04/E05/E07, the
// partition strategy searches, the paper-section turn-model
// enumerations) verify many structurally identical designs — chains
// rebuilt per call produce fresh TurnSet instances with identical
// relations — and the cache turns those repeats into a map probe. Delta
// entries live in the same map as full verifications; the key seeds keep
// the two families decorrelated and the check hash catches any residual
// collision.
type VerifyCache struct {
	Cache[Report]
}

// DefaultCache is the process-wide verification cache behind
// VerifyTurnSetCached and VerifyChainCached.
var DefaultCache = &VerifyCache{}

// verifyKey derives the cache key and its independent check hash. The
// network contributes its family name, per-dimension sizes and wraps (and,
// for irregular networks, the full memoized link list — shape parameters
// alone do not determine an irregular topology); the VC configuration
// contributes its effective per-dimension counts; the turn set contributes
// its order-independent relation fingerprint.
func verifyKey(net *topology.Network, vcs VCConfig, ts *core.TurnSet) (key, check uint64) {
	h1 := uint64(0x9e3779b97f4a7c15)
	h2 := uint64(0xc2b2ae3d27d4eb4f)
	put := func(v uint64) {
		h1 = mix64(h1 ^ v)
		h2 = mix64(h2*0x100000001b3 + v)
	}
	name := net.Name()
	put(uint64(len(name)))
	for i := 0; i < len(name); i++ {
		put(uint64(name[i]))
	}
	dims := net.Dims()
	put(uint64(dims))
	for d := 0; d < dims; d++ {
		put(uint64(net.Size(channel.Dim(d))))
		if net.Wrap(channel.Dim(d)) {
			put(1)
		} else {
			put(0)
		}
		put(uint64(vcs.VCs(channel.Dim(d))))
	}
	if !net.Regular() {
		links := net.Links()
		put(uint64(len(links)))
		for _, l := range links {
			put(uint64(uint32(l.From))<<32 | uint64(uint32(l.To)))
			w := uint64(0)
			if l.Wrap {
				w = 1
			}
			s := uint64(0)
			if l.Sign == channel.Minus {
				s = 1
			}
			put(uint64(l.Dim)<<2 | s<<1 | w)
		}
	}
	f1, f2 := ts.Fingerprint()
	put(f1)
	put(f2)
	return h1, h2
}

// VerifyKey exposes the cache's dual-hash identity of a verification:
// the canonical key and its independently derived check hash. The pair is
// stable across processes and jobs values, so serving layers can use it
// to coalesce concurrent identical verifications onto one computation
// (two requests share a flight iff they would share a cache entry).
func VerifyKey(net *topology.Network, vcs VCConfig, ts *core.TurnSet) (key, check uint64) {
	return verifyKey(net, vcs, ts)
}

// mix64 is the splitmix64 finalizer, used to diffuse key components.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// VerifyTurnSetJobs returns the memoized report for the (network, vcs,
// turn set) shape, computing and caching it on a miss via the pooled
// verification path (jobs <= 0 means all cores). Reports are identical to
// the uncached path for every jobs value.
func (c *VerifyCache) VerifyTurnSetJobs(net *topology.Network, vcs VCConfig, ts *core.TurnSet, jobs int) Report {
	rep, _ := c.VerifyTurnSetCtx(context.Background(), net, vcs, ts, jobs)
	return rep
}

// VerifyTurnSetCtx is VerifyTurnSetJobs with a deadline. A cache hit is
// answered even when ctx has already expired — it costs no work and the
// verdict is real. A miss computes through the context-aware pooled path;
// cancellation returns ctx's error, counts the probe as a miss, and
// stores nothing (partial peels never become cache entries).
func (c *VerifyCache) VerifyTurnSetCtx(ctx context.Context, net *topology.Network, vcs VCConfig, ts *core.TurnSet, jobs int) (Report, error) {
	return c.VerifyQueryCtx(ctx, NewTurnSetQuery(net, vcs, ts), jobs)
}

// TurnSetQuery is one turn-set verification with its cache identity
// computed once: a server hashes the design for its cache probe and, on
// a miss, hands the same query to VerifyCache.VerifyQueryCtx, which does
// not hash again. Delta derives a delta question's identity from it
// without rehashing the base.
type TurnSetQuery struct {
	// Key and Check are VerifyKey's dual hash of the design.
	Key, Check uint64

	net *topology.Network
	vcs VCConfig
	ts  *core.TurnSet
}

// NewTurnSetQuery computes the design's VerifyKey.
func NewTurnSetQuery(net *topology.Network, vcs VCConfig, ts *core.TurnSet) *TurnSetQuery {
	q := &TurnSetQuery{net: net, vcs: vcs, ts: ts}
	q.Key, q.Check = verifyKey(net, vcs, ts)
	return q
}

// VerifyQueryCtx is VerifyTurnSetCtx for a query built once: the
// memoized verdict under q's key, computed and cached on a miss.
func (c *VerifyCache) VerifyQueryCtx(ctx context.Context, q *TurnSetQuery, jobs int) (Report, error) {
	return c.Do(ctx, q.Key, q.Check, func(ctx context.Context) (Report, error) {
		return VerifyTurnSetCtx(ctx, q.net, q.vcs, q.ts, jobs)
	})
}

// DeltaQuery is one delta verification with its DeltaKey computed once,
// from the base query's key.
type DeltaQuery struct {
	// Key and Check are DeltaKey's dual hash of the question.
	Key, Check uint64

	base *TurnSetQuery
	diff Diff
}

// Delta returns the question "q's design perturbed by diff".
func (q *TurnSetQuery) Delta(diff Diff) *DeltaQuery {
	const (
		deltaSeedA = 0x71c3a9d0f54bd137
		deltaSeedB = 0x3c79ac492ba7b653
	)
	f1, f2 := diff.Fingerprint()
	return &DeltaQuery{
		Key:   mix64(q.Key ^ mix64(f1^deltaSeedA)),
		Check: mix64(q.Check*0x100000001b3 + mix64(f2^deltaSeedB)),
		base:  q,
		diff:  diff,
	}
}

// DeltaKey derives the cache identity of a delta verification: the base
// verification's dual-hash key mixed with the diff's canonical
// fingerprint. Like VerifyKey it is stable across processes and jobs
// values, so serving layers coalesce concurrent identical deltas onto one
// computation.
func DeltaKey(net *topology.Network, vcs VCConfig, ts *core.TurnSet, diff Diff) (key, check uint64) {
	q := NewTurnSetQuery(net, vcs, ts).Delta(diff)
	return q.Key, q.Check
}

// VerifyDeltaCtx returns the memoized report of the base design perturbed
// by the diff, computing it on a miss through a pooled DeltaWorkspace
// (jobs <= 0 means all cores) — the cache-layer delta entry point serving
// code must use. A hit is answered even when ctx has expired; a miss that
// is cancelled (or whose diff is invalid) returns the error and stores
// nothing. Reports are bit-identical to a from-scratch verification of the
// perturbed design for every jobs value.
func (c *VerifyCache) VerifyDeltaCtx(ctx context.Context, net *topology.Network, vcs VCConfig, ts *core.TurnSet, diff Diff, jobs int) (Report, error) {
	return c.VerifyDeltaQueryCtx(ctx, NewTurnSetQuery(net, vcs, ts).Delta(diff), jobs)
}

// VerifyDeltaQueryCtx is VerifyDeltaCtx for a query built once: neither
// the cache probe nor the delta pool hashes the base again.
func (c *VerifyCache) VerifyDeltaQueryCtx(ctx context.Context, q *DeltaQuery, jobs int) (Report, error) {
	return c.Do(ctx, q.Key, q.Check, func(ctx context.Context) (Report, error) {
		dw, err := DefaultDeltaPool.get(ctx, q.base, jobs)
		if err != nil {
			return Report{}, err
		}
		defer DefaultDeltaPool.Put(dw)
		return dw.VerifyDiffCtx(ctx, q.diff, jobs)
	})
}

// VerifyDeltaJobs is VerifyDeltaCtx without a deadline.
func (c *VerifyCache) VerifyDeltaJobs(net *topology.Network, vcs VCConfig, ts *core.TurnSet, diff Diff, jobs int) (Report, error) {
	return c.VerifyDeltaCtx(context.Background(), net, vcs, ts, diff, jobs)
}

// VerifyDeltaCached is VerifyDeltaJobs through the DefaultCache.
func VerifyDeltaCached(net *topology.Network, vcs VCConfig, ts *core.TurnSet, diff Diff) (Report, error) {
	return DefaultCache.VerifyDeltaJobs(net, vcs, ts, diff, 0)
}

// VerifyTurnSetCached is VerifyTurnSet through the DefaultCache.
func VerifyTurnSetCached(net *topology.Network, vcs VCConfig, ts *core.TurnSet) Report {
	return DefaultCache.VerifyTurnSetJobs(net, vcs, ts, 0)
}

// VerifyTurnSetCachedJobs is VerifyTurnSetJobs through the DefaultCache.
func VerifyTurnSetCachedJobs(net *topology.Network, vcs VCConfig, ts *core.TurnSet, jobs int) Report {
	return DefaultCache.VerifyTurnSetJobs(net, vcs, ts, jobs)
}

// VerifyChainCached is VerifyChain through the DefaultCache: the chain's
// full turn set and derived VC configuration, memoized by relation — two
// chains extracting equal turn sets share one verification.
func VerifyChainCached(net *topology.Network, chain *core.Chain) Report {
	vcs := VCConfigFor(net.Dims(), chain.Channels())
	return DefaultCache.VerifyTurnSetJobs(net, vcs, chain.AllTurns(), 0)
}
