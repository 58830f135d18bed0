package sched

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/par"
	"repro/internal/platform"
)

// CubeDigest returns a stable 64-bit digest of a cube's geometry and
// samples, the scene component of the scheduler's result-cache key.
// Submitters that reuse one cube across many jobs can compute it once and
// pass it in JobSpec.CubeDigest to skip the per-submit hashing pass.
//
// Samples are hashed as fixed-size FNV-1a sub-digests (the split depends
// only on the sample count, never on the worker budget) that fan out over
// the par worker pool and are folded into the outer hash in ascending
// order, so the digest is stable at any parallelism.
func CubeDigest(c *cube.Cube) string {
	h := fnv.New64a()
	var dims [24]byte
	binary.LittleEndian.PutUint64(dims[0:], uint64(c.Lines))
	binary.LittleEndian.PutUint64(dims[8:], uint64(c.Samples))
	binary.LittleEndian.PutUint64(dims[16:], uint64(c.Bands))
	h.Write(dims[:])
	const chunkSamples = 1 << 16
	n := len(c.Data)
	numChunks := (n + chunkSamples - 1) / chunkSamples
	subs := make([]uint64, numChunks)
	par.Ranges(numChunks, par.Chunks(numChunks, 1), func(_, lo, hi int) {
		buf := make([]byte, 0, 4096*4)
		for ci := lo; ci < hi; ci++ {
			sh := fnv.New64a()
			end := (ci + 1) * chunkSamples
			if end > n {
				end = n
			}
			for i := ci * chunkSamples; i < end; i++ {
				var b [4]byte
				binary.LittleEndian.PutUint32(b[:], math.Float32bits(c.Data[i]))
				buf = append(buf, b[:]...)
				if len(buf) == cap(buf) || i == end-1 {
					sh.Write(buf)
					buf = buf[:0]
				}
			}
			subs[ci] = sh.Sum64()
		}
	})
	var b8 [8]byte
	for _, s := range subs {
		binary.LittleEndian.PutUint64(b8[:], s)
		h.Write(b8[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// networkFingerprint summarizes the platform a job runs on, so results
// from different networks never collide in the cache: virtual timings are
// a function of the platform description.
func networkFingerprint(net *platform.Network) string {
	if net == nil {
		return "nil"
	}
	return fmt.Sprintf("%s/%d/%v/%.6f", net.Name, net.Size(), net.CycleTimes(), net.AverageLinkMS())
}

// Cacheable reports whether the spec's result may be served from, and
// stored in, the result cache — what decides whether a submitter with a
// lazy cube owes the scheduler a CubeDigest.
func (spec *JobSpec) Cacheable() bool {
	return !spec.NoCache && !spec.Checkpoint && spec.Params.Faults.Empty()
}

// cacheKey builds the result-cache key of a spec: (scene digest,
// algorithm, variant, mode, params, platform). An empty key disables
// caching for the job. Jobs with a fault plan never cache: chaos runs
// exist to exercise the failure path, and serving a memoized report
// would skip it (their attempt history would also be a lie).
// Checkpointed jobs never cache either — their reports carry checkpoint
// overhead and resume state that depend on the store's history, not on
// the spec alone.
func (spec *JobSpec) cacheKey() string {
	if !spec.Cacheable() {
		return ""
	}
	digest := spec.CubeDigest
	if digest == "" {
		if spec.Cube == nil {
			return "" // lazy and undigested: nothing to key on
		}
		digest = CubeDigest(spec.Cube)
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%s|%s|%+v|%.6f|%s|balance=%t",
		digest, spec.Mode, spec.Algorithm, spec.Variant,
		spec.Params, spec.CycleTime,
		networkFingerprint(spec.Network), spec.Balance)
	return fmt.Sprintf("%s-%016x", digest, h.Sum64())
}

// keyDigest recovers the cube digest a cache key leads with ("" for the
// empty key of an uncacheable job).
func keyDigest(key string) string {
	digest, _, _ := strings.Cut(key, "-")
	return digest
}

// lru is a cost-bounded least-recently-used map: get and put move a key
// to the front, and put evicts from the cold end until the total cost
// fits the bound. A re-put replaces the value and re-costs it; a value
// costlier than the whole bound is not kept. It is not safe for
// concurrent use: the result cache and the scene cache guard theirs.
type lru[K comparable, V any] struct {
	max, used int64
	cost      func(V) int64
	order     *list.List // front = most recently used
	items     map[K]*list.Element
}

type lruSlot[K comparable, V any] struct {
	key K
	val V
}

func newLRU[K comparable, V any](max int64, cost func(V) int64) *lru[K, V] {
	return &lru[K, V]{max: max, cost: cost, order: list.New(), items: make(map[K]*list.Element)}
}

// unitCost bounds an lru by entry count.
func unitCost[V any](V) int64 { return 1 }

func (l *lru[K, V]) get(key K) (V, bool) {
	el, ok := l.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	l.order.MoveToFront(el)
	return el.Value.(*lruSlot[K, V]).val, true
}

func (l *lru[K, V]) put(key K, val V) {
	if el, ok := l.items[key]; ok {
		l.remove(el)
	}
	c := l.cost(val)
	if c > l.max {
		return
	}
	l.items[key] = l.order.PushFront(&lruSlot[K, V]{key: key, val: val})
	l.used += c
	for l.used > l.max {
		l.remove(l.order.Back())
	}
}

func (l *lru[K, V]) remove(el *list.Element) {
	slot := l.order.Remove(el).(*lruSlot[K, V])
	delete(l.items, slot.key)
	l.used -= l.cost(slot.val)
}

func (l *lru[K, V]) len() int { return l.order.Len() }

// resultCache is a mutex-guarded LRU of job reports, bounded in count.
// Reports are shared by pointer across cache hits and must be treated as
// immutable by callers.
type resultCache struct {
	mu      sync.Mutex
	reports *lru[string, *core.RunReport]
}

// newResultCache returns an LRU holding up to max entries; nil when the
// cache is disabled (max <= 0).
func newResultCache(max int) *resultCache {
	if max <= 0 {
		return nil
	}
	return &resultCache{reports: newLRU[string](int64(max), unitCost[*core.RunReport])}
}

func (rc *resultCache) get(key string) (*core.RunReport, bool) {
	if rc == nil || key == "" {
		return nil, false
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.reports.get(key)
}

func (rc *resultCache) put(key string, rep *core.RunReport) {
	if rc == nil || key == "" {
		return
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.reports.put(key, rep)
}

func (rc *resultCache) len() int {
	if rc == nil {
		return 0
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.reports.len()
}
