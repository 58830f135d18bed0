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

// resultCache is a mutex-guarded LRU of job reports. Reports are shared
// by pointer across cache hits and must be treated as immutable by callers.
type resultCache struct {
	mu    sync.Mutex
	max   int
	order *list.List // front = most recently used
	items map[string]*list.Element
}

type cacheSlot struct {
	key string
	rep *core.RunReport
}

// newResultCache returns an LRU holding up to max entries; nil when the
// cache is disabled (max <= 0).
func newResultCache(max int) *resultCache {
	if max <= 0 {
		return nil
	}
	return &resultCache{max: max, order: list.New(), items: make(map[string]*list.Element)}
}

func (rc *resultCache) get(key string) (*core.RunReport, bool) {
	if rc == nil || key == "" {
		return nil, false
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	el, ok := rc.items[key]
	if !ok {
		return nil, false
	}
	rc.order.MoveToFront(el)
	return el.Value.(*cacheSlot).rep, true
}

func (rc *resultCache) put(key string, rep *core.RunReport) {
	if rc == nil || key == "" {
		return
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if el, ok := rc.items[key]; ok {
		el.Value.(*cacheSlot).rep = rep
		rc.order.MoveToFront(el)
		return
	}
	rc.items[key] = rc.order.PushFront(&cacheSlot{key: key, rep: rep})
	for rc.order.Len() > rc.max {
		last := rc.order.Back()
		rc.order.Remove(last)
		delete(rc.items, last.Value.(*cacheSlot).key)
	}
}

func (rc *resultCache) len() int {
	if rc == nil {
		return 0
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.order.Len()
}
