package main

import (
	"container/list"
	"context"
	"fmt"
	"sync"

	hyperhet "repro"
)

// sceneCacheBytes bounds the cubes the scene cache keeps resident:
// sixteen scenes of the largest geometry the benchmarks and examples
// routinely submit (144x96x64 float32, 3.5 MB) fit with room to spare.
// A single scene larger than the bound is still served, just not kept.
const sceneCacheBytes = 64 << 20

// maxSceneDigests bounds the config -> digest memo. An entry is ~100
// bytes, so the memo outlives the cube it describes by a wide margin:
// that is what lets a result-cache hit skip scene generation entirely.
const maxSceneDigests = 4096

// sceneEntry is one generated scene (cube plus ground truth — pipeline
// synthesis stages score against the truth) with its content digest.
type sceneEntry struct {
	sc     *hyperhet.Scene
	digest string
}

// lru is a cost-bounded least-recently-used map keyed by scene config.
// It is not safe for concurrent use; sceneCache guards it.
type lru[V any] struct {
	max, used int64
	cost      func(V) int64
	order     *list.List // front = most recently used
	items     map[hyperhet.SceneConfig]*list.Element
}

type lruSlot[V any] struct {
	key hyperhet.SceneConfig
	val V
}

func newLRU[V any](max int64, cost func(V) int64) *lru[V] {
	return &lru[V]{max: max, cost: cost, order: list.New(), items: make(map[hyperhet.SceneConfig]*list.Element)}
}

func (l *lru[V]) get(key hyperhet.SceneConfig) (V, bool) {
	el, ok := l.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	l.order.MoveToFront(el)
	return el.Value.(*lruSlot[V]).val, true
}

// put inserts val, evicting from the cold end until the total cost fits.
// A key already present keeps its value (a config's scene and digest
// never change); a value costlier than the whole bound is not kept.
func (l *lru[V]) put(key hyperhet.SceneConfig, val V) {
	if el, ok := l.items[key]; ok {
		l.order.MoveToFront(el)
		return
	}
	c := l.cost(val)
	if c > l.max {
		return
	}
	l.items[key] = l.order.PushFront(&lruSlot[V]{key: key, val: val})
	l.used += c
	for l.used > l.max {
		slot := l.order.Remove(l.order.Back()).(*lruSlot[V])
		delete(l.items, slot.key)
		l.used -= l.cost(slot.val)
	}
}

// sceneCache is the server's one source of scenes, shared by /submit,
// boot-time journal replay and the pipeline engine's scene provider. It
// keeps two things per scene config: the generated scene, in an LRU
// bounded in bytes, and the cube's content digest, in a far larger memo
// bounded in count — the digest of a synthetic scene is a pure function
// of its config, so it stays valid after the cube is evicted. Generation
// is single-flight: concurrent first requests for one config wait on one
// scene.Generate.
type sceneCache struct {
	mu       sync.Mutex
	scenes   *lru[*sceneEntry]
	digests  *lru[string]
	inflight map[hyperhet.SceneConfig]*sceneFlight

	// hits counts lookups answered from the resident scenes or the digest
	// memo; misses those that waited for a generation, started or joined.
	hits, misses, generations uint64
}

// sceneFlight is one in-progress generation; entry and err are set
// before done closes.
type sceneFlight struct {
	done  chan struct{}
	entry *sceneEntry
	err   error
}

func newSceneCache(maxBytes int64, maxDigests int) *sceneCache {
	return &sceneCache{
		scenes: newLRU(maxBytes, func(e *sceneEntry) int64 {
			return 4 * int64(len(e.sc.Cube.Data))
		}),
		digests:  newLRU(int64(maxDigests), func(string) int64 { return 1 }),
		inflight: make(map[hyperhet.SceneConfig]*sceneFlight),
	}
}

// scene returns the scene for cfg, generating it if it is not resident;
// the second return reports a resident hit. Only the wait on another
// caller's generation honours ctx — generation itself runs to completion
// so its result is cached for the next caller.
func (c *sceneCache) scene(ctx context.Context, cfg hyperhet.SceneConfig) (*sceneEntry, bool, error) {
	c.mu.Lock()
	if e, ok := c.scenes.get(cfg); ok {
		c.hits++
		c.mu.Unlock()
		return e, true, nil
	}
	c.misses++
	f, joined := c.inflight[cfg]
	if !joined {
		f = &sceneFlight{done: make(chan struct{})}
		c.inflight[cfg] = f
	}
	c.mu.Unlock()

	if joined {
		select {
		case <-f.done:
			return f.entry, false, f.err
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	// Generate outside the lock: scenes take real time to synthesize and
	// requests for other configs must not queue behind this one.
	sc, err := hyperhet.GenerateScene(cfg)
	if err != nil {
		f.err = fmt.Errorf("scene generation: %w", err)
	} else {
		f.entry = &sceneEntry{sc: sc, digest: hyperhet.SchedCubeDigest(sc.Cube)}
	}
	c.mu.Lock()
	delete(c.inflight, cfg)
	c.generations++
	if err == nil {
		c.scenes.put(cfg, f.entry)
		c.digests.put(cfg, f.entry.digest)
	}
	c.mu.Unlock()
	close(f.done)
	return f.entry, false, f.err
}

// digest returns the content digest of cfg's cube, generating the scene
// only on first sight of the config.
func (c *sceneCache) digest(ctx context.Context, cfg hyperhet.SceneConfig) (string, error) {
	c.mu.Lock()
	d, ok := c.digests.get(cfg)
	if ok {
		c.hits++
	}
	c.mu.Unlock()
	if ok {
		return d, nil
	}
	e, _, err := c.scene(ctx, cfg)
	if err != nil {
		return "", err
	}
	return e.digest, nil
}

// cube returns the lazy handle a job spec carries instead of a cube: the
// scheduler calls it on the worker, and only when it is about to read
// voxels.
func (c *sceneCache) cube(cfg hyperhet.SceneConfig) func(context.Context) (*hyperhet.Cube, error) {
	return func(ctx context.Context) (*hyperhet.Cube, error) {
		e, _, err := c.scene(ctx, cfg)
		if err != nil {
			return nil, err
		}
		return e.sc.Cube, nil
	}
}

// provide adapts the cache to the pipeline engine's provider contract,
// whose signature carries no context.
func (c *sceneCache) provide(cfg hyperhet.SceneConfig) (*hyperhet.Scene, string, bool, error) {
	e, cached, err := c.scene(context.Background(), cfg)
	if err != nil {
		return nil, "", false, err
	}
	return e.sc, e.digest, cached, nil
}

// sceneCacheStats is the scene_cache block of GET /stats; /metrics
// exposes the same counters.
type sceneCacheStats struct {
	Resident    int    `json:"resident"`
	Bytes       int64  `json:"bytes"`
	MaxBytes    int64  `json:"max_bytes"`
	Digests     int    `json:"digests"`
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Generations uint64 `json:"generations"`
}

func (c *sceneCache) stats() sceneCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return sceneCacheStats{
		Resident:    c.scenes.order.Len(),
		Bytes:       c.scenes.used,
		MaxBytes:    c.scenes.max,
		Digests:     c.digests.order.Len(),
		Hits:        c.hits,
		Misses:      c.misses,
		Generations: c.generations,
	}
}

// register exposes the cache's counters on /metrics. They are read live
// from the cache at scrape time, so /metrics and /stats cannot disagree.
func (c *sceneCache) register(reg *hyperhet.TelemetryRegistry) {
	reg.NewCounterFunc("hyperhet_scene_cache_hits_total",
		"Scene lookups answered from a resident scene or the digest memo.",
		func() float64 { return float64(c.stats().Hits) })
	reg.NewCounterFunc("hyperhet_scene_cache_misses_total",
		"Scene lookups that waited for a generation, started or joined.",
		func() float64 { return float64(c.stats().Misses) })
	reg.NewGaugeFunc("hyperhet_scene_cache_bytes",
		"Cube bytes currently resident in the scene cache.",
		func() float64 { return float64(c.stats().Bytes) })
	reg.NewCounterFunc("hyperhet_scene_generations_total",
		"Synthetic scenes generated (single-flight: one per concurrent burst on a config).",
		func() float64 { return float64(c.stats().Generations) })
}
