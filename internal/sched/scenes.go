package sched

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/cube"
	"repro/internal/scene"
	"repro/internal/telemetry"
)

// sceneCacheBytes bounds the cubes a scene cache keeps resident:
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
	sc     *scene.Scene
	digest string
}

// SceneCache is the one source of scenes: hyperhetd's /submit, its
// boot-time journal replay and its pipeline engine share one, a flow
// engine built without a provider gets a private one, and the crash
// simulator shares one across every run of a sweep. It keeps two things
// per scene config: the generated scene, in an LRU bounded in bytes, and
// the cube's content digest, in a far larger memo bounded in count — the
// digest of a synthetic scene is a pure function of its config, so it
// stays valid after the cube is evicted. Generation is single-flight:
// concurrent first requests for one config wait on one scene.Generate.
type SceneCache struct {
	mu       sync.Mutex
	scenes   *lru[scene.Config, *sceneEntry]
	digests  *lru[scene.Config, string]
	inflight map[scene.Config]*sceneFlight

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

// NewSceneCache returns an empty cache holding up to 64 MiB of cubes and
// 4096 digests.
func NewSceneCache() *SceneCache { return newSceneCache(sceneCacheBytes, maxSceneDigests) }

func newSceneCache(maxBytes int64, maxDigests int) *SceneCache {
	return &SceneCache{
		scenes: newLRU[scene.Config](maxBytes, func(e *sceneEntry) int64 {
			return 4 * int64(len(e.sc.Cube.Data))
		}),
		digests:  newLRU[scene.Config](int64(maxDigests), unitCost[string]),
		inflight: make(map[scene.Config]*sceneFlight),
	}
}

// entry returns the scene for cfg, generating it if it is not resident;
// the second return reports a resident hit. Only the wait on another
// caller's generation honours ctx — generation itself runs to completion
// so its result is cached for the next caller.
func (c *SceneCache) entry(ctx context.Context, cfg scene.Config) (*sceneEntry, bool, error) {
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
	sc, err := scene.Generate(cfg)
	if err != nil {
		f.err = fmt.Errorf("scene generation: %w", err)
	} else {
		f.entry = &sceneEntry{sc: sc, digest: CubeDigest(sc.Cube)}
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

// Digest returns the content digest of cfg's cube — the JobSpec.CubeDigest
// a cacheable lazy spec owes — generating the scene only on first sight
// of the config.
func (c *SceneCache) Digest(ctx context.Context, cfg scene.Config) (string, error) {
	c.mu.Lock()
	d, ok := c.digests.get(cfg)
	if ok {
		c.hits++
	}
	c.mu.Unlock()
	if ok {
		return d, nil
	}
	e, _, err := c.entry(ctx, cfg)
	if err != nil {
		return "", err
	}
	return e.digest, nil
}

// Cube returns the lazy handle a job spec carries instead of a cube
// (JobSpec.Materialize): the scheduler calls it on the worker, and only
// when it is about to read voxels.
func (c *SceneCache) Cube(cfg scene.Config) func(context.Context) (*cube.Cube, error) {
	return func(ctx context.Context) (*cube.Cube, error) {
		e, _, err := c.entry(ctx, cfg)
		if err != nil {
			return nil, err
		}
		return e.sc.Cube, nil
	}
}

// Provide adapts the cache to the pipeline engine's SceneProvider
// contract, whose signature carries no context.
func (c *SceneCache) Provide(cfg scene.Config) (*scene.Scene, string, bool, error) {
	e, cached, err := c.entry(context.Background(), cfg)
	if err != nil {
		return nil, "", false, err
	}
	return e.sc, e.digest, cached, nil
}

// SceneCacheStats is a snapshot of a SceneCache: hyperhetd's scene_cache
// block of GET /stats, and the counters Register exports.
type SceneCacheStats struct {
	Resident    int    `json:"resident"`
	Bytes       int64  `json:"bytes"`
	MaxBytes    int64  `json:"max_bytes"`
	Digests     int    `json:"digests"`
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Generations uint64 `json:"generations"`
}

// Stats snapshots the cache's occupancy and counters.
func (c *SceneCache) Stats() SceneCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return SceneCacheStats{
		Resident:    c.scenes.len(),
		Bytes:       c.scenes.used,
		MaxBytes:    c.scenes.max,
		Digests:     c.digests.len(),
		Hits:        c.hits,
		Misses:      c.misses,
		Generations: c.generations,
	}
}

// Register exposes the cache's counters on reg. They are read live from
// the cache at scrape time, so /metrics and /stats cannot disagree.
func (c *SceneCache) Register(reg *telemetry.Registry) {
	reg.NewCounterFunc("hyperhet_scene_cache_hits_total",
		"Scene lookups answered from a resident scene or the digest memo.",
		func() float64 { return float64(c.Stats().Hits) })
	reg.NewCounterFunc("hyperhet_scene_cache_misses_total",
		"Scene lookups that waited for a generation, started or joined.",
		func() float64 { return float64(c.Stats().Misses) })
	reg.NewGaugeFunc("hyperhet_scene_cache_bytes",
		"Cube bytes currently resident in the scene cache.",
		func() float64 { return float64(c.Stats().Bytes) })
	reg.NewCounterFunc("hyperhet_scene_generations_total",
		"Synthetic scenes generated (single-flight: one per concurrent burst on a config).",
		func() float64 { return float64(c.Stats().Generations) })
}
