package sched

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/cube"
	"repro/internal/scene"
)

// tinyCfg is the smallest scene the generator accepts; seeds tell
// configs apart.
func tinyCfg(seed int64) scene.Config {
	return scene.Config{Lines: 16, Samples: 16, Bands: 8, Seed: seed, SNRdB: 30}
}

const tinyCfgBytes = 16 * 16 * 8 * 4

func mustScene(t *testing.T, c *SceneCache, cfg scene.Config) (*sceneEntry, bool) {
	t.Helper()
	e, cached, err := c.entry(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, cached
}

// The resident set is an LRU bounded in bytes: recently used scenes
// survive, the coldest goes, and the bound holds after every insert.
func TestSceneCacheEvictsLRUWithinByteBound(t *testing.T) {
	const bound = 3*tinyCfgBytes + 100
	c := newSceneCache(bound, 16)
	steps := []struct {
		seed                int64
		wantCached          bool
		wantResident        int
		wantGenerations     uint64
		wantResidentConfigs []int64
	}{
		{1, false, 1, 1, []int64{1}},
		{2, false, 2, 2, []int64{1, 2}},
		{3, false, 3, 3, []int64{1, 2, 3}},
		{1, true, 3, 3, []int64{1, 2, 3}},  // touch 1: 2 is now coldest
		{4, false, 3, 4, []int64{1, 3, 4}}, // evicts 2 only — not a reset
		{3, true, 3, 4, []int64{1, 3, 4}},
		{2, false, 3, 5, []int64{2, 3, 4}}, // 1 is coldest by now
	}
	for i, st := range steps {
		_, cached := mustScene(t, c, tinyCfg(st.seed))
		got := c.Stats()
		if cached != st.wantCached || got.Resident != st.wantResident || got.Generations != st.wantGenerations {
			t.Fatalf("step %d (seed %d): cached=%v stats=%+v, want cached=%v resident=%d generations=%d",
				i, st.seed, cached, got, st.wantCached, st.wantResident, st.wantGenerations)
		}
		if got.Bytes > bound || got.Bytes != int64(got.Resident)*tinyCfgBytes {
			t.Fatalf("step %d: %d resident bytes for %d scenes under a %d bound", i, got.Bytes, got.Resident, bound)
		}
		c.mu.Lock()
		for _, seed := range st.wantResidentConfigs {
			if _, ok := c.scenes.items[tinyCfg(seed)]; !ok {
				t.Errorf("step %d: seed %d is not resident", i, seed)
			}
		}
		c.mu.Unlock()
	}
}

// A scene larger than the whole bound is served to its caller and not
// kept; its digest is.
func TestSceneCacheServesOverBoundSceneWithoutKeepingIt(t *testing.T) {
	c := newSceneCache(tinyCfgBytes-1, 16)
	for i := 1; i <= 2; i++ {
		e, cached := mustScene(t, c, tinyCfg(1))
		if e == nil || e.sc.Cube == nil || cached {
			t.Fatalf("call %d: entry %v cached=%v, want a fresh scene", i, e, cached)
		}
		if st := c.Stats(); st.Resident != 0 || st.Bytes != 0 || st.Generations != uint64(i) {
			t.Fatalf("call %d: stats %+v, want nothing resident and %d generations", i, st, i)
		}
	}
	if _, err := c.Digest(context.Background(), tinyCfg(1)); err != nil || c.Stats().Generations != 2 {
		t.Fatalf("digest of an unkept scene: err %v, stats %+v; want the memo to answer", err, c.Stats())
	}
}

// The digest memo outlives the cube: that is what lets a result-cache
// hit skip generation. It is count-bounded and evicts, it does not reset.
func TestSceneCacheDigestMemoSurvivesCubeEviction(t *testing.T) {
	c := newSceneCache(tinyCfgBytes, 2) // one resident scene, two digests
	ctx := context.Background()
	d1, err := c.Digest(ctx, tinyCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	e2, _ := mustScene(t, c, tinyCfg(2)) // evicts scene 1
	if st := c.Stats(); st.Resident != 1 || st.Digests != 2 || st.Generations != 2 {
		t.Fatalf("stats %+v, want 1 resident / 2 digests / 2 generations", st)
	}
	again, err := c.Digest(ctx, tinyCfg(1))
	if err != nil || again != d1 || d1 == e2.digest || c.Stats().Generations != 2 {
		t.Fatalf("memoized digest %q (err %v) vs first %q, stats %+v; want the same digest and no generation", again, err, d1, c.Stats())
	}
	// A third config pushes the coldest digest (2) out; 1 was just used.
	if _, err := c.Digest(ctx, tinyCfg(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Digest(ctx, tinyCfg(1)); err != nil || c.Stats().Generations != 3 {
		t.Fatalf("digest 1 after memo eviction of 2: err %v stats %+v, want still memoized", err, c.Stats())
	}
	// A regenerated scene has the digest it had before.
	e1, _ := mustScene(t, c, tinyCfg(1))
	if e1.digest != d1 {
		t.Fatalf("regenerated scene digests to %q, first generation to %q", e1.digest, d1)
	}
}

// Concurrent first requests for one config — lookups by cube, by digest
// and through the pipeline provider alike — wait on one generation.
func TestSceneCacheSingleFlight(t *testing.T) {
	c := newSceneCache(sceneCacheBytes, maxSceneDigests)
	cfg := scene.Config{Lines: 96, Samples: 64, Bands: 32, Seed: 9, SNRdB: 30}
	const callers = 8
	start := make(chan struct{})
	digests := make([]string, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			var err error
			switch i % 3 {
			case 0:
				digests[i], err = c.Digest(context.Background(), cfg)
			case 1:
				var cb *cube.Cube
				if cb, err = c.Cube(cfg)(context.Background()); err == nil {
					digests[i] = CubeDigest(cb)
				}
			default:
				_, digests[i], _, err = c.Provide(cfg)
			}
			if err != nil {
				t.Error(err)
			}
		}()
	}
	close(start)
	wg.Wait()
	st := c.Stats()
	if st.Generations != 1 || st.Hits+st.Misses != callers || st.Misses < 1 {
		t.Fatalf("stats %+v, want 1 generation and %d lookups", st, callers)
	}
	for i, d := range digests {
		if d == "" || d != digests[0] {
			t.Fatalf("caller %d saw digest %q, caller 0 %q", i, d, digests[0])
		}
	}
}

// A caller waiting on someone else's generation gives up with its context.
func TestSceneCacheJoinerHonoursContext(t *testing.T) {
	c := newSceneCache(sceneCacheBytes, maxSceneDigests)
	cfg := tinyCfg(1)
	c.mu.Lock()
	c.inflight[cfg] = &sceneFlight{done: make(chan struct{})} // a generation that never lands
	c.mu.Unlock()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.entry(ctx, cfg); err != context.Canceled {
		t.Fatalf("joiner returned %v, want context.Canceled", err)
	}
}

// The one LRU behind the result cache and the scene cache: bounded by
// count (unit cost) or by bytes, a re-put replaces the value and re-costs
// it, and a value costlier than the whole bound is not kept (its caller
// has already served it).
func TestLRUBoundsReplacementAndOverBound(t *testing.T) {
	type step struct {
		key string
		val int64 // 0 is a get, which must hit
	}
	bytes := func(v int64) int64 { return v }
	cases := []struct {
		name  string
		max   int64
		cost  func(int64) int64
		steps []step
		want  string // resident key=value pairs, most recent first
		used  int64
	}{
		{"count bound evicts the coldest", 2, unitCost[int64],
			[]step{{"a", 1}, {"b", 2}, {"a", 0}, {"c", 3}}, "c=3 a=1", 2},
		{"count re-put replaces without evicting", 2, unitCost[int64],
			[]step{{"a", 1}, {"b", 2}, {"a", 5}}, "a=5 b=2", 2},
		{"byte bound evicts until it fits", 10, bytes,
			[]step{{"a", 4}, {"b", 4}, {"c", 4}, {"d", 9}}, "d=9", 9},
		{"re-put re-costs down", 10, bytes,
			[]step{{"a", 3}, {"b", 3}, {"a", 6}, {"b", 1}}, "b=1 a=6", 7},
		{"re-put re-costs up and evicts", 10, bytes,
			[]step{{"a", 3}, {"b", 3}, {"a", 8}}, "a=8", 8},
		{"over-bound value is not kept", 10, bytes,
			[]step{{"a", 3}, {"big", 11}}, "a=3", 3},
		{"over-bound re-put drops the old value", 10, bytes,
			[]step{{"a", 3}, {"b", 2}, {"a", 11}}, "b=2", 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := newLRU[string](tc.max, tc.cost)
			for i, st := range tc.steps {
				if st.val != 0 {
					l.put(st.key, st.val)
				} else if _, ok := l.get(st.key); !ok {
					t.Fatalf("step %d: get %s missed", i, st.key)
				}
				if l.used > tc.max {
					t.Fatalf("step %d: %d used over a bound of %d", i, l.used, tc.max)
				}
			}
			var got []string
			for el := l.order.Front(); el != nil; el = el.Next() {
				slot := el.Value.(*lruSlot[string, int64])
				got = append(got, fmt.Sprintf("%s=%d", slot.key, slot.val))
				if v, ok := l.items[slot.key]; !ok || v != el {
					t.Fatalf("%s is listed but not indexed", slot.key)
				}
			}
			if s := strings.Join(got, " "); s != tc.want || l.used != tc.used || len(l.items) != l.len() {
				t.Fatalf("resident %q (%d indexed) using %d, want %q using %d", s, len(l.items), l.used, tc.want, tc.used)
			}
		})
	}
}
