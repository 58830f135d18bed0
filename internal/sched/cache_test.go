package sched

import (
	"context"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/platform"
)

func TestCubeDigestStableAndSensitive(t *testing.T) {
	a := cube.MustNew(4, 4, 3)
	for i := range a.Data {
		a.Data[i] = float32(i)
	}
	b := &cube.Cube{Lines: a.Lines, Samples: a.Samples, Bands: a.Bands, Data: slices.Clone(a.Data)}
	if CubeDigest(a) != CubeDigest(b) {
		t.Fatal("identical cubes digest differently")
	}
	b.Data[7] += 0.5
	if CubeDigest(a) == CubeDigest(b) {
		t.Fatal("sample change did not change the digest")
	}
	// Same data, different geometry.
	c := cube.MustNew(4, 3, 4)
	copy(c.Data, a.Data)
	if CubeDigest(a) == CubeDigest(c) {
		t.Fatal("geometry change did not change the digest")
	}
}

func TestCacheKeyDiscriminates(t *testing.T) {
	f := cube.MustNew(4, 4, 3)
	base := JobSpec{
		Mode:      ModeRun,
		Algorithm: core.ATDCA,
		Variant:   core.Hetero,
		Network:   platform.FullyHeterogeneous(),
		Cube:      f,
	}
	key := func(mut func(*JobSpec)) string {
		spec := base
		mut(&spec)
		if err := spec.validate(); err != nil {
			t.Fatal(err)
		}
		return spec.cacheKey()
	}
	ref := key(func(*JobSpec) {})
	if ref != key(func(*JobSpec) {}) {
		t.Fatal("cache key not deterministic")
	}
	mutations := map[string]func(*JobSpec){
		"algorithm": func(s *JobSpec) { s.Algorithm = core.UFCLS },
		"variant":   func(s *JobSpec) { s.Variant = core.Homo },
		"adaptive":  func(s *JobSpec) { s.Variant = core.Adaptive },
		"params":    func(s *JobSpec) { s.Params.Targets = 3 },
		"network":   func(s *JobSpec) { s.Network = platform.FullyHomogeneous() },
		"mode":      func(s *JobSpec) { s.Mode = ModeSequential },
	}
	for name, mut := range mutations {
		if key(mut) == ref {
			t.Errorf("%s change did not change the cache key", name)
		}
	}
	if key(func(s *JobSpec) { s.NoCache = true }) != "" {
		t.Error("NoCache spec still produced a cache key")
	}
}

func TestResultCacheLRUEviction(t *testing.T) {
	rc := newResultCache(2)
	r1, r2, r3 := &core.RunReport{}, &core.RunReport{}, &core.RunReport{}
	rc.put("a", r1)
	rc.put("b", r2)
	if _, ok := rc.get("a"); !ok { // refresh a; b becomes LRU
		t.Fatal("a missing")
	}
	rc.put("c", r3) // evicts b
	if _, ok := rc.get("b"); ok {
		t.Fatal("LRU entry b survived eviction")
	}
	if got, ok := rc.get("a"); !ok || got != r1 {
		t.Fatal("refreshed entry a was evicted")
	}
	if rc.len() != 2 {
		t.Fatalf("cache len = %d, want 2", rc.len())
	}
}

func TestResultCacheDisabled(t *testing.T) {
	rc := newResultCache(-1)
	rc.put("a", &core.RunReport{})
	if _, ok := rc.get("a"); ok {
		t.Fatal("disabled cache stored an entry")
	}
	if rc.len() != 0 {
		t.Fatal("disabled cache reports entries")
	}
}

func BenchmarkKernelCubeDigest(b *testing.B) {
	f := cube.MustNew(256, 128, 32)
	for i := range f.Data {
		f.Data[i] = float32(i%251) / 251
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CubeDigest(f)
	}
}

// A journal-less scheduler has no finished record to write, so settling a
// cache hit must not encode its report: over many hits of a report whose
// encoding is 128 KiB, a hit allocates a small fraction of that.
func TestSettleWithoutJournalEncodesNothing(t *testing.T) {
	const hits = 64
	s := New(Config{Workers: 1})
	defer s.Close()
	spec := tinySpec(t)
	big := &core.RunReport{Algorithm: core.ATDCA, Timeline: strings.Repeat("x", 128<<10)}
	encoded := len(marshalReport(big))
	s.cache.put(runToEnd(t, s, spec).cacheKey, big) // the first run misses

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < hits; i++ {
		j, err := s.Submit(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		if !j.FromCache() || j.Report() != big {
			t.Fatalf("hit %d: from cache %v, report is the seeded one %v", i, j.FromCache(), j.Report() == big)
		}
	}
	runtime.ReadMemStats(&after)
	perHit := int(after.TotalAlloc-before.TotalAlloc) / hits
	t.Logf("%d B allocated per hit; the report encodes to %d B", perHit, encoded)
	if perHit > encoded/8 {
		t.Fatalf("a cache hit allocates %d B, more than an eighth of its report's %d B encoding: settle is encoding for a journal it does not have",
			perHit, encoded)
	}
}

// BenchmarkSchedulerCacheHit is a job's fixed cost in the scheduler:
// Submit to settle of a cached result, with no journal.
func BenchmarkSchedulerCacheHit(b *testing.B) {
	s := New(Config{Workers: 1})
	defer s.Close()
	spec := tinySpec(b)
	runToEnd(b, s, spec) // the first run misses and fills the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := s.Submit(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		<-j.Done()
		if !j.FromCache() {
			b.Fatal("not a cache hit")
		}
	}
}
