package sched

import (
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
	b := a.Clone()
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
