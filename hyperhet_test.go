package hyperhet

import (
	"path/filepath"
	"testing"
)

// These tests exercise the public facade end to end, the way a downstream
// user would.

func facadeScene(t *testing.T) *Scene {
	t.Helper()
	sc, err := GenerateScene(SceneConfig{Lines: 36, Samples: 28, Bands: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestFacadeDetectionEndToEnd(t *testing.T) {
	sc := facadeScene(t)
	net := FullyHeterogeneous()
	params := DefaultParams()
	params.Targets = 6
	rep, err := Run(net, ATDCA, Hetero, sc.Cube, params)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Detection == nil || len(rep.Detection.Targets) != 6 {
		t.Fatalf("detection result missing: %+v", rep)
	}
	if rep.WallTime <= 0 || rep.Procs != 16 {
		t.Errorf("report header wrong: wall=%v procs=%d", rep.WallTime, rep.Procs)
	}
	scores := DetectionScores(sc, rep.Detection)
	if len(scores) != 7 {
		t.Errorf("%d detection scores", len(scores))
	}
}

func TestFacadeClassificationEndToEnd(t *testing.T) {
	sc := facadeScene(t)
	params := DefaultParams()
	params.PCT.Classes = 5
	params.Morph.Classes = 5
	params.Morph.Iterations = 2
	rep, err := Run(FullyHomogeneous(), MORPH, Homo, sc.Cube, params)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Classification == nil || len(rep.Classification.Labels) != sc.Cube.NumPixels() {
		t.Fatal("classification result missing")
	}
	acc, err := ClassificationAccuracy(sc.Truth.ClassMap, 7, rep.Classification.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if acc.Overall < 0 || acc.Overall > 1 {
		t.Errorf("accuracy %v out of range", acc.Overall)
	}
}

func TestFacadeSequentialBaseline(t *testing.T) {
	sc := facadeScene(t)
	params := DefaultParams()
	params.Targets = 4
	rep, err := RunSequential(0.0072, UFCLS, sc.Cube, params)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Procs != 1 || rep.Com != 0 {
		t.Errorf("sequential run: procs=%d com=%v", rep.Procs, rep.Com)
	}
}

func TestFacadePlatforms(t *testing.T) {
	if len(UMDNetworks()) != 4 {
		t.Error("UMDNetworks != 4")
	}
	if FullyHeterogeneous().Size() != 16 || PartiallyHomogeneous().Size() != 16 {
		t.Error("UMD networks must have 16 processors")
	}
	if PartiallyHeterogeneous().Size() != 16 {
		t.Error("partially heterogeneous network must have 16 processors")
	}
	th, err := Thunderhead(8)
	if err != nil || th.Size() != 8 {
		t.Errorf("Thunderhead(8): %v %v", th, err)
	}
	if _, err := Thunderhead(0); err == nil {
		t.Error("Thunderhead(0) should fail")
	}
}

func TestFacadeCubeIO(t *testing.T) {
	sc := facadeScene(t)
	path := filepath.Join(t.TempDir(), "scene.hc")
	if err := sc.Cube.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCube(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Lines != sc.Cube.Lines || got.Bands != sc.Cube.Bands {
		t.Error("cube round trip changed geometry")
	}
	c, err := NewCube(2, 3, 4)
	if err != nil || c.NumPixels() != 6 {
		t.Errorf("NewCube: %v %v", c, err)
	}
}

func TestFacadeAdaptive(t *testing.T) {
	sc := facadeScene(t)
	// Scale compute to full-problem magnitude: adaptivity pays a
	// redistribution cost that only amortizes when computation dominates.
	params := ScaledParams(DefaultParams(), sc.Config)
	params.Targets = 5
	rep, err := Run(FullyHeterogeneous(), ATDCA, Adaptive, sc.Cube, params)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Detection == nil || len(rep.Detection.Targets) != 5 {
		t.Fatal("adaptive detection missing")
	}
	if rep.Adaptive == nil || len(rep.Adaptive.Imbalance) != 5 {
		t.Fatalf("adaptive trace missing: %+v", rep.Adaptive)
	}
	if rep.Variant != "Adaptive" {
		t.Errorf("variant = %q", rep.Variant)
	}
	// Static run for comparison: adaptive must beat equal shares.
	static, err := Run(FullyHeterogeneous(), ATDCA, Homo, sc.Cube, params)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WallTime >= static.WallTime {
		t.Errorf("adaptive %v not faster than static equal shares %v", rep.WallTime, static.WallTime)
	}
}

func TestFacadeSAD(t *testing.T) {
	if SAD([]float32{1, 0}, []float32{2, 0}) > 1e-6 {
		t.Error("SAD of parallel vectors should be ~0")
	}
}

func TestFacadeConfigsAndRendering(t *testing.T) {
	cfg := DefaultExperimentConfig()
	if cfg.AccuracyScene.Lines == 0 {
		t.Error("default experiment config empty")
	}
	if DefaultSceneConfig().Bands == 0 || FullSceneConfig().Bands != 224 {
		t.Error("scene configs wrong")
	}
	for _, s := range []string{RenderTable1(), RenderTable2()} {
		if len(s) < 100 {
			t.Error("static table rendering too short")
		}
	}
	if len(Algorithms) != 4 || len(Variants) != 2 {
		t.Error("algorithm/variant lists wrong")
	}
}
