// Pipeline walkthrough: the paper's Table 3 + Table 4 story as ONE
// pipeline submission instead of five separate runs.
//
// A single scene stage generates the WTC-like cube once; four analyze
// stages fan out over it — ATDCA and UFCLS for target detection
// (Table 3), PCT and MORPH for classification (Table 4), all on the
// fully heterogeneous 16-workstation network — and a synthesize stage
// scores every report against the scene's ground truth in one place.
//
// The same spec is then submitted a second time to the same engine:
// every analyze stage comes back from the result cache and the
// pipeline's fresh virtual-seconds bill is zero. For a one-shot run
// without an engine to hold, hyperhet.RunPipeline does the same thing
// on a private scheduler.
package main

import (
	"context"
	"fmt"
	"log"

	hyperhet "repro"
)

func main() {
	s := hyperhet.NewScheduler(hyperhet.SchedulerConfig{Workers: 4, QueueDepth: 16})
	defer s.Close()
	eng, err := hyperhet.NewFlowEngine(hyperhet.FlowConfig{Scheduler: s})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	spec := tableSpec()
	fmt.Printf("pipeline %q: %d stages, one scene, four analyses, one report\n\n",
		spec.Name, len(spec.Stages))

	first := mustRun(eng, spec)
	printStatus("first submission", first)
	printSynthesis(first)

	// Same spec again: the scene provider and the scheduler's result
	// cache remember everything, so nothing is recomputed.
	second := mustRun(eng, spec)
	printStatus("second submission", second)
}

// tableSpec is the Table 3+4 star: one scene, four analyses, one
// synthesis.
func tableSpec() hyperhet.PipelineSpec {
	analyze := func(alg hyperhet.Algorithm) hyperhet.StageSpec {
		params := hyperhet.DefaultParams()
		params.Targets = 12 // the 32-band demo scene supports fewer endmembers
		return hyperhet.StageSpec{
			Kind:  hyperhet.StageAnalyze,
			After: []string{"scene"},
			Job: hyperhet.JobSpec{
				Mode:      hyperhet.ModeRun,
				Algorithm: alg,
				Variant:   hyperhet.Hetero,
				Network:   hyperhet.FullyHeterogeneous(),
				Params:    params,
			},
		}
	}
	atdca, ufcls, pct, morph := analyze(hyperhet.ATDCA), analyze(hyperhet.UFCLS),
		analyze(hyperhet.PCT), analyze(hyperhet.MORPH)
	atdca.Name, ufcls.Name, pct.Name, morph.Name = "atdca", "ufcls", "pct", "morph"
	return hyperhet.PipelineSpec{
		Name: "table3+4",
		Stages: []hyperhet.StageSpec{
			{Name: "scene", Kind: hyperhet.StageScene,
				Scene: hyperhet.SceneConfig{Lines: 96, Samples: 64, Bands: 32, Seed: 20010916}},
			atdca, ufcls, pct, morph,
			{Name: "report", Kind: hyperhet.StageSynthesize,
				After: []string{"atdca", "ufcls", "pct", "morph"}},
		},
	}
}

func mustRun(eng *hyperhet.FlowEngine, spec hyperhet.PipelineSpec) hyperhet.PipelineStatus {
	p, err := eng.Submit(context.Background(), spec)
	if err != nil {
		log.Fatal(err)
	}
	<-p.Done()
	if err := p.Err(); err != nil {
		log.Fatal(err)
	}
	return p.Status()
}

func printStatus(label string, st hyperhet.PipelineStatus) {
	fmt.Printf("%s (%s): %d/%d stages completed, %d cache hits, %.3f fresh virtual seconds\n",
		label, st.ID, st.StagesCompleted, st.StagesTotal, st.CacheHits, st.VirtualSeconds)
	for _, stage := range st.Stages {
		mark := " "
		if stage.FromCache {
			mark = "*"
		}
		fmt.Printf("  %s %-10s %-10s %s", mark, stage.Name, stage.Kind, stage.State)
		if stage.VirtualSeconds > 0 {
			fmt.Printf("  %.3f vsec", stage.VirtualSeconds)
		}
		fmt.Println()
	}
	fmt.Println()
}

func printSynthesis(st hyperhet.PipelineStatus) {
	var synth *hyperhet.Synthesis
	for _, stage := range st.Stages {
		if stage.Synthesis != nil {
			synth = stage.Synthesis
		}
	}
	if synth == nil {
		log.Fatal("no synthesize stage produced output")
	}

	fmt.Println("Table 3 — hot spot -> SAD to nearest detection (0 = exact)")
	for _, label := range hyperhet.HotSpotLabels {
		fmt.Printf("  %s:", label)
		for _, name := range []string{"atdca", "ufcls"} {
			if scores, ok := synth.Detection[name]; ok {
				fmt.Printf("  %s %.4f", name, scores[label])
			}
		}
		fmt.Println()
	}

	fmt.Println("\nTable 4 — classification accuracy against ground truth")
	for _, name := range []string{"pct", "morph"} {
		if score, ok := synth.Classification[name]; ok {
			fmt.Printf("  %-6s overall %.2f%%  kappa %.3f\n",
				name, score.OverallPercent, score.Kappa)
		}
	}

	fmt.Println("\nTiming — virtual seconds per analysis on the fully heterogeneous network")
	for _, t := range synth.Timing {
		fmt.Printf("  %-6s %-5s %-8s procs %2d  %.3f vsec  D_all %.2f\n",
			t.Stage, t.Algorithm, t.Network, t.Procs, t.VirtualSeconds, t.DAll)
	}
	fmt.Printf("  composite analysis cost: %.3f virtual seconds\n\n", synth.TotalVirtualSeconds)
}
