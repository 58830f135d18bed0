package sim

import (
	"fmt"
	"strings"
)

// ReproLine is the one-liner that replays a failing seed.
func ReproLine(seed uint64) string {
	return fmt.Sprintf("go test -run TestSim -sim.seed=%d ./internal/sim", seed)
}

// ShrinkResult is the output of Minimize.
type ShrinkResult struct {
	// Scenario is the smallest variant that still fails.
	Scenario *Scenario
	// Verdict is the failing verdict of that smallest variant.
	Verdict *Verdict
	// Runs counts the Check invocations spent.
	Runs int
}

// Report renders the failure for humans: the repro line first, then the
// shrunk scenario and its verdict.
func (r *ShrinkResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: invariant failure at seed %d (shrunk to %d jobs, %d pipelines, %d crash points in %d runs)\n",
		r.Scenario.Seed, len(r.Scenario.Jobs), len(r.Scenario.Pipelines), len(r.Scenario.Crashes), r.Runs)
	fmt.Fprintf(&b, "repro: %s\n", ReproLine(r.Scenario.Seed))
	b.WriteString(r.Verdict.String())
	return b.String()
}

// dropJob removes the job at index i and every crash point or duplicate
// edge that referenced it.
func dropJob(s *Scenario, i int) *Scenario {
	c := s.clone()
	label := c.Jobs[i].Label
	c.Jobs = append(c.Jobs[:i:i], c.Jobs[i+1:]...)
	for j := range c.Jobs {
		if c.Jobs[j].DuplicateOf == label {
			c.Jobs[j].DuplicateOf = ""
		}
	}
	c.Crashes = dropCrashRefs(c.Crashes, func(cp CrashPoint) bool {
		return (cp.Kind == TrigJobStart || cp.Kind == TrigCheckpoint) && cp.Job == label
	})
	return c
}

// dropPipe removes the pipeline at index i and every crash point that
// referenced it.
func dropPipe(s *Scenario, i int) *Scenario {
	c := s.clone()
	label := c.Pipelines[i].Label
	c.Pipelines = append(c.Pipelines[:i:i], c.Pipelines[i+1:]...)
	c.Crashes = dropCrashRefs(c.Crashes, func(cp CrashPoint) bool {
		return cp.Kind == TrigStageDone && cp.Pipeline == label
	})
	return c
}

func dropCrashRefs(crashes []CrashPoint, dead func(CrashPoint) bool) []CrashPoint {
	var out []CrashPoint
	for _, cp := range crashes {
		if !dead(cp) {
			out = append(out, cp)
		}
	}
	return out
}

// Minimize greedily shrinks a failing scenario: it tries dropping each
// crash point, disabling each journal tear, and dropping each pipeline
// and job (with the crash points that referenced them), keeping any
// variant that still fails, until a full pass removes nothing or the
// run budget is spent. The result is not guaranteed minimal — greedy
// never is — but in practice it strips everything irrelevant to the
// breach.
func Minimize(scn *Scenario, opts CheckOptions, budget int) (*ShrinkResult, error) {
	if budget <= 0 {
		budget = 60
	}
	runs := 0
	fails := func(c *Scenario) (*Verdict, bool, error) {
		runs++
		v, err := Check(c, opts)
		if err != nil {
			return nil, false, err
		}
		return v, !v.OK(), nil
	}

	cur := scn.clone()
	curV, bad, err := fails(cur)
	if err != nil {
		return nil, err
	}
	if !bad {
		return nil, fmt.Errorf("sim: seed %d does not fail; nothing to minimize", scn.Seed)
	}

	improved := true
	for improved && runs < budget {
		improved = false

		for i := 0; i < len(cur.Crashes) && runs < budget; i++ {
			cand := cur.clone()
			cand.Crashes = append(cand.Crashes[:i:i], cand.Crashes[i+1:]...)
			if v, bad, err := fails(cand); err != nil {
				return nil, err
			} else if bad {
				cur, curV = cand, v
				improved = true
				i--
			}
		}
		for i := 0; i < len(cur.Crashes) && runs < budget; i++ {
			if cur.Crashes[i].Tear == TearNone {
				continue
			}
			cand := cur.clone()
			cand.Crashes[i].Tear = TearNone
			cand.Crashes[i].TearFrac = 0
			if v, bad, err := fails(cand); err != nil {
				return nil, err
			} else if bad {
				cur, curV = cand, v
				improved = true
			}
		}
		// The overload plan rides on top of the workload: try dropping it
		// before touching the jobs.
		if cur.Overload != nil && runs < budget {
			cand := cur.clone()
			cand.Overload = nil
			if v, bad, err := fails(cand); err != nil {
				return nil, err
			} else if bad {
				cur, curV = cand, v
				improved = true
			}
		}
		for i := 0; i < len(cur.Pipelines) && runs < budget; i++ {
			cand := dropPipe(cur, i)
			if v, bad, err := fails(cand); err != nil {
				return nil, err
			} else if bad {
				cur, curV = cand, v
				improved = true
				i--
			}
		}
		for i := 0; i < len(cur.Jobs) && runs < budget; i++ {
			if cur.Overload != nil && len(cur.Jobs) == 1 {
				break // the storm borrows Jobs[0].Scene; keep one job
			}
			cand := dropJob(cur, i)
			if v, bad, err := fails(cand); err != nil {
				return nil, err
			} else if bad {
				cur, curV = cand, v
				improved = true
				i--
			}
		}
	}
	return &ShrinkResult{Scenario: cur, Verdict: curV, Runs: runs}, nil
}
