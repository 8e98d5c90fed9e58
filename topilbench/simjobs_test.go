package main

import (
	"errors"
	"math"
	"testing"

	"repro/internal/serve"
)

func TestPerturbedSimResultIsAFailure(t *testing.T) {
	job := simCatalog()[0]
	res := &serve.SimResult{PeakTemp: 61.25, AvgTemp: 48.5, Violations: 2, Migrations: 17,
		TotalEnergyJ: 1234.5, ThrottleSeconds: 0, OverheadSeconds: 0.75}
	golden := map[string]simOutcome{job.key(): outcomeOf(res)}
	snap := &serve.JobSnapshot{State: serve.StateDone, Result: res}
	if err := checkSim(golden, job, snap); err != nil {
		t.Fatalf("exact result rejected: %v", err)
	}

	perturbed := *res
	perturbed.PeakTemp = math.Nextafter(res.PeakTemp, math.Inf(1)) // one ulp
	rep := newReport()
	rep.Attempted++
	err := checkSim(golden, job, &serve.JobSnapshot{State: serve.StateDone, Result: &perturbed})
	if !errors.Is(err, errWrong) {
		t.Fatalf("one-ulp change to peak temperature not caught: %v", err)
	}
	rep.mismatch("%v", err)
	rep.common([]float64{1})
	if rep.Failed != 1 || rep.E2E["ok_frac"].Value != 0 {
		t.Fatalf("mismatch not counted as a failure: failed %d, ok_frac %v", rep.Failed, rep.E2E["ok_frac"])
	}

	perturbed = *res
	perturbed.Migrations++
	if err := checkSim(golden, job, &serve.JobSnapshot{State: serve.StateDone, Result: &perturbed}); err == nil {
		t.Fatal("changed migration count not caught")
	}
	if err := checkSim(golden, simCatalog()[1], snap); err == nil {
		t.Fatal("a job without a golden entry passed")
	}
	if err := checkSim(golden, job, &serve.JobSnapshot{State: serve.StateFailed, Error: "boom"}); err == nil {
		t.Fatal("a failed job passed")
	}
}

func TestSimMixIsFixedPerBlock(t *testing.T) {
	for _, seed := range []int64{1, 2, 99} {
		jobs := simMix(seed, 120)
		for b := 0; b < len(jobs); b += 12 {
			topil := 0
			for _, j := range jobs[b : b+12] {
				if j.Policy == "TOP-IL" {
					topil++
				}
			}
			if topil != 8 {
				t.Fatalf("seed %d block %d: %d TOP-IL jobs of 12, want 8", seed, b/12, topil)
			}
		}
	}
}
