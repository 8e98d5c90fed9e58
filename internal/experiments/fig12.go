package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Fig12Row is the overhead at one application count.
type Fig12Row struct {
	Apps int
	// Per-second overheads (ms of computation per second of wall time).
	DVFSMsPerSec      float64
	MigrationMsPerSec float64
	// Per-invocation costs in ms.
	DVFSMsPerCall      float64
	MigrationMsPerCall float64
	// CPUMigrationMsPerCall is the same policy without the NPU (CPU
	// inference backend) — the accelerator ablation.
	CPUMigrationMsPerCall float64
}

// Fig12Result reproduces the run-time overhead evaluation: the DVFS loop's
// cost grows with the number of applications (perf-counter reads) while the
// NPU-batched migration policy stays flat.
type Fig12Result struct {
	Rows []Fig12Row
}

// Render prints the overhead series.
func (r *Fig12Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 12 — run-time overhead vs number of applications\n")
	t := stats.NewTable("apps", "DVFS ms/s", "migr ms/s",
		"DVFS ms/inv", "migr ms/inv (NPU)", "migr ms/inv (CPU)")
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprint(row.Apps),
			fmt.Sprintf("%.2f", row.DVFSMsPerSec),
			fmt.Sprintf("%.2f", row.MigrationMsPerSec),
			fmt.Sprintf("%.3f", row.DVFSMsPerCall),
			fmt.Sprintf("%.2f", row.MigrationMsPerCall),
			fmt.Sprintf("%.2f", row.CPUMigrationMsPerCall))
	}
	b.WriteString(t.String())
	return b.String()
}

// Fig12Overhead measures TOP-IL's management overhead at different system
// loads, with both the NPU and a CPU inference backend.
func (p *Pipeline) Fig12Overhead() (*Fig12Result, error) {
	if _, err := p.Models(); err != nil {
		return nil, err
	}
	dur := 30.0
	if p.Scale.Name == "quick" {
		dur = 10
	}

	run := func(trace string, apps int, backend string) (core.OverheadStats, float64, error) {
		mgr, err := p.ManagerOn("TOP-IL", 0, backend)
		if err != nil {
			return core.OverheadStats{}, 0, err
		}
		e := p.newEngine(trace, true, 0)
		spec, ok := workload.ByName("seidel-2d")
		if !ok {
			return core.OverheadStats{}, 0, fmt.Errorf("experiments: missing benchmark")
		}
		spec.TotalInstr = 1e18
		for i := 0; i < apps; i++ {
			e.AddJob(workload.Job{Spec: spec, QoS: 1e8})
		}
		r := e.Run(mgr, dur)
		return mgr.(*core.TOPIL).Stats(), r.Duration, nil
	}

	// The overhead numbers come from the managers' deterministic cost
	// model, not wall-clock measurement, so the cells parallelize without
	// perturbing each other.
	type cell struct {
		st core.OverheadStats
		d  float64
	}
	counts := []int{1, 2, 4, 8, 12, 16}
	var specs []RunSpec[cell]
	for _, apps := range counts {
		for _, backend := range []string{"npu", "cpu"} {
			tag := fmt.Sprintf("%dapps/%s", apps, backend)
			specs = append(specs, RunSpec[cell]{
				Tag: tag,
				Run: func() (cell, error) {
					st, d, err := run("fig12/"+tag, apps, backend)
					return cell{st: st, d: d}, err
				},
			})
		}
	}
	cells, err := RunMatrix(p, "fig12", specs)
	if err != nil {
		return nil, err
	}

	res := &Fig12Result{}
	for i, apps := range counts {
		st, d := cells[2*i].Value.st, cells[2*i].Value.d
		cpuSt := cells[2*i+1].Value.st
		row := Fig12Row{Apps: apps}
		if st.DVFSInvocations > 0 {
			row.DVFSMsPerCall = st.DVFSSeconds / float64(st.DVFSInvocations) * 1e3
			row.DVFSMsPerSec = st.DVFSSeconds / d * 1e3
		}
		if st.MigrationInvocations > 0 {
			row.MigrationMsPerCall = st.MigrationSeconds / float64(st.MigrationInvocations) * 1e3
			row.MigrationMsPerSec = st.MigrationSeconds / d * 1e3
		}
		if cpuSt.MigrationInvocations > 0 {
			row.CPUMigrationMsPerCall = cpuSt.MigrationSeconds /
				float64(cpuSt.MigrationInvocations) * 1e3
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
