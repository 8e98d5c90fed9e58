package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/features"
	"repro/internal/npu"
	"repro/internal/oracle"
	"repro/internal/perf"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// probeTime is the least time one probe measures for.
const probeTime = 200 * time.Millisecond

// probe times f in a loop, doubling the iteration count until one round
// lasts probeTime, and returns ns/op and allocs/op of that round.
func probe(f func() error) (nsPerOp, allocsPerOp float64, err error) {
	if err := f(); err != nil { // warm caches and lazy state
		return 0, 0, err
	}
	var ms0, ms1 runtime.MemStats
	for n := 1; ; n *= 2 {
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := f(); err != nil {
				return 0, 0, err
			}
		}
		el := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		if el >= probeTime {
			return float64(el) / float64(n), float64(ms1.Mallocs-ms0.Mallocs) / float64(n), nil
		}
	}
}

// runProbes measures single layer calls on inputs taken from the
// workloads: the committed model, the quick oracle configuration, a
// catalog job's result and the 21-feature rows of a loaded engine.
func runProbes(b *Bench, rep *Report) error {
	m, err := core.LoadModel(b.data(modelName+".json"), 0, 0)
	if err != nil {
		return err
	}
	// add probes f, which performs `per` operations a call, and reports
	// time per operation in the unit (ns per unit given by scale).
	add := func(name, unit string, scale float64, per int, f func() error) error {
		ns, allocs, err := probe(f)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		rep.layer(name+"_"+unit, ns/scale/float64(per), unit)
		rep.layer(name+"_allocs", allocs/float64(per), "allocs")
		return nil
	}

	net := thermal.HiKey970Network(true, 25)
	power := make([]float64, 9)
	power[5], power[6] = 2.0, 2.5
	if err := add("thermal.step", "ns", 1, 1, func() error { net.Step(power, 0.01); return nil }); err != nil {
		return err
	}

	// An engine with six endless applications, as the mixed workloads run.
	cfg := sim.DefaultConfig(true, 25)
	e := sim.New(cfg)
	pm := perf.Default()
	for _, name := range []string{"adi", "canneal", "ferret", "seidel-2d", "syr2k", "dedup"} {
		spec, _ := workload.ByName(name)
		spec.TotalInstr = 1e18
		e.AddJob(workload.Job{Spec: spec, QoS: 0.3 * pm.PeakIPS(cfg.Platform, spec)})
	}
	e.Run(nil, 1)
	const ticks = 100 // per call, so the per-call result summary is amortized
	if err := add("sim.tick", "ns", 1, ticks, func() error { e.Run(nil, ticks*cfg.Dt); return nil }); err != nil {
		return err
	}
	var rows [][]float64
	if err := add("features.extract", "ns", 1, 1, func() error {
		rows = features.Vectors(features.FromEnv(e.Env()))
		return nil
	}); err != nil {
		return err
	}
	batch := make([][]float64, 8)
	for i := range batch {
		batch[i] = rows[i%len(rows)]
	}
	if err := add("nn.forward8", "us", 1e3, 1, func() error { m.PredictBatch(batch); return nil }); err != nil {
		return err
	}

	ocfg := experiments.QuickScale().OracleCfg
	canon, err := oracle.CanonicalScenarios(workload.TrainingSet())
	if err != nil {
		return err
	}
	if err := add("oracle.collect_traces", "ms", 1e6, 1, func() error {
		_, err := oracle.CollectTraces(canon[0], ocfg)
		return err
	}); err != nil {
		return err
	}

	// The batcher flushes every request at once, so the probe times its
	// own round trip rather than its MaxWait.
	bc := serve.DefaultBatcherConfig()
	bc.MaxBatch = 1
	bt := serve.NewBatcher(npu.New(m), len(batch[0]), bc)
	err = add("serve.submit", "us", 1e3, 1, func() error {
		_, _, err := bt.Submit(context.Background(), batch[0])
		return err
	})
	bt.Close()
	if err != nil {
		return err
	}

	dir, err := b.scratch("probe-journal")
	if err != nil {
		return err
	}
	st, err := cluster.OpenJournalStore(dir)
	if err != nil {
		return err
	}
	rec := serve.JobRecord{ID: "probe", State: serve.StateDone, Result: &serve.SimResult{
		Technique: "TOP-IL", Duration: simDuration, AvgTemp: 50, PeakTemp: 60,
		Apps: make([]serve.AppResult, simApps)}}
	err = add("cluster.fsync_append", "us", 1e3, 1, func() error { return st.Append(rec) })
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	return err
}
