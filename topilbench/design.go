package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/features"
	"repro/internal/nn"
	"repro/internal/oracle"
	"repro/internal/platform"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// designEpochs is the fixed training budget of a design pass: early
// stopping is disabled so every seed trains for the same number of epochs.
const designEpochs = 10

// designOutcome is what a design pass must reproduce exactly.
type designOutcome struct {
	Examples int     `json:"examples"`
	ValLoss  float64 `json:"valLoss"`
	Within1C float64 `json:"within1c"`
	Fig8a    string  `json:"fig8aSha256"` // digest of the rendered fig8a report
}

// designExamplesPerScenario caps each oracle scenario's examples (as
// FullScale does at 200), so every seed's dataset has the same size and a
// pass costs the same work whatever the seed.
const designExamplesPerScenario = 120

// designScale is the quick pipeline with a fixed dataset size and epoch
// budget.
func designScale() experiments.Scale {
	s := experiments.QuickScale()
	s.OracleCfg.MaxExamplesPerScenario = designExamplesPerScenario
	s.TrainCfg.MaxEpochs = designEpochs
	s.TrainCfg.Patience = designEpochs
	return s
}

func paperTopology() []int {
	plat := platform.HiKey970()
	return nn.PaperTopology(features.Dim(plat.NumCores(), plat.NumClusters()), plat.NumCores())
}

// heldOutDataset builds the oracle examples of the held-out AoIs, which no
// design pass trains on. It is the evaluation input, built in set-up.
func heldOutDataset(scale experiments.Scale) (*oracle.Dataset, error) {
	held := workload.HeldOutSet()
	canon, err := oracle.CanonicalScenarios(held)
	if err != nil {
		return nil, err
	}
	rnd, err := oracle.RandomScenarios(max(2, scale.OracleScenarios/4), held, 77)
	if err != nil {
		return nil, err
	}
	return oracle.BuildDataset(append(canon, rnd...), scale.OracleCfg, nil)
}

// designPass runs the quick pipeline once: scenarios → oracle dataset →
// trained model → held-out evaluation → fig8a (fan) on the trained model,
// which the pipeline loads from its artifacts directory instead of
// retraining. It returns the outcome and the trained model.
func designPass(b *Bench, scale experiments.Scale, heldOut *oracle.Dataset, dir string, reg *telemetry.Registry) (designOutcome, *nn.MLP, error) {
	var out designOutcome
	tr := b.Tr
	pass := tr.Start("design.pass", 0, -1)
	defer pass.End()

	var d *oracle.Dataset
	err := tr.Time("oracle.build", pass.ID(), func() error {
		pool := workload.TrainingSet()
		canon, err := oracle.CanonicalScenarios(pool)
		if err != nil {
			return err
		}
		rnd, err := oracle.RandomScenarios(scale.OracleScenarios, pool, b.Seed)
		if err != nil {
			return err
		}
		d, err = oracle.BuildDataset(append(canon, rnd...), scale.OracleCfg, nil)
		return err
	})
	if err != nil {
		return out, nil, err
	}
	out.Examples = d.Len()

	var m *nn.MLP
	err = tr.Time("nn.train", pass.ID(), func() error {
		var res nn.TrainResult
		var err error
		m, res, err = core.TrainModel(d, paperTopology(), b.Seed, scale.TrainCfg)
		out.ValLoss = res.BestValLoss
		if err == nil && res.Epochs != designEpochs {
			err = fmt.Errorf("trained %d epochs, want %d", res.Epochs, designEpochs)
		}
		return err
	})
	if err != nil {
		return out, nil, err
	}
	err = tr.Time("nn.eval", pass.ID(), func() error {
		ev, err := core.EvaluateModel(m, heldOut)
		out.Within1C = ev.WithinOneC
		return err
	})
	if err != nil {
		return out, nil, err
	}

	seed := scale.Seeds[0]
	if err := core.SaveModel(m, filepath.Join(dir, fmt.Sprintf("model-%d.json", seed))); err != nil {
		return out, nil, err
	}
	p := experiments.NewPipeline(scale)
	p.ArtifactsDir = dir
	p.Workers = runtime.NumCPU()
	p.Telemetry = reg
	err = tr.Time("experiments.load_model", pass.ID(), func() error {
		_, err := p.Models()
		return err
	})
	if err != nil {
		return out, nil, err
	}
	if err := tr.Time("rl.pretrain", pass.ID(), func() error { _, err := p.QTables(); return err }); err != nil {
		return out, nil, err
	}
	err = tr.Time("experiments.fig8a", pass.ID(), func() error {
		res, err := p.Fig8Main(true)
		if err != nil {
			return err
		}
		sum := sha256.Sum256([]byte(res.Render()))
		out.Fig8a = hex.EncodeToString(sum[:])
		return nil
	})
	return out, m, err
}

// loadDesignGolden reads the recorded design outcomes, keyed by seed.
func loadDesignGolden(path string) (map[string]designOutcome, error) {
	golden := map[string]designOutcome{}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return golden, json.Unmarshal(data, &golden)
}

// runDesign repeats design passes back to back until the window is spent
// (at least one pass). Every pass must reproduce the outcome recorded for
// the seed in data/design_golden.json, and all passes of a run must agree.
func runDesign(b *Bench, window time.Duration, rep *Report) error {
	var (
		setups  []float64
		scale   experiments.Scale
		heldOut *oracle.Dataset
		golden  map[string]designOutcome
	)
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		var err error
		scale = designScale()
		if golden, err = loadDesignGolden(b.data("design_golden.json")); err != nil {
			return err
		}
		if heldOut, err = heldOutDataset(scale); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	want, recorded := golden[fmt.Sprint(b.Seed)]

	var reg *telemetry.Registry
	if b.Tr != nil {
		reg = telemetry.NewRegistry()
	}
	var walls Dist
	var first *designOutcome
	start := time.Now()
	for walls.N() == 0 || time.Since(start) < window {
		dir, err := b.scratch("design")
		if err != nil {
			return err
		}
		t0 := time.Now()
		got, _, err := designPass(b, scale, heldOut, dir, reg)
		if err != nil {
			return err
		}
		walls.Add(ms(time.Since(t0)))
		rep.Attempted++
		switch {
		case recorded && got != want:
			rep.mismatch("design seed %d pass %d: got %+v, recorded %+v", b.Seed, walls.N(), got, want)
		case first != nil && got != *first:
			rep.mismatch("design seed %d pass %d: got %+v, first pass %+v", b.Seed, walls.N(), got, *first)
		}
		if first == nil {
			first = &got
		}
	}
	if err := os.RemoveAll(filepath.Join(b.Work, "design")); err != nil {
		return err
	}

	p50 := walls.Percentile(0.5)
	tail := walls.Percentile(1)
	rep.e2e("p50_ms", p50.Value, "ms")
	rep.e2e("max_rps", 1000/p50.Value, "1/s")
	rep.common(setups)
	rep.Notes["passes"] = walls.N()
	rep.Notes["slowest_pass_ms"] = tail.Value
	rep.Notes["golden_recorded"] = recorded
	rep.Notes["outcome"] = first
	progress("design: %d passes, pass p50 %.0f ms, slowest %.0f ms; examples %d, val loss %.5f, within 1C %.4f (recorded golden: %v)",
		walls.N(), p50.Value, tail.Value, first.Examples, first.ValLoss, first.Within1C, recorded)

	if b.Tr != nil {
		train := b.Tr.Durations("nn.train", time.Second).Percentile(0.5).Value
		rows := float64(first.Examples - int(float64(first.Examples)*0.2))
		rep.layer("oracle.build_s", b.Tr.Durations("oracle.build", time.Second).Percentile(0.5).Value, "s")
		rep.layer("oracle.examples", float64(first.Examples), "count")
		rep.layer("nn.train_s", train, "s")
		rep.layer("nn.train_epoch_ms", 1000*train/designEpochs, "ms")
		rep.layer("nn.train_rows_per_s", rows*designEpochs/train, "1/s")
		rep.layer("nn.eval_s", b.Tr.Durations("nn.eval", time.Second).Percentile(0.5).Value, "s")
		rep.layer("nn.val_loss", first.ValLoss, "mse")
		rep.layer("nn.within1c", first.Within1C, "fraction")
		rep.layer("rl.pretrain_s", b.Tr.Durations("rl.pretrain", time.Second).Percentile(0.5).Value, "s")
		rep.layer("experiments.fig8a_s", b.Tr.Durations("experiments.fig8a", time.Second).Percentile(0.5).Value, "s")
		cells := reg.HistogramVec("experiments_cell_seconds", "", nil, "matrix").With("fig8").Count()
		rep.layer("experiments.cells", float64(cells)/float64(walls.N()), "count")
	}
	return nil
}
