package core

import (
	"fmt"
	"math"

	"repro/internal/features"
	"repro/internal/nn"
	"repro/internal/oracle"
)

// TrainModel fits an IL migration model on an oracle dataset using the
// paper's hyper-parameters (Adam, exponentially decaying learning rate,
// MSE, early stopping). topology is the full layer-size list; pass
// nn.PaperTopology(features.Dim(...), numCores) for the paper's network.
// The dataset is split 80/20 into train/validation with the given seed,
// which also seeds weight initialization (the paper trains three models
// with different seeds to show robustness).
func TrainModel(d *oracle.Dataset, topology []int, seed int64,
	cfg nn.TrainConfig) (*nn.MLP, nn.TrainResult, error) {
	if d.Len() == 0 {
		return nil, nn.TrainResult{}, fmt.Errorf("core: empty oracle dataset")
	}
	nnd := d.ToNN()
	if err := nnd.Validate(topology[0], topology[len(topology)-1]); err != nil {
		return nil, nn.TrainResult{}, err
	}
	train, val := nnd.Split(0.2, seed)
	m := nn.NewMLP(topology, seed)
	cfg.Seed = seed
	res, err := m.Train(train, val, cfg)
	if err != nil {
		return nil, nn.TrainResult{}, err
	}
	return m, res, nil
}

// ModelEval is the paper's model-in-isolation evaluation: how often the
// model's chosen mapping lands within 1 °C of the oracle optimum, and by
// how much it exceeds the optimum on average.
type ModelEval struct {
	N              int     // evaluated examples
	WithinOneC     float64 // fraction of choices within 1 °C of optimum
	MeanExcess     float64 // mean °C above optimum (feasible choices)
	InfeasibleFrac float64 // fraction choosing a core that cannot meet QoS
}

// EvaluateModel scores the model on held-out oracle examples. For each
// example the model's mapping choice is the free core with the highest
// predicted rating; free cores are identified from the example's
// utilization features (as at run time).
func EvaluateModel(m *nn.MLP, test *oracle.Dataset) (ModelEval, error) {
	if test.Len() == 0 {
		return ModelEval{}, fmt.Errorf("core: empty test dataset")
	}
	numCores := test.NumCores
	numClusters := len(test.Examples[0].Features) - 3 - 2*numCores
	off := features.UtilOffset(numCores, numClusters)

	var ev ModelEval
	within, excessSum, feasible, infeasible := 0, 0.0, 0, 0
	out := make([]float64, m.OutputDim())
	scratch := make([]float64, m.ScratchLen())
	for _, e := range test.Examples {
		m.PredictInto(e.Features, out, scratch)
		best, bestR := -1, math.Inf(-1)
		for c := 0; c < numCores; c++ {
			if e.Features[off+c] != 0 {
				continue // occupied by background
			}
			if out[c] > bestR {
				best, bestR = c, out[c]
			}
		}
		if best < 0 {
			continue
		}
		ev.N++
		if e.Temps[best] == oracle.NotApplicable {
			infeasible++
			continue
		}
		feasible++
		excess := e.Temps[best] - e.OptTemp
		excessSum += excess
		if excess <= 1.0 {
			within++
		}
	}
	if ev.N == 0 {
		return ModelEval{}, fmt.Errorf("core: no evaluable examples")
	}
	ev.WithinOneC = float64(within) / float64(ev.N)
	ev.InfeasibleFrac = float64(infeasible) / float64(ev.N)
	if feasible > 0 {
		ev.MeanExcess = excessSum / float64(feasible)
	}
	return ev, nil
}
