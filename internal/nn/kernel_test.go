package nn

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// randDataset draws n examples of in features and out targets.
func randDataset(n, in, out int, seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	var d Dataset
	for i := 0; i < n; i++ {
		x := make([]float64, in)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		y := make([]float64, out)
		for j := range y {
			y[j] = math.Tanh(x[j%in]*x[(j+1)%in]) + 0.1*rng.NormFloat64()
		}
		d.X = append(d.X, x)
		d.Y = append(d.Y, y)
	}
	return d
}

// sameBits reports the first element where a and b differ bit for bit.
func sameBits(a, b []float64) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

func requireSameModel(t *testing.T, got, want *MLP) {
	t.Helper()
	for l := range want.weights {
		if i, ok := sameBits(got.weights[l], want.weights[l]); !ok {
			t.Fatalf("layer %d weight %d: %v, reference %v", l, i, got.weights[l][i], want.weights[l][i])
		}
		if i, ok := sameBits(got.biases[l], want.biases[l]); !ok {
			t.Fatalf("layer %d bias %d: %v, reference %v", l, i, got.biases[l][i], want.biases[l][i])
		}
	}
}

func requireSameResult(t *testing.T, got, want TrainResult) {
	t.Helper()
	if got.Epochs != want.Epochs || got.StoppedEarly != want.StoppedEarly {
		t.Fatalf("epochs/stopped = %d/%v, reference %d/%v", got.Epochs, got.StoppedEarly, want.Epochs, want.StoppedEarly)
	}
	scalars := []float64{got.TrainLoss, got.BestValLoss}
	if i, ok := sameBits(scalars, []float64{want.TrainLoss, want.BestValLoss}); !ok {
		t.Fatalf("TrainLoss/BestValLoss[%d] = %v, reference %v/%v", i, scalars[i], want.TrainLoss, want.BestValLoss)
	}
	if i, ok := sameBits(got.TrainHistory, want.TrainHistory); !ok {
		t.Fatalf("TrainHistory[%d] differs: %v vs %v", i, got.TrainHistory, want.TrainHistory)
	}
	if i, ok := sameBits(got.ValHistory, want.ValHistory); !ok {
		t.Fatalf("ValHistory[%d] differs: %v vs %v", i, got.ValHistory, want.ValHistory)
	}
}

// TestTrainMatchesReference pins the batch kernel to the per-sample
// reference: equal weights, biases and loss histories, bit for bit, at the
// current GOMAXPROCS (scripts/check.sh runs it at -cpu 1,2,4) and at shard
// counts that do not divide the batch.
func TestTrainMatchesReference(t *testing.T) {
	paper := randDataset(2880, 21, 8, 1)
	paperTrain, paperVal := paper.Split(0.2, 2) // 2304 training rows
	odd := randDataset(50, 21, 8, 3)
	oddTrain, oddVal := Dataset{X: odd.X[:37], Y: odd.Y[:37]}, Dataset{X: odd.X[37:], Y: odd.Y[37:]}

	cases := []struct {
		name       string
		sizes      []int
		train, val Dataset
		cfg        TrainConfig
		warm       bool // train once first, then train the result again
	}{
		{"paper", PaperTopology(21, 8), paperTrain, paperVal,
			TrainConfig{MaxEpochs: 2, BatchSize: 128, Seed: 4}, false},
		{"odd-tails", []int{21, 7, 13, 8}, oddTrain, oddVal,
			TrainConfig{MaxEpochs: 6, BatchSize: 10, Seed: 5}, false},
		{"clip-decay", []int{21, 7, 13, 8}, oddTrain, oddVal,
			TrainConfig{MaxEpochs: 6, BatchSize: 10, Seed: 6, GradClip: 0.05, WeightDecay: 0.3}, false},
		{"warm-start", []int{21, 7, 13, 8}, oddTrain, oddVal,
			TrainConfig{MaxEpochs: 5, BatchSize: 10, Seed: 7, LR0: 2e-3, LRDecay: 0.97, Patience: 2}, true},
		{"no-val", []int{21, 9, 8}, oddTrain, Dataset{},
			TrainConfig{MaxEpochs: 4, BatchSize: 8, Seed: 8}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			init := NewMLP(tc.sizes, 9)
			if tc.warm {
				if _, err := init.Train(tc.train, tc.val, tc.cfg); err != nil {
					t.Fatal(err)
				}
			}
			ref := init.Clone()
			want := ref.trainReference(tc.train, tc.val, tc.cfg)
			for _, shards := range []int{runtime.GOMAXPROCS(0), 3, 7} {
				m := init.Clone()
				var got TrainResult
				var err error
				if shards == runtime.GOMAXPROCS(0) {
					got, err = m.Train(tc.train, tc.val, tc.cfg)
				} else {
					got, err = m.train(tc.train, tc.val, tc.cfg, shards)
				}
				if err != nil {
					t.Fatal(err)
				}
				requireSameResult(t, got, want)
				requireSameModel(t, m, ref)
			}
		})
	}
}

// TestTrainAllocsIndependentOfRows guards against per-sample allocation:
// a Train call allocates the same number of times for 256 and for 2048
// rows.
func TestTrainAllocsIndependentOfRows(t *testing.T) {
	if testing.Short() {
		t.Skip("trains twice per size")
	}
	allocs := func(rows int) float64 {
		train, val := randDataset(rows, 21, 8, 10).Split(0.2, 11)
		m := NewMLP([]int{21, 32, 32, 8}, 12)
		return testing.AllocsPerRun(2, func() {
			if _, err := m.Clone().Train(train, val, TrainConfig{MaxEpochs: 2, Seed: 13}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(256), allocs(2048)
	if small != large {
		t.Errorf("Train allocates %v times at 256 rows but %v at 2048: per-sample allocation is back", small, large)
	}
}

func TestTrainRejectsBadConfig(t *testing.T) {
	m := NewMLP([]int{3, 4, 2}, 0)
	d := synthDataset(20, 1)
	cases := map[string]TrainConfig{
		"BatchSize":   {BatchSize: -1},
		"MaxEpochs":   {MaxEpochs: -1},
		"Patience":    {Patience: -3},
		"LR0":         {LR0: -0.01},
		"LRDecay":     {LRDecay: math.NaN()},
		"WeightDecay": {WeightDecay: -1},
		"GradClip":    {GradClip: math.NaN()},
	}
	for field, cfg := range cases {
		res, err := m.Clone().Train(d, d, cfg)
		if err == nil {
			t.Errorf("%s: accepted %+v (result %+v)", field, cfg, res)
			continue
		}
		if !strings.Contains(err.Error(), field) {
			t.Errorf("%s: error %q does not name the field", field, err)
		}
	}
}

func TestValidateRejectsNonFinite(t *testing.T) {
	base := func() Dataset {
		return Dataset{
			X: [][]float64{{1, 2, 3}, {4, 5, 6}},
			Y: [][]float64{{1, 2}, {3, 4}},
		}
	}
	if err := base().Validate(3, 2); err != nil {
		t.Fatalf("finite dataset rejected: %v", err)
	}
	cases := []struct {
		poison func(Dataset)
		want   string
	}{
		{func(d Dataset) { d.X[1][2] = math.NaN() }, "example 1: input column 2"},
		{func(d Dataset) { d.X[0][0] = math.Inf(1) }, "example 0: input column 0"},
		{func(d Dataset) { d.Y[1][0] = math.Inf(-1) }, "example 1: target column 0"},
	}
	for _, tc := range cases {
		d := base()
		tc.poison(d)
		err := d.Validate(3, 2)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("error %v, want one naming %q", err, tc.want)
		}
		if _, err := NewMLP([]int{3, 4, 2}, 0).Train(d, Dataset{}, TrainConfig{MaxEpochs: 1}); err == nil {
			t.Errorf("Train accepted a dataset with a non-finite entry (%s)", tc.want)
		}
	}
}

// TestPredictIntoMatchesReference checks the inference kernel against the
// per-sample forward pass and that it allocates nothing.
func TestPredictIntoMatchesReference(t *testing.T) {
	for _, sizes := range [][]int{PaperTopology(21, 8), {21, 7, 13, 8}, {21, 8}} {
		m := NewMLP(sizes, 14)
		d := randDataset(9, 21, 8, 15)
		out := make([]float64, m.OutputDim())
		scratch := make([]float64, m.ScratchLen())
		batch := m.PredictBatch(d.X)
		for i, x := range d.X {
			want := x
			for l := range m.weights {
				want = m.refLayerForward(l, want, l != len(m.weights)-1)
			}
			m.PredictInto(x, out, scratch)
			if j, ok := sameBits(out, want); !ok {
				t.Fatalf("%v row %d output %d: %v, reference %v", sizes, i, j, out[j], want[j])
			}
			if _, ok := sameBits(batch[i], want); !ok {
				t.Fatalf("%v row %d: PredictBatch differs from reference", sizes, i)
			}
		}
		if a := testing.AllocsPerRun(10, func() { m.PredictInto(d.X[0], out, scratch) }); a != 0 {
			t.Errorf("%v: PredictInto allocates %v times", sizes, a)
		}
		if i, ok := sameBits([]float64{m.Loss(d)}, []float64{m.refLoss(d)}); !ok {
			t.Errorf("%v: Loss differs from reference (%d)", sizes, i)
		}
	}
}
