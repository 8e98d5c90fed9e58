// Package nn implements the fully-connected neural network used by TOP-IL:
// dense layers with ReLU activations and a linear output layer, trained
// with mini-batch Adam on an MSE loss, with exponentially decaying learning
// rate and early stopping — the exact setup of the paper's Section "IL
// Model Creation and Training". A grid-search NAS (nas.go) selects the
// topology (the paper finds 4 hidden layers × 64 neurons).
//
// Only the standard library is used. Initialization is seeded, and the
// kernels (kernel.go) are order-preserving: a forward sum is the bias plus
// the inputs in index order, a back-propagated delta is zero plus the
// outputs in index order, a gradient is zero plus the batch's samples in
// batch order, and a loss is summed over samples in order. Register
// blocking and the split of a batch across GOMAXPROCS shards never change
// any of these orders, so a trained model is bit-identical on any core
// count and to the per-sample reference kept in the package tests.
package nn

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/telemetry"
)

// forwardPasses counts inference forward passes process-wide. A lazy
// handle binds to the default registry only when a binary installs one;
// uninstalled it is a few nanoseconds and zero allocations, so the
// deterministic hot path stays clean (counting has no time base, which is
// why this passes detrand where a clock read would not).
var forwardPasses = telemetry.LazyCounter{Name: "nn_forward_passes_total",
	Help: "MLP inference forward passes (Predict and PredictBatch rows)"}

// MLP is a multi-layer perceptron with ReLU hidden activations and a linear
// output layer.
//
// Concurrency: Predict, PredictBatch, PredictInto and the other read-only
// accessors never mutate the network (a forward pass writes only to
// buffers its caller owns: PredictInto's out and scratch, or the ones
// Predict and PredictBatch make per call), so a trained MLP may be shared
// by any number of goroutines — the serving layer's batcher depends on
// this. The guarantee holds only while no goroutine concurrently mutates
// parameters (training, MapParams, CopyFrom, UnmarshalJSON); mutate a
// Clone instead.
type MLP struct {
	sizes   []int       // layer widths, including input and output
	weights [][]float64 // weights[l][o*in+i], layer l maps sizes[l] -> sizes[l+1]
	biases  [][]float64
}

// NewMLP creates a network with the given layer sizes (input, hidden...,
// output), initialized with He-scaled Gaussian weights from the seeded RNG.
// It panics on fewer than two layers or a non-positive width: topology is
// fixed at design time, so a bad one is a programming error.
func NewMLP(sizes []int, seed int64) *MLP {
	if len(sizes) < 2 {
		panic("nn: need at least input and output layer")
	}
	for _, s := range sizes {
		if s <= 0 {
			panic("nn: non-positive layer size")
		}
	}
	rng := rand.New(rand.NewSource(seed))
	m := &MLP{sizes: append([]int(nil), sizes...)}
	for l := 0; l+1 < len(sizes); l++ {
		in, out := sizes[l], sizes[l+1]
		w := make([]float64, in*out)
		std := math.Sqrt(2 / float64(in))
		for i := range w {
			w[i] = rng.NormFloat64() * std
		}
		m.weights = append(m.weights, w)
		m.biases = append(m.biases, make([]float64, out))
	}
	return m
}

// Sizes returns the layer widths (copy).
func (m *MLP) Sizes() []int { return append([]int(nil), m.sizes...) }

// InputDim returns the expected input vector length.
func (m *MLP) InputDim() int { return m.sizes[0] }

// OutputDim returns the output vector length.
func (m *MLP) OutputDim() int { return m.sizes[len(m.sizes)-1] }

// NumParams returns the total number of trainable parameters.
func (m *MLP) NumParams() int {
	n := 0
	for l := range m.weights {
		n += len(m.weights[l]) + len(m.biases[l])
	}
	return n
}

// Predict runs a forward pass for a single input. It panics if the input
// dimension does not match the network's input layer.
func (m *MLP) Predict(x []float64) []float64 {
	out := make([]float64, m.OutputDim())
	var buf [stackScratch]float64
	m.PredictInto(x, out, m.scratch(buf[:]))
	return out
}

// PredictBatch runs forward passes for several inputs. The returned rows
// share one backing array (each capped at OutputDim, so appending to one
// cannot overwrite the next).
func (m *MLP) PredictBatch(xs [][]float64) [][]float64 {
	outN := m.OutputDim()
	flat := make([]float64, len(xs)*outN)
	out := make([][]float64, len(xs))
	var buf [stackScratch]float64
	scratch := m.scratch(buf[:])
	for i, x := range xs {
		out[i] = flat[i*outN : (i+1)*outN : (i+1)*outN]
		m.PredictInto(x, out[i], scratch)
	}
	return out
}

// stackScratch is the scratch Predict and PredictBatch keep on the stack:
// enough for hidden layers up to 128 wide.
const stackScratch = 256

// scratch returns buf if it can serve as PredictInto scratch, else a new
// buffer of ScratchLen.
func (m *MLP) scratch(buf []float64) []float64 {
	if n := m.ScratchLen(); n > len(buf) {
		return make([]float64, n)
	}
	return buf
}

// ScratchLen is the scratch length PredictInto needs: two buffers of the
// widest hidden layer, which the forward pass alternates between.
func (m *MLP) ScratchLen() int {
	w := 0
	for _, s := range m.sizes[1 : len(m.sizes)-1] {
		w = max(w, s)
	}
	return 2 * w
}

// PredictInto runs a forward pass for x and writes the OutputDim outputs
// to out. scratch must hold at least ScratchLen values; it is overwritten.
// The call allocates nothing and writes only to out and scratch, so any
// number of goroutines may share the model as long as each owns its
// buffers. It panics on a wrong input, output or scratch length.
//
//hot:per-epoch-inference-path
func (m *MLP) PredictInto(x, out, scratch []float64) {
	if len(x) != m.sizes[0] {
		panicDim("input", len(x), m.sizes[0])
	}
	if len(out) != m.OutputDim() {
		panicDim("output", len(out), m.OutputDim())
	}
	half := m.ScratchLen() / 2
	if len(scratch) < 2*half {
		panicDim("scratch", len(scratch), 2*half)
	}
	forwardPasses.Inc()
	last := len(m.weights) - 1
	in := x
	for l := range m.weights {
		dst := out
		if l != last {
			off := (l & 1) * half
			dst = scratch[off : off+m.sizes[l+1]]
		}
		layerForward(m.weights[l], m.biases[l], in, dst, l != last)
		in = dst
	}
}

// panicDim keeps the formatting allocation out of the //hot PredictInto.
//
//go:noinline
func panicDim(what string, got, want int) {
	panic(fmt.Sprintf("nn: %s dim %d, want %d", what, got, want))
}

// layerForward writes one dense layer's outputs for input in to out: w
// holds len(out) rows of len(in) weights and b the biases. Each output is
// its bias plus w[o][i]·in[i] summed in index order, then clamped at zero
// when relu is set. Four outputs share each load of in[i]; that changes
// no output's summation order, so the result is bit-identical to one
// output at a time.
func layerForward(w, b, in, out []float64, relu bool) {
	inN := len(in)
	o := 0
	for ; o+4 <= len(out); o += 4 {
		w0 := w[o*inN:][:inN]
		w1 := w[(o+1)*inN:][:inN]
		w2 := w[(o+2)*inN:][:inN]
		w3 := w[(o+3)*inN:][:inN]
		s0, s1, s2, s3 := b[o], b[o+1], b[o+2], b[o+3]
		for i, v := range in {
			s0 += w0[i] * v
			s1 += w1[i] * v
			s2 += w2[i] * v
			s3 += w3[i] * v
		}
		if relu {
			if s0 < 0 {
				s0 = 0
			}
			if s1 < 0 {
				s1 = 0
			}
			if s2 < 0 {
				s2 = 0
			}
			if s3 < 0 {
				s3 = 0
			}
		}
		out[o], out[o+1], out[o+2], out[o+3] = s0, s1, s2, s3
	}
	for ; o < len(out); o++ {
		row := w[o*inN:][:inN]
		sum := b[o]
		for i, v := range in {
			sum += row[i] * v
		}
		if relu && sum < 0 {
			sum = 0
		}
		out[o] = sum
	}
}

// Clone returns a deep copy of the network.
func (m *MLP) Clone() *MLP {
	c := &MLP{sizes: append([]int(nil), m.sizes...)}
	for l := range m.weights {
		c.weights = append(c.weights, append([]float64(nil), m.weights[l]...))
		c.biases = append(c.biases, append([]float64(nil), m.biases[l]...))
	}
	return c
}

// MapParams applies f to every weight and bias in place — e.g. to emulate
// the precision of a deployment target.
func (m *MLP) MapParams(f func(float64) float64) {
	for l := range m.weights {
		for i := range m.weights[l] {
			m.weights[l][i] = f(m.weights[l][i])
		}
		for i := range m.biases[l] {
			m.biases[l][i] = f(m.biases[l][i])
		}
	}
}

// CopyFrom overwrites this network's parameters with src's; it panics on
// a topology mismatch.
func (m *MLP) CopyFrom(src *MLP) {
	if len(m.sizes) != len(src.sizes) {
		panic("nn: CopyFrom topology mismatch")
	}
	for i := range m.sizes {
		if m.sizes[i] != src.sizes[i] {
			panic("nn: CopyFrom topology mismatch")
		}
	}
	for l := range m.weights {
		copy(m.weights[l], src.weights[l])
		copy(m.biases[l], src.biases[l])
	}
}

// mlpJSON is the serialization schema.
type mlpJSON struct {
	Sizes   []int       `json:"sizes"`
	Weights [][]float64 `json:"weights"`
	Biases  [][]float64 `json:"biases"`
}

// MarshalJSON implements json.Marshaler.
func (m *MLP) MarshalJSON() ([]byte, error) {
	return json.Marshal(mlpJSON{Sizes: m.sizes, Weights: m.weights, Biases: m.biases})
}

// UnmarshalJSON implements json.Unmarshaler.
func (m *MLP) UnmarshalJSON(data []byte) error {
	var j mlpJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	if len(j.Sizes) < 2 || len(j.Weights) != len(j.Sizes)-1 || len(j.Biases) != len(j.Sizes)-1 {
		return fmt.Errorf("nn: malformed model JSON")
	}
	for l := 0; l+1 < len(j.Sizes); l++ {
		if len(j.Weights[l]) != j.Sizes[l]*j.Sizes[l+1] || len(j.Biases[l]) != j.Sizes[l+1] {
			return fmt.Errorf("nn: layer %d shape mismatch", l)
		}
	}
	m.sizes = j.Sizes
	m.weights = j.Weights
	m.biases = j.Biases
	return nil
}
