package nn

import (
	"math"
	"math/rand"
)

// The per-sample training path the batch kernel replaced, kept as the
// differential oracle: every buffer is allocated per sample and every sum
// runs in the plain nested-loop order. TestTrainMatchesReference pins the
// kernel to it bit for bit.

// refLayerForward computes layer l's output; relu selects the activation.
func (m *MLP) refLayerForward(l int, in []float64, relu bool) []float64 {
	inN, outN := m.sizes[l], m.sizes[l+1]
	w, b := m.weights[l], m.biases[l]
	out := make([]float64, outN)
	for o := 0; o < outN; o++ {
		sum := b[o]
		row := w[o*inN : (o+1)*inN]
		for i, v := range in {
			sum += row[i] * v
		}
		if relu && sum < 0 {
			sum = 0
		}
		out[o] = sum
	}
	return out
}

// forwardTrace runs a forward pass retaining all activations for backprop.
// acts[0] is the input, acts[L] the output (pre-activation values are not
// needed separately because ReLU's gradient can be derived from the
// post-activation sign).
func (m *MLP) forwardTrace(x []float64) [][]float64 {
	acts := make([][]float64, len(m.sizes))
	acts[0] = x
	last := len(m.weights) - 1
	for l := range m.weights {
		acts[l+1] = m.refLayerForward(l, acts[l], l != last)
	}
	return acts
}

// backprop computes parameter gradients for one sample, accumulating into
// gw/gb, and returns the sample's MSE loss. target must have OutputDim
// entries.
func (m *MLP) backprop(x, target []float64, gw, gb [][]float64) float64 {
	acts := m.forwardTrace(x)
	out := acts[len(acts)-1]
	n := float64(len(out))
	// delta = dL/d(pre-activation) at the output (linear): 2(y-t)/n.
	delta := make([]float64, len(out))
	loss := 0.0
	for o := range out {
		d := out[o] - target[o]
		loss += d * d
		delta[o] = 2 * d / n
	}
	loss /= n

	for l := len(m.weights) - 1; l >= 0; l-- {
		inN := m.sizes[l]
		in := acts[l]
		w := m.weights[l]
		for o, d := range delta {
			gb[l][o] += d
			row := gw[l][o*inN : (o+1)*inN]
			for i, v := range in {
				row[i] += d * v
			}
		}
		if l == 0 {
			break
		}
		// Propagate delta through layer l and the ReLU of layer l-1's
		// output (acts[l] are post-ReLU: zero entries had negative
		// pre-activations, so their gradient is zero).
		prev := make([]float64, inN)
		for o, d := range delta {
			row := w[o*inN : (o+1)*inN]
			for i := range prev {
				prev[i] += d * row[i]
			}
		}
		for i := range prev {
			if acts[l][i] <= 0 {
				prev[i] = 0
			}
		}
		delta = prev
	}
	return loss
}

// refLoss is the mean MSE over d through the per-sample forward pass.
func (m *MLP) refLoss(d Dataset) float64 {
	if d.Len() == 0 {
		return 0
	}
	total := 0.0
	last := len(m.weights) - 1
	for i := range d.X {
		out := d.X[i]
		for l := range m.weights {
			out = m.refLayerForward(l, out, l != last)
		}
		s := 0.0
		for o := range out {
			diff := out[o] - d.Y[i][o]
			s += diff * diff
		}
		total += s / float64(len(out))
	}
	return total / float64(d.Len())
}

// trainReference is Train on the per-sample path: the same shuffle, Adam,
// clipping, decay and early stopping, with backprop and refLoss in place
// of the batch kernel.
func (m *MLP) trainReference(train, val Dataset, cfg TrainConfig) TrainResult {
	cfg = cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	adam := newAdamState(m)
	gw := make([][]float64, len(m.weights))
	gb := make([][]float64, len(m.weights))
	for l := range m.weights {
		gw[l] = make([]float64, len(m.weights[l]))
		gb[l] = make([]float64, len(m.biases[l]))
	}

	best := m.Clone()
	bestVal := math.Inf(1)
	sinceBest := 0
	res := TrainResult{BestValLoss: bestVal}

	order := make([]int, train.Len())
	for i := range order {
		order[i] = i
	}

	for epoch := 0; epoch < cfg.MaxEpochs; epoch++ {
		lr := cfg.LR0 * math.Pow(cfg.LRDecay, float64(epoch))
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

		epochLoss := 0.0
		for start := 0; start < len(order); start += cfg.BatchSize {
			endIdx := min(start+cfg.BatchSize, len(order))
			for l := range gw {
				clear(gw[l])
				clear(gb[l])
			}
			batchLoss := 0.0
			for _, i := range order[start:endIdx] {
				batchLoss += m.backprop(train.X[i], train.Y[i], gw, gb)
			}
			n := float64(endIdx - start)
			for l := range gw {
				scaleSlice(gw[l], 1/n)
				scaleSlice(gb[l], 1/n)
			}
			if cfg.GradClip > 0 {
				clipGradients(gw, gb, cfg.GradClip)
			}
			adam.apply(m, gw, gb, lr)
			if cfg.WeightDecay > 0 {
				decay := 1 - lr*cfg.WeightDecay
				if decay < 0 {
					decay = 0
				}
				for l := range m.weights {
					scaleSlice(m.weights[l], decay)
				}
			}
			epochLoss += batchLoss
		}
		epochLoss /= float64(train.Len())

		valLoss := epochLoss
		if val.Len() > 0 {
			valLoss = m.refLoss(val)
		}
		res.TrainHistory = append(res.TrainHistory, epochLoss)
		res.ValHistory = append(res.ValHistory, valLoss)
		res.Epochs = epoch + 1
		res.TrainLoss = epochLoss

		if valLoss < bestVal {
			bestVal = valLoss
			best.CopyFrom(m)
			sinceBest = 0
		} else {
			sinceBest++
			if sinceBest >= cfg.Patience {
				res.StoppedEarly = true
				break
			}
		}
	}
	m.CopyFrom(best)
	res.BestValLoss = bestVal
	return res
}
