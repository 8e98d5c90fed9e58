package nn

import "sync"

// kernel.go: the mini-batch training kernel. One workspace per Train call
// holds every buffer a batch needs, and each batch runs in two phases:
//
//   - phase A, per sample: the forward pass through every layer, the
//     sample's loss and output delta, and every layer's back-propagated
//     delta;
//   - phase B, per gradient row: each weight row and bias of every layer
//     sums its samples in batch order, then scales by 1/batch.
//
// Phase A splits the batch's samples and phase B the gradient rows into at
// most GOMAXPROCS fixed shards (fork/join per phase). No element's
// summation order depends on the shard it lands in, so the result is
// bit-identical at any shard count.

// workspace holds one Train call's batch buffers and its shard workers.
type workspace struct {
	m      *MLP
	cap    int // rows per batch the buffers hold
	shards int

	n        int         // rows in the current batch
	bx, by   [][]float64 // the current batch's inputs and targets
	rowBuf   [][]float64 // backing for bx and by when the batch is gathered
	withGrad bool        // phase A computes deltas, not just the loss
	scale    float64     // 1/n, applied to the gradients in phase B

	act   [][]float64 // act[l], l ≥ 1: layer l-1's outputs, cap×sizes[l]
	delta [][]float64 // delta[l]: dLoss/d(layer l's pre-activation), cap×sizes[l+1]
	loss  []float64   // per-sample loss
	gw    [][]float64 // batch-mean gradients, shaped like the weights
	gb    [][]float64

	rowLayer []int // phase B's global row r belongs to layer rowLayer[r] ...
	rowOut   []int // ... as its output rowOut[r]
	rowCut   []int // phase B shard k owns global rows [rowCut[k], rowCut[k+1])

	tasks   chan task
	done    chan struct{}
	workers sync.WaitGroup
}

// task is one shard of one phase.
type task struct {
	phaseB bool
	k, of  int // shard k of `of`
}

// newWorkspace allocates buffers for batches of up to capRows rows and
// starts shards-1 workers (the caller's goroutine runs shard 0). The
// caller must call close.
func newWorkspace(m *MLP, capRows, shards int) *workspace {
	capRows = max(capRows, 1)
	shards = max(min(shards, capRows), 1)
	L := len(m.weights)
	ws := &workspace{
		m: m, cap: capRows, shards: shards,
		rowBuf: make([][]float64, 2*capRows),
		act:    make([][]float64, L),
		delta:  make([][]float64, L),
		loss:   make([]float64, capRows),
		gw:     make([][]float64, L),
		gb:     make([][]float64, L),
	}
	cost := 0
	for l := range m.weights {
		if l > 0 {
			ws.act[l] = make([]float64, capRows*m.sizes[l])
		}
		ws.delta[l] = make([]float64, capRows*m.sizes[l+1])
		ws.gw[l] = make([]float64, len(m.weights[l]))
		ws.gb[l] = make([]float64, len(m.biases[l]))
		for o := 0; o < m.sizes[l+1]; o++ {
			ws.rowLayer = append(ws.rowLayer, l)
			ws.rowOut = append(ws.rowOut, o)
		}
		cost += m.sizes[l+1] * (m.sizes[l] + 1)
	}
	// Cut the rows into shards of about equal work: a row of layer l
	// costs sizes[l] weights plus its bias.
	ws.rowCut = make([]int, shards+1)
	acc, k := 0, 1
	for r, l := range ws.rowLayer {
		for k < shards && acc*shards >= k*cost {
			ws.rowCut[k] = r
			k++
		}
		acc += m.sizes[l] + 1
	}
	for ; k <= shards; k++ {
		ws.rowCut[k] = len(ws.rowLayer)
	}
	if shards > 1 {
		// Both channels hold one phase's shards-1 sends, so a fork never
		// blocks on a send and a worker never blocks on its reply.
		ws.tasks = make(chan task, shards-1)
		ws.done = make(chan struct{}, shards-1)
		ws.workers.Add(shards - 1)
		for i := 1; i < shards; i++ {
			go ws.worker()
		}
	}
	return ws
}

// close stops the workers and waits for them to exit.
func (ws *workspace) close() {
	if ws.tasks != nil {
		close(ws.tasks)
		ws.workers.Wait()
	}
}

// worker runs the shards it receives until close.
func (ws *workspace) worker() {
	defer ws.workers.Done()
	for t := range ws.tasks {
		ws.run(t)
		ws.done <- struct{}{}
	}
}

// fork runs every shard of one phase and returns when all have finished.
func (ws *workspace) fork(phaseB bool, of int) {
	for k := 1; k < of; k++ {
		ws.tasks <- task{phaseB: phaseB, k: k, of: of}
	}
	ws.run(task{phaseB: phaseB, k: 0, of: of})
	for k := 1; k < of; k++ {
		<-ws.done
	}
}

// run executes one shard of one phase.
func (ws *workspace) run(t task) {
	if t.phaseB {
		for r := ws.rowCut[t.k]; r < ws.rowCut[t.k+1]; r++ {
			ws.gradRow(ws.rowLayer[r], ws.rowOut[r])
		}
		return
	}
	for s := t.k * ws.n / t.of; s < (t.k+1)*ws.n/t.of; s++ {
		ws.sample(s)
	}
}

// gradients computes the batch-mean gradients of the rows of d listed in
// rows (at most cap of them) into gw and gb, and returns the sum of the
// per-sample losses in batch order.
func (ws *workspace) gradients(d Dataset, rows []int) float64 {
	ws.n = len(rows)
	ws.bx, ws.by = ws.rowBuf[:ws.n], ws.rowBuf[ws.cap:ws.cap+ws.n]
	for s, i := range rows {
		ws.bx[s], ws.by[s] = d.X[i], d.Y[i]
	}
	ws.withGrad = true
	ws.scale = 1 / float64(ws.n)
	ws.fork(false, min(ws.shards, ws.n))
	ws.fork(true, ws.shards)
	return ws.lossSum(0)
}

// meanLoss returns the model's mean per-sample loss over d (non-empty),
// equal bit for bit to MLP.Loss.
func (ws *workspace) meanLoss(d Dataset) float64 {
	ws.withGrad = false
	total := 0.0
	for start := 0; start < d.Len(); start += ws.cap {
		end := min(start+ws.cap, d.Len())
		ws.n = end - start
		ws.bx, ws.by = d.X[start:end], d.Y[start:end]
		ws.fork(false, min(ws.shards, ws.n))
		total = ws.lossSum(total)
	}
	return total / float64(d.Len())
}

// lossSum adds the current batch's per-sample losses to total in order.
func (ws *workspace) lossSum(total float64) float64 {
	for _, l := range ws.loss[:ws.n] {
		total += l
	}
	return total
}

// sample is phase A for sample s: the forward pass, the loss and, when
// gradients are wanted, every layer's delta.
func (ws *workspace) sample(s int) {
	m := ws.m
	last := len(m.weights) - 1
	in := ws.bx[s]
	for l := range m.weights {
		var out []float64
		if l == last {
			out = ws.delta[last][s*m.sizes[l+1]:][:m.sizes[l+1]]
		} else {
			out = ws.act[l+1][s*m.sizes[l+1]:][:m.sizes[l+1]]
		}
		layerForward(m.weights[l], m.biases[l], in, out, l != last)
		in = out
	}
	// The output layer is linear; its activations sit in delta[last]
	// until they are replaced by dLoss/d(output) = 2(y-t)/n.
	out, y := in, ws.by[s]
	if !ws.withGrad {
		ws.loss[s] = sampleLoss(out, y)
		return
	}
	n := float64(len(out))
	loss := 0.0
	for o := range out {
		d := out[o] - y[o]
		loss += d * d
		out[o] = 2 * d / n
	}
	ws.loss[s] = loss / n
	for l := last; l > 0; l-- {
		inN := m.sizes[l]
		prev := ws.delta[l-1][s*inN:][:inN]
		backLayer(m.weights[l], ws.delta[l][s*m.sizes[l+1]:][:m.sizes[l+1]], prev)
		// act[l] is post-ReLU: a zero entry had a negative pre-activation,
		// so its gradient is zero.
		for i, a := range ws.act[l][s*inN:][:inN] {
			if a <= 0 {
				prev[i] = 0
			}
		}
	}
}

// sampleLoss is one sample's mean squared error.
func sampleLoss(out, y []float64) float64 {
	s := 0.0
	for o := range out {
		diff := out[o] - y[o]
		s += diff * diff
	}
	return s / float64(len(out))
}

// backLayer writes prev = Wᵀ·delta for a layer with weights w
// (len(delta) rows of len(prev)): each prev[i] is zero plus
// delta[o]·w[o][i] summed in index order of o. Four delta rows share each
// load and store of prev[i].
func backLayer(w, delta, prev []float64) {
	inN := len(prev)
	clear(prev)
	o := 0
	for ; o+4 <= len(delta); o += 4 {
		d0, d1, d2, d3 := delta[o], delta[o+1], delta[o+2], delta[o+3]
		w0 := w[o*inN:][:inN]
		w1 := w[(o+1)*inN:][:inN]
		w2 := w[(o+2)*inN:][:inN]
		w3 := w[(o+3)*inN:][:inN]
		for i := range prev {
			p := prev[i]
			p += d0 * w0[i]
			p += d1 * w1[i]
			p += d2 * w2[i]
			p += d3 * w3[i]
			prev[i] = p
		}
	}
	for ; o < len(delta); o++ {
		d := delta[o]
		row := w[o*inN:][:inN]
		for i := range prev {
			prev[i] += d * row[i]
		}
	}
}

// input returns layer l's input for sample s.
func (ws *workspace) input(l, s int) []float64 {
	if l == 0 {
		return ws.bx[s]
	}
	return ws.act[l][s*ws.m.sizes[l]:][:ws.m.sizes[l]]
}

// gradRow is phase B for output o of layer l: its weight row and bias
// gradient are zero plus the batch's samples in batch order, four samples
// per pass over the row, then scaled by 1/n.
func (ws *workspace) gradRow(l, o int) {
	inN, outN := ws.m.sizes[l], ws.m.sizes[l+1]
	g := ws.gw[l][o*inN:][:inN]
	clear(g)
	delta := ws.delta[l]
	gb := 0.0
	s := 0
	for ; s+4 <= ws.n; s += 4 {
		d0, d1, d2, d3 := delta[s*outN+o], delta[(s+1)*outN+o], delta[(s+2)*outN+o], delta[(s+3)*outN+o]
		a0, a1, a2, a3 := ws.input(l, s)[:inN], ws.input(l, s+1)[:inN], ws.input(l, s+2)[:inN], ws.input(l, s+3)[:inN]
		gb += d0
		gb += d1
		gb += d2
		gb += d3
		for i := range g {
			r := g[i]
			r += d0 * a0[i]
			r += d1 * a1[i]
			r += d2 * a2[i]
			r += d3 * a3[i]
			g[i] = r
		}
	}
	for ; s < ws.n; s++ {
		d := delta[s*outN+o]
		a := ws.input(l, s)[:inN]
		gb += d
		for i := range g {
			g[i] += d * a[i]
		}
	}
	scaleSlice(g, ws.scale)
	ws.gb[l][o] = gb * ws.scale
}
