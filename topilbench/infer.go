package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/serve"
)

const (
	modelName = "topil" // data/topil.json, served by name
	inferRate = 150     // requests/s
	// latencyLimit bounds the p99 service time at saturation for max_rps
	// to count: 5% of the 500 ms migration epoch the daemon's inference
	// serves.
	latencyLimit      = 25 * time.Millisecond
	maxRowsPerRequest = 8 // one row per running application
	// saturationRequests is the size of the back-to-back run for max_rps,
	// timed in saturationChunks chunks.
	saturationRequests = 2500
	saturationChunks   = 5
)

// inferEnv is one set-up of the infer workload: a serve.Server on a
// loopback listener, a client with one connection per sender, and the
// feature rows requests are drawn from with their expected outputs.
type inferEnv struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	rows   [][]float64
	want   [][]float64 // the loaded model's Predict on each row

	serving sync.WaitGroup
}

func setupInfer(b *Bench) (*inferEnv, error) {
	d, err := experiments.NewPipeline(experiments.QuickScale()).Dataset()
	if err != nil {
		return nil, err
	}
	m, err := core.LoadModel(b.data(modelName+".json"), 0, 0)
	if err != nil {
		return nil, err
	}
	env := &inferEnv{}
	for _, e := range d.Examples {
		env.rows = append(env.rows, e.Features)
		env.want = append(env.want, m.Predict(e.Features))
	}
	env.srv = serve.NewServer(serve.Config{ModelsDir: b.data(""), Workers: 1})
	h := env.srv.Handler()
	if b.Tr != nil {
		h = traceHandler(b.Tr, "serve.handler", h)
	}
	if env.url, env.hs, err = serveLoopback(h, &env.serving); err != nil {
		env.srv.Shutdown(context.Background())
		return nil, err
	}
	env.client = newClient()
	// Open every sender's connection and load the model before timing.
	for i := 0; i < 4*Senders(); i++ {
		if _, err := env.infer([]byte(fmt.Sprintf(`{"model":%q,"inputs":[%s]}`, modelName, jsonRow(env.rows[i]))), -1); err != nil {
			env.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return env, nil
}

func (env *inferEnv) close() {
	env.client.CloseIdleConnections()
	_ = env.hs.Shutdown(context.Background()) // idle connections only: every request has returned
	env.serving.Wait()
	env.srv.Shutdown(context.Background())
}

// newClient returns an HTTP client with at most one connection per sender.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     Senders(),
		MaxIdleConnsPerHost: Senders(),
		DisableCompression:  true,
	}}
}

// traceHandler wraps a handler in a span per request; the request's
// X-Bench-Req header ties the span to the client's spans.
func traceHandler(tr *Tracer, name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := strconv.ParseInt(r.Header.Get("X-Bench-Req"), 10, 64)
		if err != nil {
			req = -1
		}
		sp := tr.Start(name, 0, req)
		h.ServeHTTP(w, r)
		sp.End()
	})
}

func jsonRow(r []float64) string {
	b, _ := json.Marshal(r) // a []float64 of finite values always encodes
	return string(b)
}

// infer posts one request and decodes a 200 reply.
func (env *inferEnv) infer(body []byte, req int) (*serve.InferResponse, error) {
	hr, err := http.NewRequest(http.MethodPost, env.url+"/v1/infer", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set("X-Bench-Req", strconv.Itoa(req))
	resp, err := env.client.Do(hr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var out serve.InferResponse
	return &out, json.Unmarshal(data, &out)
}

// inferLoad is one open-loop phase: its schedule, the rows of each request
// and the pre-encoded bodies.
type inferLoad struct {
	due   []time.Duration
	rows  [][]int
	body  [][]byte
	reply []*serve.InferResponse
}

func (env *inferEnv) makeLoad(seed int64, due []time.Duration) *inferLoad {
	l := &inferLoad{due: due}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for range l.due {
		idx := make([]int, 1+rng.Intn(maxRowsPerRequest))
		var buf bytes.Buffer
		fmt.Fprintf(&buf, `{"model":%q,"inputs":[`, modelName)
		for k := range idx {
			idx[k] = rng.Intn(len(env.rows))
			if k > 0 {
				buf.WriteByte(',')
			}
			buf.WriteString(jsonRow(env.rows[idx[k]]))
		}
		buf.WriteString("]}")
		l.rows = append(l.rows, idx)
		l.body = append(l.body, buf.Bytes())
	}
	l.reply = make([]*serve.InferResponse, len(l.due))
	return l
}

// run sends the load open-loop and checks every reply bit for bit against
// the model's Predict on the same rows. reqBase offsets the request IDs
// spans are tagged with.
func (env *inferEnv) run(b *Bench, l *inferLoad, reqBase int, rep *Report) (time.Time, []Sample) {
	start, samples := OpenLoop(l.due, Senders(), func(i int) error {
		out, err := env.infer(l.body[i], reqBase+i)
		if err != nil {
			return err
		}
		if len(out.Outputs) != len(l.rows[i]) {
			return fmt.Errorf("%d outputs for %d rows", len(out.Outputs), len(l.rows[i]))
		}
		for k, r := range l.rows[i] {
			if !sameBits(out.Outputs[k], env.want[r]) {
				return fmt.Errorf("%w: row %d of request %d differs from Predict", errWrong, k, i)
			}
		}
		l.reply[i] = out
		return nil
	})
	for i, s := range samples {
		rep.Attempted++
		if s.Err != nil {
			rep.mismatch("infer request %d: %v", reqBase+i, s.Err)
		}
		if b.Tr != nil {
			b.Tr.Record("serve.client_wait", 0, int64(reqBase+i), start.Add(s.Due), start.Add(s.Sent))
			b.Tr.Record("serve.round_trip", 0, int64(reqBase+i), start.Add(s.Sent), start.Add(s.Done))
		}
	}
	return start, samples
}

var errWrong = errors.New("wrong output")

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// latencies returns the due→done latencies in ms, in due order.
func latencies(samples []Sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = ms(s.Latency())
	}
	return out
}

// saturation sends n requests back to back on every sender, so the
// backlog never empties: the completion rate is the highest rate the load
// generator can offer without a growing backlog. The rate is the median
// over saturationChunks consecutive chunks of requests, and the returned
// percentile is the p99 of the requests' service time (sent to reply).
func (env *inferEnv) saturation(b *Bench, n int, rep *Report) (float64, Percentile) {
	l := env.makeLoad(b.Seed+1, make([]time.Duration, n))
	_, samples := env.run(b, l, 1_000_000, rep)
	var service Dist
	for _, s := range samples {
		service.Add(ms(s.Done - s.Sent))
	}
	return chunkRate(samples, saturationChunks), service.Percentile(0.99)
}

// chunkRate splits samples (in claim order) into k chunks and returns the
// median over chunks of requests completed per second of chunk wall time.
func chunkRate(samples []Sample, k int) float64 {
	var rates []float64
	for c := 0; c < k; c++ {
		chunk := samples[c*len(samples)/k : (c+1)*len(samples)/k]
		first, last := chunk[0].Sent, chunk[0].Done
		for _, s := range chunk {
			first, last = min(first, s.Sent), max(last, s.Done)
		}
		rates = append(rates, float64(len(chunk))/(last-first).Seconds())
	}
	return median(rates)
}

// runInfer measures an open-loop Poisson stream of POST /v1/infer at
// inferRate for three quarters of the window, then the saturation rate
// (max_rps). A window under 10 s, as in a companion pass, skips the latter.
func runInfer(b *Bench, window time.Duration, rep *Report) error {
	var env *inferEnv
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if env != nil {
			env.close()
		}
		t0 := time.Now()
		var err error
		if env, err = setupInfer(b); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer env.close()

	tel := env.srv.Telemetry()
	counter := func(name string) float64 { return tel.CounterVec(name, "", "model").With(modelName).Value() }
	sizes := tel.HistogramVec("serve_batcher_batch_size", "", nil, "model").With(modelName)
	timer0, full0, rej0 := counter("serve_batcher_flush_timer_total"), counter("serve_batcher_flush_full_total"), counter("serve_batcher_rejected_total")
	batches0, rows0 := sizes.Count(), sizes.Sum()

	main := env.makeLoad(b.Seed, Schedule(b.Seed, inferRate, window*3/4))
	_, samples := env.run(b, main, 0, rep)

	timers, fulls := counter("serve_batcher_flush_timer_total")-timer0, counter("serve_batcher_flush_full_total")-full0
	rejected := counter("serve_batcher_rejected_total") - rej0
	batches, batchRows := float64(sizes.Count()-batches0), sizes.Sum()-rows0

	lat := latencies(samples)
	k := segmentsFor(len(lat))
	p50, tail := Segmented(lat, k, 10, 0.5), Segmented(lat, k, 10, 0.5, 0.9, 0.99)
	rep.e2e("p50_ms", p50.Value, "ms")
	rep.Notes["latency"] = map[string]any{"p50": p50, "tail": tail, "segments": k,
		"p99_unsegmented": Segmented(lat, 1, 10, 0.99)}
	maxRPS := 0.0
	if window >= 10*time.Second {
		var service Percentile
		maxRPS, service = env.saturation(b, saturationRequests, rep)
		rep.Notes["saturation_service_p99_ms"] = service
		if service.Value > ms(latencyLimit) {
			rep.Notes["saturation_over_limit"] = true
		}
	}
	rep.e2e("max_rps", maxRPS, "1/s")
	rep.common(setups)
	progress("infer: %d requests at %d/s, p50 %.3f ms, p%g %.3f ms (segment medians, %d beyond); max_rps %.1f",
		p50.N, inferRate, p50.Value, 100*tail.Q, tail.Value, tail.Beyond, maxRPS)

	if b.Tr != nil {
		// Only the main phase's requests: not warm-up, not saturation.
		byReq := func(name string) map[int64]float64 {
			out := map[int64]float64{}
			for _, s := range b.Tr.spansNamed(name) {
				if s.Req >= 0 && s.Req < int64(len(main.due)) {
					out[s.Req] = (s.End - s.Start) / 1e3
				}
			}
			return out
		}
		var wait, rtt, handler, transport, wall, dev Dist
		handlerOf := byReq("serve.handler")
		for _, v := range byReq("serve.client_wait") {
			wait.Add(v)
		}
		for req, v := range byReq("serve.round_trip") {
			rtt.Add(v)
			if h, ok := handlerOf[req]; ok {
				handler.Add(h)
				transport.Add(v - h)
			}
		}
		for _, r := range main.reply {
			if r != nil {
				wall.Add(r.WallUs)
				dev.Add(r.DeviceLatencyUs)
			}
		}
		rep.layer("serve.client_wait_ms.p50", wait.Percentile(0.5).Value, "ms")
		rep.layer("serve.client_wait_ms.p99", wait.Percentile(0.99).Value, "ms")
		rep.layer("serve.handler_ms.p50", handler.Percentile(0.5).Value, "ms")
		rep.layer("serve.handler_ms.p99", handler.Percentile(0.99).Value, "ms")
		rep.layer("serve.round_trip_ms.p50", rtt.Percentile(0.5).Value, "ms")
		rep.layer("serve.transport_ms.p50", transport.Percentile(0.5).Value, "ms")
		rep.layer("serve.batch_wall_us.p50", wall.Percentile(0.5).Value, "us")
		rep.layer("serve.batch_wall_us.p99", wall.Percentile(0.99).Value, "us")
		rep.layer("serve.batch_rows.mean", batchRows/batches, "rows")
		rep.layer("serve.flush_timer_frac", timers/(timers+fulls), "fraction")
		rep.layer("serve.rejected", rejected, "count")
		rep.layer("serve.infer_samples", float64(p50.N), "count")
		// Simulated device time is the same on every run, so it is context
		// for the record, not a metric.
		rep.Notes["npu_model_latency_us_p50"] = dev.Percentile(0.5)
	}
	return nil
}
