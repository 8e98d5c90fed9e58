package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
)

const (
	simRate     = 10.0 // jobs/s: about a fifth of max_rps on a 2-CPU host
	simReplicas = 2
	simDuration = 600 // simulated seconds per job
	simApps     = 20
	simSeeds    = 8 // simulator seeds per catalog configuration
	// jobTimeout bounds the wait for a phase's jobs after the last was
	// sent, so a stuck job fails the run instead of hanging it.
	jobTimeout = 30 * time.Second
)

// simJob is one catalog entry: a paper-scale POST /v1/sim job whose result
// is recorded in data/sim_golden.json.
type simJob struct {
	Policy, Backend string
	Fan             bool
	Seed            int64
}

func (j simJob) key() string {
	return fmt.Sprintf("%s/%s/fan=%v/seed%d", j.Policy, j.Backend, j.Fan, j.Seed)
}

func (j simJob) request() serve.SimRequest {
	fan := j.Fan
	r := serve.SimRequest{Policy: j.Policy, Backend: j.Backend, Duration: simDuration,
		Seed: j.Seed, Fan: &fan, NumJobs: simApps, InstrScale: 1}
	if j.Policy == "TOP-IL" {
		r.Model = modelName
	}
	return r
}

// simCatalog is every job the simjobs workload can send: TOP-IL on the NPU
// and CPU backends and GTS ondemand/powersave, each with and without the
// fan, over simSeeds simulator seeds.
func simCatalog() []simJob {
	var out []simJob
	for _, p := range [][2]string{{"TOP-IL", "npu"}, {"TOP-IL", "cpu"}, {"GTS/ondemand", ""}, {"GTS/powersave", ""}} {
		for _, fan := range []bool{true, false} {
			for s := int64(1); s <= simSeeds; s++ {
				out = append(out, simJob{Policy: p[0], Backend: p[1], Fan: fan, Seed: s})
			}
		}
	}
	return out
}

// simOutcome is the part of a job result that must match the golden file.
type simOutcome struct {
	PeakTemp        float64 `json:"peakTemp"`
	AvgTemp         float64 `json:"avgTemp"`
	Violations      int     `json:"violations"`
	Migrations      int     `json:"migrations"`
	TotalEnergyJ    float64 `json:"totalEnergyJ"`
	ThrottleSeconds float64 `json:"throttleSeconds"`
	OverheadSeconds float64 `json:"overheadSeconds"`
}

func outcomeOf(r *serve.SimResult) simOutcome {
	return simOutcome{r.PeakTemp, r.AvgTemp, r.Violations, r.Migrations, r.TotalEnergyJ,
		r.ThrottleSeconds, r.OverheadSeconds}
}

// checkSim compares a job's result with its golden outcome.
func checkSim(golden map[string]simOutcome, j simJob, snap *serve.JobSnapshot) error {
	want, ok := golden[j.key()]
	switch {
	case !ok:
		return fmt.Errorf("no golden result for %s", j.key())
	case snap.State != serve.StateDone || snap.Result == nil:
		return fmt.Errorf("%s ended %s: %s", j.key(), snap.State, snap.Error)
	case outcomeOf(snap.Result) != want:
		return fmt.Errorf("%w: %s: got %+v, golden %+v", errWrong, j.key(), outcomeOf(snap.Result), want)
	}
	return nil
}

// timedStore wraps a replica's serve.JobStore: it times every durable
// append and reports each job's terminal record once it is on disk.
type timedStore struct {
	serve.JobStore
	tr         *Tracer
	onTerminal func(id string, at time.Time)
}

func (s *timedStore) Append(rec serve.JobRecord) error {
	sp := s.tr.Start("cluster.journal_append", 0, jobNumber(rec.ID))
	err := s.JobStore.Append(rec)
	sp.End()
	switch rec.State {
	case serve.StateDone, serve.StateFailed, serve.StateCanceled:
		s.onTerminal(rec.ID, time.Now())
	}
	return err
}

// jobNumber recovers n from a benchmark job ID "job-n" (-1 otherwise).
func jobNumber(id string) int64 {
	var n int64 = -1
	if _, err := fmt.Sscanf(id, "job-%d", &n); err != nil {
		return -1
	}
	return n
}

// simEnv is one set-up of the simjobs workload: two durable replicas (one
// sim worker each) behind a cluster.Router, all on loopback listeners.
type simEnv struct {
	golden   map[string]simOutcome
	stores   []*cluster.JournalStore
	servers  []*serve.Server
	https    []*http.Server
	router   *cluster.Router
	routerHS *http.Server
	url      string
	client   *http.Client
	serving  sync.WaitGroup

	mu       sync.Mutex
	terminal map[string]time.Time
	waiters  map[string]chan struct{}
}

func (env *simEnv) markTerminal(id string, at time.Time) {
	env.mu.Lock()
	defer env.mu.Unlock()
	env.terminal[id] = at
	if ch, ok := env.waiters[id]; ok {
		close(ch)
		delete(env.waiters, id)
	}
}

// await returns a channel closed once the job's terminal record is durable.
func (env *simEnv) await(id string) <-chan struct{} {
	env.mu.Lock()
	defer env.mu.Unlock()
	ch := make(chan struct{})
	if _, ok := env.terminal[id]; ok {
		close(ch)
	} else {
		env.waiters[id] = ch
	}
	return ch
}

// serveLoopback serves h on a fresh loopback port until the returned
// server is shut down; wg counts the serving goroutine.
func serveLoopback(h http.Handler, wg *sync.WaitGroup) (string, *http.Server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			progress("server: %v", err)
		}
	}()
	return "http://" + ln.Addr().String(), hs, nil
}

func setupSimjobs(b *Bench, dir string) (*simEnv, error) {
	env := &simEnv{terminal: map[string]time.Time{}, waiters: map[string]chan struct{}{}}
	data, err := os.ReadFile(b.data("sim_golden.json"))
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &env.golden); err != nil {
		return nil, fmt.Errorf("sim_golden.json: %w", err)
	}
	var reps []cluster.Replica
	for i := 0; i < simReplicas; i++ {
		st, err := cluster.OpenJournalStore(filepath.Join(dir, fmt.Sprintf("r%d", i)))
		if err != nil {
			env.close()
			return nil, err
		}
		env.stores = append(env.stores, st)
		ts := &timedStore{JobStore: st, tr: b.Tr, onTerminal: env.markTerminal}
		srv := serve.NewServer(serve.Config{ModelsDir: b.data(""), Workers: 1, QueueCap: 256, Store: ts})
		env.servers = append(env.servers, srv)
		h := srv.Handler()
		if b.Tr != nil {
			h = traceJobHandler(b.Tr, h)
		}
		url, hs, err := serveLoopback(h, &env.serving)
		if err != nil {
			env.close()
			return nil, err
		}
		env.https = append(env.https, hs)
		reps = append(reps, cluster.Replica{Name: fmt.Sprintf("r%d", i), URL: url})
	}
	if env.router, err = cluster.NewRouter(cluster.RouterConfig{Replicas: reps}); err != nil {
		env.close()
		return nil, err
	}
	if env.url, env.routerHS, err = serveLoopback(env.router.Handler(), &env.serving); err != nil {
		env.close()
		return nil, err
	}
	env.client = newClient()
	// A few short jobs load the model and open connections.
	for i := 0; i < 2*simReplicas; i++ {
		fan := true
		req := serve.SimRequest{Policy: "TOP-IL", Model: modelName, Duration: 1, Fan: &fan, NumJobs: 1, InstrScale: 0.01}
		id := fmt.Sprintf("warm-%d", i)
		err := env.submit(id, req)
		if err == nil {
			select {
			case <-env.await(id):
			case <-time.After(jobTimeout):
				err = fmt.Errorf("job %s did not finish", id)
			}
		}
		if err != nil {
			env.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return env, nil
}

// traceJobHandler spans each job submission a replica handles, keyed by
// the job ID the router forwards.
func traceJobHandler(tr *Tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			h.ServeHTTP(w, r)
			return
		}
		sp := tr.Start("serve.sim_handler", 0, jobNumber(r.Header.Get("X-Job-Id")))
		h.ServeHTTP(w, r)
		sp.End()
	})
}

func (env *simEnv) close() {
	if env.client != nil {
		env.client.CloseIdleConnections()
	}
	if env.routerHS != nil {
		_ = env.routerHS.Shutdown(context.Background())
	}
	if env.router != nil {
		env.router.Close()
	}
	for _, hs := range env.https {
		_ = hs.Shutdown(context.Background())
	}
	env.serving.Wait()
	for _, s := range env.servers {
		s.Shutdown(context.Background())
	}
	for _, s := range env.stores {
		_ = s.Close()
	}
}

// submit posts one job through the router under a client-chosen ID.
func (env *simEnv) submit(id string, req serve.SimRequest) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	hr, err := http.NewRequest(http.MethodPost, env.url+"/v1/sim", bytes.NewReader(body))
	if err != nil {
		return err
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set("X-Job-Id", id)
	resp, err := env.client.Do(hr)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body) // only for the error message
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("POST /v1/sim: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return nil
}

// snapshot fetches a job through the router.
func (env *simEnv) snapshot(id string) (*serve.JobSnapshot, error) {
	resp, err := env.client.Get(env.url + "/v1/jobs/" + id)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/jobs/%s: HTTP %d", id, resp.StatusCode)
	}
	var snap serve.JobSnapshot
	return &snap, json.NewDecoder(resp.Body).Decode(&snap)
}

// simPhase is one batch of submitted jobs and what came back.
type simPhase struct {
	jobs  []simJob
	ids   []string
	snaps []*serve.JobSnapshot
	errs  []error
}

func newSimPhase(seed int64, n int) *simPhase {
	p := &simPhase{snaps: make([]*serve.JobSnapshot, n), errs: make([]error, n)}
	p.jobs = simMix(seed, n)
	for i := 0; i < n; i++ {
		p.ids = append(p.ids, fmt.Sprintf("job-%d", i))
	}
	return p
}

// simMix draws n catalog jobs in blocks of 12: each block holds every
// TOP-IL configuration (backend × fan) twice and every GTS configuration
// (governor × fan) once, in random order, each with a random simulator
// seed. The seed so changes which jobs run and when, but not the mix.
// TOP-IL, the policy under study, is two thirds of the jobs; its jobs take
// about twice the host time of GTS jobs, so an even split would put the
// median latency in the gap between the two.
func simMix(seed int64, n int) []simJob {
	cat := simCatalog()
	var block []int // first catalog index of each configuration, per draw
	for c := 0; c < len(cat); c += simSeeds {
		block = append(block, c)
		if cat[c].Policy == "TOP-IL" {
			block = append(block, c)
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x51b))
	var out []simJob
	for len(out) < n {
		for _, k := range rng.Perm(len(block)) {
			out = append(out, cat[block[k]+rng.Intn(simSeeds)])
		}
	}
	return out[:n]
}

// collect waits for every submitted job to be terminal, then fetches and
// checks each result. It returns each job's terminal time.
func (env *simEnv) collect(p *simPhase, rep *Report) []time.Time {
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	done := make([]time.Time, len(p.ids))
	for i, id := range p.ids {
		if p.errs[i] != nil {
			continue
		}
		select {
		case <-env.await(id):
		case <-ctx.Done():
			p.errs[i] = fmt.Errorf("job %s did not finish", id)
			continue
		}
		env.mu.Lock()
		done[i] = env.terminal[id]
		env.mu.Unlock()
		snap, err := env.snapshot(id)
		if err == nil {
			err = checkSim(env.golden, p.jobs[i], snap)
		}
		p.snaps[i], p.errs[i] = snap, err
	}
	for i, err := range p.errs {
		rep.Attempted++
		if err != nil {
			rep.mismatch("sim job %s: %v", p.ids[i], err)
		}
	}
	return done
}

// runSimjobs measures an open-loop Poisson stream of POST /v1/sim jobs at
// simRate through the router for four fifths of the window. Latency runs
// from a job's due time to its durable terminal journal record.
func runSimjobs(b *Bench, window time.Duration, rep *Report) error {
	var env *simEnv
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if env != nil {
			env.close()
		}
		dir, err := b.scratch(fmt.Sprintf("simjobs-%d", i))
		if err != nil {
			return err
		}
		t0 := time.Now()
		if env, err = setupSimjobs(b, dir); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer env.close()

	mainDur := window * 4 / 5
	due := Schedule(b.Seed, simRate, mainDur)
	p := newSimPhase(b.Seed, len(due))
	sp0 := b.Tr.Start("simjobs.main", 0, -1)
	start, samples := OpenLoop(due, Senders(), func(i int) error {
		sp := b.Tr.Start("simjobs.post", sp0.ID(), int64(i))
		p.errs[i] = env.submit(p.ids[i], p.jobs[i].request())
		sp.End()
		return p.errs[i]
	})
	sp0.End()
	done := env.collect(p, rep)

	var lat []float64
	for i, s := range samples {
		if p.errs[i] == nil {
			lat = append(lat, ms(done[i].Sub(start.Add(s.Due))))
		}
	}
	k := segmentsFor(len(lat))
	p50, tail := Segmented(lat, k, 10, 0.5), Segmented(lat, k, 10, 0.5, 0.9, 0.99)
	rep.e2e("p50_ms", p50.Value, "ms")
	rep.Notes["latency"] = map[string]any{"p50": p50, "tail": tail, "segments": k}
	// The pool is stable while arrivals stay below workers / mean run
	// time: that is the highest rate with no growing backlog.
	var runS float64
	for i, snap := range p.snaps {
		if p.errs[i] == nil {
			runS += snap.RunMs / 1000
		}
	}
	maxRPS := simReplicas * float64(len(lat)) / runS
	rep.e2e("max_rps", maxRPS, "1/s")
	rep.common(setups)
	progress("simjobs: %d jobs at %.0f/s, p50 %.2f ms, p%g %.2f ms (segment medians, %d beyond); max_rps %.1f jobs/s",
		p50.N, simRate, p50.Value, 100*tail.Q, tail.Value, tail.Beyond, maxRPS)

	if b.Tr != nil {
		simjobsLayers(b, p, rep)
	}
	return nil
}

// simjobsLayers derives the per-layer metrics of the main phase's jobs.
func simjobsLayers(b *Bench, p *simPhase, rep *Report) {
	inMain := func(s Span) bool { return s.Req >= 0 && s.Req < int64(len(p.ids)) }
	handler := map[int64]float64{}
	for _, s := range b.Tr.spansNamed("serve.sim_handler") {
		if inMain(s) {
			handler[s.Req] = (s.End - s.Start) / 1e3
		}
	}
	var router, queue, run, appendUs Dist
	for _, s := range b.Tr.spansNamed("simjobs.post") {
		if h, ok := handler[s.Req]; ok && inMain(s) {
			router.Add((s.End-s.Start)/1e3 - h)
		}
	}
	for _, s := range b.Tr.spansNamed("cluster.journal_append") {
		if inMain(s) {
			appendUs.Add(s.End - s.Start)
		}
	}
	simS, hostS := map[string]float64{}, map[string]float64{}
	var migrations, violations, throttle, overhead float64
	for i, snap := range p.snaps {
		if p.errs[i] != nil {
			continue
		}
		queue.Add(snap.QueuedMs)
		run.Add(snap.RunMs)
		fam := "gts"
		if p.jobs[i].Policy == "TOP-IL" {
			fam = "top-il"
		}
		simS[fam] += snap.Result.Duration
		hostS[fam] += snap.RunMs / 1000
		migrations += float64(snap.Result.Migrations)
		violations += float64(snap.Result.Violations)
		throttle += snap.Result.ThrottleSeconds
		overhead += snap.Result.OverheadSeconds
	}
	rep.layer("cluster.router_ms.p50", router.Percentile(0.5).Value, "ms")
	rep.layer("cluster.router_ms.p99", router.Percentile(0.99).Value, "ms")
	rep.layer("serve.job_queue_ms.p50", queue.Percentile(0.5).Value, "ms")
	rep.layer("serve.job_queue_ms.p90", queue.Percentile(0.9).Value, "ms")
	rep.layer("serve.job_run_ms.p50", run.Percentile(0.5).Value, "ms")
	rep.layer("serve.job_run_ms.p90", run.Percentile(0.9).Value, "ms")
	rep.layer("cluster.journal_append_us.p50", appendUs.Percentile(0.5).Value, "us")
	rep.layer("cluster.journal_append_us.p99", appendUs.Percentile(0.99).Value, "us")
	rep.layer("cluster.journal_appends", float64(appendUs.N()), "count")
	rep.layer("sim.speed", (simS["top-il"]+simS["gts"])/(hostS["top-il"]+hostS["gts"]), "s/s")
	rep.layer("sim.speed.top-il", simS["top-il"]/hostS["top-il"], "s/s")
	rep.layer("sim.speed.gts", simS["gts"]/hostS["gts"], "s/s")
	rep.layer("sim.migrations", migrations, "count")
	rep.layer("sim.violations", violations, "count")
	rep.layer("sim.throttle_s", throttle, "s")
	rep.layer("core.overhead_s", overhead, "s")
	rep.layer("serve.job_samples", float64(queue.N()), "count")
}
