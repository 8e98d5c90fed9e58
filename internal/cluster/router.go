package cluster

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"math"
	mrand "math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/telemetry"
)

// requestIDHeader and jobIDHeader mirror the serving layer's contract:
// the router forwards (never regenerates) X-Request-Id, so one
// correlation ID spans client -> router -> replica, and mints X-Job-Id so
// a sim job's ID is also its sharding key.
const (
	requestIDHeader = "X-Request-Id"
	jobIDHeader     = "X-Job-Id"
)

// maxForwardBody bounds request bodies buffered for retry, matching the
// serving layer's own request bound.
const maxForwardBody = 8 << 20

// RouterConfig assembles a Router.
type RouterConfig struct {
	// Replicas is the static membership: names are ring identities, URLs
	// the forwarding targets. Names must be unique.
	Replicas []Replica
	// Vnodes is the virtual-node count per replica (default 64).
	Vnodes int
	// ShedLoad is the queue-fill fraction at or above which a replica is
	// skipped for new work; when every reachable replica is at or above
	// it, the router sheds with 429 + Retry-After (default 0.95).
	ShedLoad float64
	// HealthInterval is the replica poll period (default 250ms).
	HealthInterval time.Duration
	// ForwardTimeout bounds one forwarded attempt (default 30s).
	ForwardTimeout time.Duration
	// RetryBackoff is the base delay between failover attempts; the
	// actual delay is attempt*base plus up to one base of jitter, so
	// concurrent clients failing over do not stampede (default 10ms).
	RetryBackoff time.Duration
	// Telemetry receives the router's metric families and backs
	// GET /metrics (nil gets a private registry).
	Telemetry *telemetry.Registry
}

// withDefaults fills unset fields.
func (c RouterConfig) withDefaults() RouterConfig {
	if c.Vnodes <= 0 {
		c.Vnodes = DefaultVnodes
	}
	if c.ShedLoad <= 0 {
		c.ShedLoad = 0.95
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 250 * time.Millisecond
	}
	if c.ForwardTimeout <= 0 {
		c.ForwardTimeout = 30 * time.Second
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 10 * time.Millisecond
	}
	return c
}

// replicaState is the router's health view of one replica, fed by the
// poll loop and by forwarding outcomes (a connection failure marks the
// replica down immediately; the next successful poll revives it).
type replicaState struct {
	name string
	url  string

	mu       sync.Mutex
	polled   bool // at least one poll completed
	up       bool
	draining bool
	health   serve.HealthResponse

	upGauge   *telemetry.Gauge
	loadGauge *telemetry.Gauge
}

// setHealth records a successful poll.
func (s *replicaState) setHealth(h serve.HealthResponse) {
	s.mu.Lock()
	s.polled = true
	s.up = true
	s.draining = h.Draining
	s.health = h
	s.mu.Unlock()
	s.upGauge.Set(1)
	s.loadGauge.Set(h.Load)
}

// setDown records an unreachable replica (poll or forward failure).
func (s *replicaState) setDown() {
	s.mu.Lock()
	s.polled = true
	s.up = false
	s.mu.Unlock()
	s.upGauge.Set(0)
}

// usable reports whether the replica should receive new work: reachable,
// not draining and (when shedding) under the load threshold. A replica
// that has never been polled is assumed usable — optimistic until proven
// down, so the router works before its first poll tick completes.
func (s *replicaState) usable(shed bool, shedLoad float64) (ok bool, overloaded bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.polled {
		return true, false
	}
	if !s.up || s.draining {
		return false, false
	}
	if shed && s.health.Load >= shedLoad {
		return false, true
	}
	return true, false
}

// retryAfter derives the shed hint from the worst queue fill.
func (s *replicaState) retryAfter() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	jobs := s.health.Jobs
	ra := 1 + (4*jobs.Depth)/maxInt(jobs.Cap, 1)
	if ra > 5 {
		ra = 5
	}
	if ra < 1 {
		ra = 1
	}
	return ra
}

// ReplicaStatus is the per-replica block of GET /v1/cluster.
type ReplicaStatus struct {
	Name     string            `json:"name"`
	URL      string            `json:"url"`
	Up       bool              `json:"up"`
	Draining bool              `json:"draining"`
	Load     float64           `json:"load"`
	Jobs     serve.QueueHealth `json:"jobs"`
	Infer    serve.QueueHealth `json:"infer"`
}

// status snapshots the state for GET /v1/cluster.
func (s *replicaState) status() ReplicaStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ReplicaStatus{
		Name:     s.name,
		URL:      s.url,
		Up:       s.up || !s.polled,
		Draining: s.draining,
		Load:     s.health.Load,
		Jobs:     s.health.Jobs,
		Infer:    s.health.Infer,
	}
}

// Router is the stateless cluster frontend: it shards work across the
// replica ring, sheds load when the cluster is saturated, and fails
// transport errors over to ring successors. It holds no job state — a
// router restart loses nothing.
type Router struct {
	cfg    RouterConfig
	ring   *Ring
	order  []string // replica names in membership order
	reps   map[string]*replicaState
	client *http.Client
	tel    *telemetry.Registry

	metrics  *serve.Metrics
	forwards *telemetry.CounterVec
	retries  *telemetry.CounterVec
	shed     *telemetry.CounterVec
	minted   *telemetry.Counter

	idPrefix string
	idSeq    atomic.Uint64

	jmu    sync.Mutex
	jitter *mrand.Rand

	stop chan struct{}
	// baseCtx is the router's lifetime: it parents every health poll and
	// every forward that has no client request to derive from, so Close
	// cancels in-flight upstream I/O instead of waiting out timeouts.
	baseCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
}

// NewRouter builds the router and starts its health-poll loop; call
// Close to stop it.
func NewRouter(cfg RouterConfig) (*Router, error) {
	cfg = cfg.withDefaults()
	names := make([]string, len(cfg.Replicas))
	for i, r := range cfg.Replicas {
		names[i] = r.Name
	}
	ring, err := NewRing(names, cfg.Vnodes)
	if err != nil {
		return nil, err
	}
	tel := cfg.Telemetry
	if tel == nil {
		tel = telemetry.NewRegistry()
	}
	var pre [4]byte
	prefix := "c0"
	if _, err := rand.Read(pre[:]); err == nil {
		prefix = hex.EncodeToString(pre[:])
	}
	rt := &Router{
		cfg:   cfg,
		ring:  ring,
		order: names,
		reps:  make(map[string]*replicaState, len(names)),
		// The pool must absorb the router's full forward concurrency even
		// when one replica owns most keys — a per-host cap below that
		// churns TCP connections and becomes the cluster's bottleneck.
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        1024,
			MaxIdleConnsPerHost: 512,
		}},
		tel:     tel,
		metrics: serve.NewMetrics(tel),
		forwards: tel.CounterVec("cluster_router_forwards_total",
			"requests forwarded, by destination replica", "replica"),
		retries: tel.CounterVec("cluster_router_retries_total",
			"failover retries after a transport error, by failed replica", "replica"),
		shed: tel.CounterVec("cluster_router_shed_total",
			"requests shed with 429 because the preference list was saturated", "route"),
		minted: tel.Counter("cluster_router_jobs_minted_total",
			"job IDs minted for POST /v1/sim"),
		idPrefix: prefix,
		jitter:   mrand.New(mrand.NewSource(int64(binary.LittleEndian.Uint32(pre[:])) + 1)),
		stop:     make(chan struct{}),
	}
	rt.baseCtx, rt.cancel = context.WithCancel(context.Background())
	upVec := tel.GaugeVec("cluster_router_replica_up",
		"1 when the replica answered its last health poll", "replica")
	loadVec := tel.GaugeVec("cluster_replica_load",
		"worst queue-fill fraction reported by the replica", "replica")
	for _, r := range cfg.Replicas {
		rt.reps[r.Name] = &replicaState{
			name:      r.Name,
			url:       r.URL,
			upGauge:   upVec.With(r.Name),
			loadGauge: loadVec.With(r.Name),
		}
	}
	tel.Gauge("cluster_router_replicas", "configured replica count").
		Set(float64(len(names)))
	rt.wg.Add(1)
	go rt.pollLoop()
	return rt, nil
}

// Telemetry exposes the router's metric registry.
func (rt *Router) Telemetry() *telemetry.Registry { return rt.tel }

// Close stops the health poller, cancels in-flight polls and standalone
// forwards, and releases idle connections.
func (rt *Router) Close() {
	select {
	case <-rt.stop:
	default:
		close(rt.stop)
	}
	rt.cancel()
	rt.wg.Wait()
	rt.client.CloseIdleConnections()
}

// pollLoop refreshes every replica's health on a ticker until Close.
func (rt *Router) pollLoop() {
	defer rt.wg.Done()
	rt.pollAll()
	tick := time.NewTicker(rt.cfg.HealthInterval)
	defer tick.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-tick.C:
			rt.pollAll()
		}
	}
}

// pollAll polls every replica concurrently.
func (rt *Router) pollAll() {
	var wg sync.WaitGroup
	for _, name := range rt.order {
		st := rt.reps[name]
		wg.Add(1)
		go func(st *replicaState) {
			defer wg.Done()
			rt.poll(st)
		}(st)
	}
	wg.Wait()
}

// poll fetches one replica's /v1/healthz. The request derives from the
// router's lifetime context, so Close interrupts a poll wedged on an
// unresponsive replica instead of waiting out the client timeout.
func (rt *Router) poll(st *replicaState) {
	req, err := http.NewRequestWithContext(rt.baseCtx, http.MethodGet, st.url+"/v1/healthz", nil)
	if err != nil {
		st.setDown()
		return
	}
	client := *rt.client
	client.Timeout = rt.cfg.HealthInterval * 4
	resp, err := client.Do(req)
	if err != nil {
		st.setDown()
		return
	}
	defer func() {
		// Drain what the decoder left behind before closing: a body with
		// unread bytes poisons the keep-alive connection, and the poller
		// re-dials every replica every interval.
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
	}()
	var h serve.HealthResponse
	if resp.StatusCode != http.StatusOK ||
		json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&h) != nil {
		st.setDown()
		return
	}
	st.setHealth(h)
}

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, rt.instrument(pattern, h))
	}
	route("GET /v1/healthz", rt.handleHealthz)
	route("GET /v1/cluster", rt.handleCluster)
	route("POST /v1/infer", rt.handleInfer)
	route("POST /v1/sim", rt.handleSim)
	route("GET /v1/jobs", rt.handleJobs)
	route("GET /v1/jobs/{id}", rt.handleJob)
	route("DELETE /v1/jobs/{id}", rt.handleCancelJob)
	route("GET /v1/models", rt.handleModels)
	route("POST /v1/replicas/{name}/drain", rt.handleDrainReplica)
	route("GET /metrics", rt.handleMetrics)
	return mux
}

// instrument is the router-side middleware: forward-or-mint X-Request-Id
// and per-route metrics, sharing the serving layer's metric families so
// one Grafana board reads both tiers.
func (rt *Router) instrument(pattern string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(requestIDHeader)
		if id == "" {
			id = fmt.Sprintf("%s-%06d", rt.idPrefix, rt.idSeq.Add(1))
			r.Header.Set(requestIDHeader, id)
		}
		w.Header().Set(requestIDHeader, id)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		defer func() {
			if p := recover(); p != nil {
				log.Printf("cluster: %s %s [%s]: panic: %v", r.Method, r.URL.Path, id, p)
				if sw.status == 0 {
					http.Error(sw, "internal error", http.StatusInternalServerError)
				}
			}
			rt.metrics.Record(pattern, sw.status, time.Since(start))
		}()
		h(sw, r)
	}
}

// statusWriter records the status a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// --- handlers ---

// RouterHealth is the body of the router's own GET /v1/healthz.
type RouterHealth struct {
	Status    string `json:"status"`
	Replicas  int    `json:"replicas"`
	Available int    `json:"available"`
}

func (rt *Router) health() RouterHealth {
	h := RouterHealth{Status: "ok", Replicas: len(rt.order)}
	for _, name := range rt.order {
		if ok, _ := rt.reps[name].usable(false, 0); ok {
			h.Available++
		}
	}
	if h.Available == 0 {
		h.Status = "degraded"
	}
	return h
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, http.StatusOK, rt.health())
}

func (rt *Router) handleCluster(w http.ResponseWriter, r *http.Request) {
	out := struct {
		Replicas []ReplicaStatus `json:"replicas"`
		Vnodes   int             `json:"vnodes"`
	}{Vnodes: rt.cfg.Vnodes}
	for _, name := range rt.order {
		out.Replicas = append(out.Replicas, rt.reps[name].status())
	}
	serve.WriteJSON(w, http.StatusOK, out)
}

func (rt *Router) handleInfer(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req struct {
		Model  string      `json:"model"`
		Inputs [][]float64 `json:"inputs"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		serve.WriteError(w, http.StatusBadRequest, fmt.Errorf("cluster: bad request body: %w", err))
		return
	}
	rt.forward(w, r, inferShardKey(req.Model, req.Inputs), body, forwardOpts{shed: true})
}

// inferShardKey derives the consistent-hash key for an inference request:
// the model name plus the first feature vector's bits. Identical feature
// snapshots hit the same replica (and its warm batcher); distinct ones
// spread across the ring.
func inferShardKey(model string, inputs [][]float64) string {
	h := fnv.New64a()
	_, _ = h.Write([]byte(model))
	if len(inputs) > 0 {
		var b [8]byte
		for _, v := range inputs[0] {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			_, _ = h.Write(b[:])
		}
	}
	return fmt.Sprintf("infer-%016x", h.Sum64())
}

func (rt *Router) handleSim(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	// The job ID is the sharding key, so the router mints it (a valid
	// client-supplied X-Job-Id is honored for idempotent resubmission).
	id := r.Header.Get(jobIDHeader)
	if id == "" {
		id = fmt.Sprintf("c-%s-%06d", rt.idPrefix, rt.idSeq.Add(1))
		rt.minted.Inc()
	}
	rt.forward(w, r, id, body, forwardOpts{
		shed:    true,
		headers: map[string]string{jobIDHeader: id},
	})
}

func (rt *Router) handleJobs(w http.ResponseWriter, r *http.Request) {
	// Fan out to every replica and merge; a down replica contributes
	// nothing rather than failing the whole listing.
	type result struct {
		jobs []json.RawMessage
	}
	results := make([]result, len(rt.order))
	var wg sync.WaitGroup
	for i, name := range rt.order {
		wg.Add(1)
		go func(i int, st *replicaState) {
			defer wg.Done()
			resp, err := rt.do(r, st, http.MethodGet, "/v1/jobs", nil, nil)
			if err != nil || resp.status != http.StatusOK {
				return
			}
			var body struct {
				Jobs []json.RawMessage `json:"jobs"`
			}
			if json.Unmarshal(resp.body, &body) == nil {
				results[i].jobs = body.Jobs
			}
		}(i, rt.reps[name])
	}
	wg.Wait()
	merged := []json.RawMessage{}
	for _, res := range results {
		merged = append(merged, res.jobs...)
	}
	serve.WriteJSON(w, http.StatusOK, map[string]interface{}{"jobs": merged})
}

func (rt *Router) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rt.forward(w, r, id, nil, forwardOpts{fallback404: true})
}

func (rt *Router) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rt.forward(w, r, id, nil, forwardOpts{fallback404: true})
}

func (rt *Router) handleModels(w http.ResponseWriter, r *http.Request) {
	// Any replica can answer (they share one artifacts directory); a
	// stable key keeps the response cacheable per replica.
	rt.forward(w, r, "v1-models", nil, forwardOpts{})
}

func (rt *Router) handleDrainReplica(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	st, ok := rt.reps[name]
	if !ok {
		serve.WriteError(w, http.StatusNotFound, fmt.Errorf("cluster: no replica %q", name))
		return
	}
	resp, err := rt.do(r, st, http.MethodPost, "/v1/drain", nil, nil)
	if err != nil {
		st.setDown()
		serve.WriteError(w, http.StatusBadGateway, fmt.Errorf("cluster: draining %s: %w", name, err))
		return
	}
	copyResponse(w, resp)
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		_ = rt.tel.WriteJSON(w)
		return
	}
	w.Header().Set("Content-Type", telemetry.ContentType)
	_ = rt.tel.WritePrometheus(w)
}

// --- forwarding ---

// forwardOpts tunes one forwarded call.
type forwardOpts struct {
	// shed consults replica load and sheds with 429 when the whole
	// preference list is saturated (POST work only).
	shed bool
	// fallback404 tries ring successors on a 404 — a job submitted while
	// its primary was down lives on a successor.
	fallback404 bool
	// headers are added to the outbound request (e.g. the minted job ID).
	headers map[string]string
}

// bufferedResp is a fully read upstream response, so the router can
// decide to retry after reading it.
type bufferedResp struct {
	status int
	header http.Header
	body   []byte
}

// forward routes one request along the key's preference list: usable
// replicas in ring order, with jittered backoff between attempts; a
// transport error marks the replica down and fails over; when every
// reachable replica is saturated the request is shed with 429 and the
// least-loaded replica's Retry-After hint.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, key string, body []byte, opts forwardOpts) {
	chain := rt.ring.Lookup(key, len(rt.order))
	var try []string
	overloaded := 0
	for _, name := range chain {
		ok, over := rt.reps[name].usable(opts.shed, rt.cfg.ShedLoad)
		if ok {
			try = append(try, name)
		} else if over {
			overloaded++
		}
	}
	if len(try) == 0 && overloaded > 0 {
		// Saturation, not failure: every reachable replica is at or over
		// the shed threshold. Tell the client when to come back.
		retryAfter := 5
		for _, name := range chain {
			if ra := rt.reps[name].retryAfter(); ra < retryAfter {
				retryAfter = ra
			}
		}
		rt.shed.With(r.Method + " " + r.URL.Path).Inc()
		w.Header().Set("Retry-After", fmt.Sprintf("%d", retryAfter))
		serve.WriteError(w, http.StatusTooManyRequests,
			fmt.Errorf("cluster: all %d replicas saturated", len(chain)))
		return
	}
	if len(try) == 0 {
		// Everything looks down: the poll may be stale, so try the whole
		// chain anyway rather than failing from memory.
		try = chain
	}

	var last *bufferedResp
	for i, name := range try {
		if i > 0 {
			rt.backoff(i)
		}
		st := rt.reps[name]
		resp, err := rt.do(r, st, r.Method, r.URL.Path, body, opts.headers)
		if err != nil {
			// Transport failure: the replica is gone, not overloaded.
			st.setDown()
			rt.retries.With(name).Inc()
			continue
		}
		rt.forwards.With(name).Inc()
		retriable := resp.status == http.StatusServiceUnavailable ||
			resp.status == http.StatusTooManyRequests ||
			(opts.fallback404 && resp.status == http.StatusNotFound)
		if retriable && i < len(try)-1 {
			last = resp
			continue
		}
		copyResponse(w, resp)
		return
	}
	if last != nil {
		copyResponse(w, last)
		return
	}
	w.Header().Set("Retry-After", "1")
	serve.WriteError(w, http.StatusServiceUnavailable,
		fmt.Errorf("cluster: no replica reachable for key %q", key))
}

// backoff sleeps attempt*base plus up to one base of jitter, returning
// early when the router shuts down mid-failover.
func (rt *Router) backoff(attempt int) {
	base := rt.cfg.RetryBackoff
	rt.jmu.Lock()
	j := time.Duration(rt.jitter.Int63n(int64(base) + 1))
	rt.jmu.Unlock()
	t := time.NewTimer(time.Duration(attempt)*base + j)
	defer t.Stop()
	select {
	case <-t.C:
	case <-rt.stop:
	}
}

// do issues one forwarded request and buffers the response. The forward
// context derives from the client request when present (a client
// disconnect cancels the forward), from the router's lifetime otherwise
// (Close cancels it).
func (rt *Router) do(orig *http.Request, st *replicaState, method, path string, body []byte, headers map[string]string) (*bufferedResp, error) {
	base := rt.baseCtx
	if orig != nil {
		base = orig.Context()
	}
	ctx, cancel := context.WithTimeout(base, rt.cfg.ForwardTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, st.url+path, rd)
	if err != nil {
		return nil, err
	}
	if orig != nil {
		// Forward, never regenerate: the replica sees the router's (or the
		// client's) correlation ID.
		if id := orig.Header.Get(requestIDHeader); id != "" {
			req.Header.Set(requestIDHeader, id)
		}
		if ct := orig.Header.Get("Content-Type"); ct != "" {
			req.Header.Set("Content-Type", ct)
		}
	}
	if body != nil && req.Header.Get("Content-Type") == "" {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxForwardBody))
	if err != nil {
		return nil, err
	}
	return &bufferedResp{status: resp.StatusCode, header: resp.Header, body: data}, nil
}

// copyResponse relays a buffered upstream response, preserving the
// headers that carry protocol meaning across the hop.
func copyResponse(w http.ResponseWriter, resp *bufferedResp) {
	for _, k := range []string{"Content-Type", "Retry-After", "Location"} {
		if v := resp.header.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	w.WriteHeader(resp.status)
	_, _ = w.Write(resp.body)
}

// readBody buffers a bounded request body for retryable forwarding.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxForwardBody))
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, fmt.Errorf("cluster: reading body: %w", err))
		return nil, false
	}
	return data, true
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
