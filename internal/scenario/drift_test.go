package scenario_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/features"
	"repro/internal/nn"
	"repro/internal/rl"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/sim"
)

// cell is one (policy, backend) pair; backend "-" marks a policy without
// an inference step.
type cell struct{ policy, backend string }

// registryCells enumerates every registered policy on every backend it
// runs on.
func registryCells(t *testing.T) []cell {
	t.Helper()
	var cells []cell
	for _, name := range scenario.PolicyNames() {
		pol, err := scenario.LookupPolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		if !pol.NeedsModel {
			cells = append(cells, cell{name, "-"})
			continue
		}
		for _, b := range scenario.BackendNames() {
			cells = append(cells, cell{name, b})
		}
	}
	return cells
}

// writeArtifacts stores an untrained paper-topology model and a zero
// Q-table under the names the quick pipeline loads, so no test here trains.
func writeArtifacts(t *testing.T) (dir string) {
	t.Helper()
	dir = t.TempDir()
	m := nn.NewMLP(nn.PaperTopology(features.Dim(8, 2), 8), 1)
	if err := core.SaveModel(m, filepath.Join(dir, "model-1.json")); err != nil {
		t.Fatal(err)
	}
	if err := rl.NewQTable(8).Save(filepath.Join(dir, "qtable-1.json.gz")); err != nil {
		t.Fatal(err)
	}
	return dir
}

func postSim(t *testing.T, url string, req serve.SimRequest) (int, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/sim", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out.String()
}

// manifestFor is a one-scenario conformance manifest running one
// technique on the given backends.
func manifestFor(technique string, backends []string) []byte {
	m := conformance.Manifest{SchemaVersion: conformance.ManifestVersion, Name: "drift",
		Scenarios: []conformance.Scenario{{Name: "s", DurationSec: 1,
			Techniques: []string{technique}, Backends: backends,
			Envelopes: []conformance.Envelope{{Metric: "peakTempC", Technique: technique,
				Min: 0, Max: 200, Boundary: "drift guard"}}}}}
	data, err := json.Marshal(m)
	if err != nil {
		panic(err)
	}
	return data
}

// TestEverySurfaceAcceptsTheRegistry is the drift guard: every registered
// policy and backend is accepted by the experiments pipeline, POST
// /v1/sim and conformance manifests, except where a surface lacks the
// artifact the name needs (serve holds no Q-table), and all three reject
// an unknown name.
func TestEverySurfaceAcceptsTheRegistry(t *testing.T) {
	artifacts := writeArtifacts(t)
	p := experiments.NewPipeline(experiments.QuickScale())
	p.ArtifactsDir = artifacts

	modelsDir := t.TempDir()
	if err := core.SaveModel(nn.NewMLP(nn.PaperTopology(features.Dim(8, 2), 8), 1),
		filepath.Join(modelsDir, "model-1.json")); err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(serve.Config{ModelsDir: modelsDir, Workers: 1, QueueCap: 32})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Shutdown(context.Background())
	}()

	for _, c := range registryCells(t) {
		pol, _ := scenario.LookupPolicy(c.policy)
		if _, err := p.ManagerOn(c.policy, 0, c.backend); err != nil {
			t.Errorf("experiments rejects %s[%s]: %v", c.policy, c.backend, err)
		}

		req := serve.SimRequest{Policy: c.policy, Model: "model-1", Duration: 1,
			NumJobs: 1, InstrScale: 0.01}
		if c.backend != "-" {
			req.Backend = c.backend
		}
		status, body := postSim(t, ts.URL, req)
		switch {
		case pol.NeedsQTable:
			if status != http.StatusBadRequest || !strings.Contains(body, "needs a pretrained Q-table") {
				t.Errorf("serve %s: %d %s, want 400 naming the missing Q-table", c.policy, status, body)
			}
		case status != http.StatusAccepted:
			t.Errorf("serve rejects %s[%s]: %d %s", c.policy, c.backend, status, body)
		}

		var backends []string
		if c.backend != "-" {
			backends = []string{c.backend}
		}
		if _, diags := conformance.ParseManifest("m.json", manifestFor(c.policy, backends)); len(diags) > 0 {
			t.Errorf("conformance rejects %s[%s]: %v", c.policy, c.backend, diags)
		}
	}

	// Unknown names: a policy, and a backend for the policy that infers.
	if _, err := p.ManagerOn("GTS/voodoo", 0, ""); err == nil {
		t.Error("experiments accepts an unknown policy")
	}
	if _, err := p.ManagerOn("TOP-IL", 0, "tpu"); err == nil {
		t.Error("experiments accepts an unknown backend")
	}
	if status, body := postSim(t, ts.URL, serve.SimRequest{Policy: "GTS/voodoo", Duration: 1}); status != http.StatusBadRequest {
		t.Errorf("serve accepts an unknown policy: %d %s", status, body)
	}
	if status, body := postSim(t, ts.URL, serve.SimRequest{Policy: "TOP-IL", Model: "model-1",
		Backend: "tpu", Duration: 1}); status != http.StatusBadRequest {
		t.Errorf("serve accepts an unknown backend: %d %s", status, body)
	}
	if _, diags := conformance.ParseManifest("m.json", manifestFor("GTS/voodoo", nil)); len(diags) == 0 {
		t.Error("conformance accepts an unknown technique")
	}
	if _, diags := conformance.ParseManifest("m.json", manifestFor("TOP-IL", []string{"tpu"})); len(diags) == 0 {
		t.Error("conformance accepts an unknown backend")
	}
}

// TestSameSpecSameResult sends one Spec through POST /v1/sim's request
// type and through a conformance scenario: both must build the identical
// simulation, and the two surfaces must report the same run.
func TestSameSpecSameResult(t *testing.T) {
	off := false
	// Paper-length applications arriving over the whole run, so no
	// surface's early stop (conformance ends once every job finished)
	// can cut the run short.
	spec := scenario.Spec{Fan: &off, Seed: 7, Duration: 20, NumJobs: 5, Rate: 0.4, InstrScale: 1}
	req := serve.SimRequest{Policy: "GTS/ondemand", Fan: spec.Fan, Seed: spec.Seed,
		Duration: spec.Duration, NumJobs: spec.NumJobs, Rate: spec.Rate, InstrScale: spec.InstrScale}
	sc := conformance.Scenario{Name: "same", Fan: spec.Fan, Seed: spec.Seed,
		DurationSec: spec.Duration, NumJobs: spec.NumJobs, Rate: spec.Rate, InstrScale: spec.InstrScale,
		Techniques: []string{req.Policy},
		Envelopes: []conformance.Envelope{{Metric: "peakTempC", Technique: req.Policy,
			Min: 0, Max: 200, Boundary: "same-spec check"}}}

	run := func(s scenario.Spec) *sim.Result {
		t.Helper()
		cfg, jobs, err := s.Build()
		if err != nil {
			t.Fatal(err)
		}
		pol, _ := scenario.LookupPolicy(req.Policy)
		mgr, err := pol.New(scenario.Resources{})
		if err != nil {
			t.Fatal(err)
		}
		e := sim.New(cfg)
		e.AddJobs(jobs)
		return e.Run(mgr, s.Duration)
	}
	want := run(spec)
	if got := run(req.Spec()); !reflect.DeepEqual(got, want) {
		t.Error("serve.SimRequest.Spec builds a different simulation than the Spec it carries")
	}
	if got := run(sc.Spec()); !reflect.DeepEqual(got, want) {
		t.Error("conformance.Scenario.Spec builds a different simulation than the Spec it carries")
	}

	// End to end: a serve job and a conformance cell report the same run.
	runner := serve.NewRunner(serve.NewRegistry(t.TempDir()), 1, 4, nil, nil)
	defer runner.Shutdown(context.Background())
	snap, err := runner.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		j, _ := runner.Get(snap.ID)
		if snap = j.Snapshot(); snap.State == serve.StateDone {
			break
		}
		if snap.State == serve.StateFailed || time.Now().After(deadline) {
			t.Fatalf("serve job ended %s: %s", snap.State, snap.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	rep, err := conformance.Run(context.Background(), experiments.NewPipeline(experiments.QuickScale()),
		[]*conformance.Package{{Manifest: conformance.Manifest{Name: "same", Scenarios: []conformance.Scenario{sc}}}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := rep.Packages[0].Scenarios[0].Cells[0].Metrics
	res := snap.Result
	wantMetrics := map[string]float64{
		"peakTempC": res.PeakTemp, "avgTempC": res.AvgTemp, "energyJ": res.TotalEnergyJ,
		"qosViolations": float64(res.Violations), "migrations": float64(res.Migrations),
		"throttleSec": res.ThrottleSeconds,
	}
	if !reflect.DeepEqual(got, wantMetrics) {
		t.Errorf("conformance cell %v differs from the serve job %v", got, wantMetrics)
	}
	if res.PeakTemp != want.PeakTemp || res.TotalEnergyJ != want.TotalEnergyJ() {
		t.Errorf("serve job peak %g °C / %g J, direct run %g °C / %g J",
			res.PeakTemp, res.TotalEnergyJ, want.PeakTemp, want.TotalEnergyJ())
	}
}
