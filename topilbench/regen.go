package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

const (
	// modelSeed is the benchmark seed the committed model is trained at.
	modelSeed = 1
	// goldenSeeds is how many workload seeds (0 to goldenSeeds-1) have a
	// recorded design outcome.
	goldenSeeds = 41
)

// regenerate retrains data/topil.json with the design pass at modelSeed
// and rewrites both golden files from the code as it stands. Run it only
// when a change is meant to alter results:
//
//	bash topilbench/run.sh --regen
func regenerate(dir string) error {
	b := &Bench{Dir: dir, Work: filepath.Join(".bench_build", "regen")}
	if err := os.MkdirAll(b.Work, 0o755); err != nil {
		return err
	}
	scale := designScale()
	heldOut, err := heldOutDataset(scale)
	if err != nil {
		return err
	}
	golden := map[string]designOutcome{}
	for seed := int64(0); seed < goldenSeeds; seed++ {
		b.Seed = seed
		work, err := b.scratch("design")
		if err != nil {
			return err
		}
		out, m, err := designPass(b, scale, heldOut, work, nil)
		if err != nil {
			return fmt.Errorf("design seed %d: %w", seed, err)
		}
		golden[fmt.Sprint(seed)] = out
		progress("design seed %d: %+v", seed, out)
		if seed == modelSeed {
			if err := core.SaveModel(m, b.data(modelName+".json")); err != nil {
				return err
			}
		}
	}
	if err := writeJSONFile(b.data("design_golden.json"), golden); err != nil {
		return err
	}

	srv := serve.NewServer(serve.Config{ModelsDir: b.data(""), Workers: 1})
	h := srv.Handler()
	sims := map[string]simOutcome{}
	for _, j := range simCatalog() {
		snap, err := runJobDirect(h, j.request())
		if err != nil {
			return fmt.Errorf("%s: %w", j.key(), err)
		}
		if snap.State != serve.StateDone {
			return fmt.Errorf("%s ended %s: %s", j.key(), snap.State, snap.Error)
		}
		sims[j.key()] = outcomeOf(snap.Result)
	}
	return writeJSONFile(b.data("sim_golden.json"), sims)
}

// runJobDirect submits a job to a handler in-process and polls it to a
// terminal state.
func runJobDirect(h http.Handler, req serve.SimRequest) (*serve.JobSnapshot, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sim", bytes.NewReader(body)))
	if rec.Code != http.StatusAccepted {
		return nil, fmt.Errorf("POST /v1/sim: HTTP %d: %s", rec.Code, rec.Body.String())
	}
	loc := rec.Header().Get("Location")
	for {
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, loc, nil))
		var snap serve.JobSnapshot
		if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
			return nil, err
		}
		switch snap.State {
		case serve.StateDone, serve.StateFailed, serve.StateCanceled:
			return &snap, nil
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
