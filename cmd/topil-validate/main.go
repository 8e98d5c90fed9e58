// Command topil-validate runs the reproduction's self-checks.
//
// With no flags it runs the calibration checks of the simulated platform:
// the physical invariants (frequency scaling, big/LITTLE asymmetry, leakage
// feedback, cooling ordering, engine conservation and determinism) that the
// policy comparisons rest on.
//
// With -packages it runs declarative conformance packages (see
// docs/CONFORMANCE.md): every scenario cell simulates on the experiments
// pipeline, golden metric envelopes gate the results, and packages that
// request wire-contract checks run them against a serve instance — an
// in-process one booted with a freshly trained model by default, or an
// external URL via -serve.
//
// Either mode exits 0 when everything passes and 1 otherwise.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/serve"
	"repro/internal/validate"
)

func main() {
	var (
		packagesDir = flag.String("packages", "",
			"run conformance packages from this directory instead of the calibration checks")
		jsonOut = flag.Bool("json", false,
			"with -packages: emit the report as JSON instead of text")
		workers = flag.Int("j", 0,
			"with -packages: simulation worker count (0 = GOMAXPROCS); reports are byte-identical at any setting")
		scaleName = flag.String("scale", "quick",
			"with -packages: experiment scale for trained artifacts (quick or full)")
		artifactsDir = flag.String("artifacts", "",
			"with -packages: cache design-time artifacts (dataset, models, Q-tables) in this directory")
		serveMode = flag.String("serve", "auto",
			"with -packages: serve instance for API checks — auto (boot in-process), off (skip), or a base URL")
		verbose = flag.Bool("v", false,
			"with -packages: print pipeline progress to stderr")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "topil-validate: unexpected arguments: %v\n", flag.Args())
		os.Exit(1)
	}
	if *packagesDir == "" {
		runCalibration()
		return
	}
	os.Exit(runPackages(*packagesDir, *jsonOut, *workers, *scaleName,
		*artifactsDir, *serveMode, *verbose))
}

// runCalibration is the classic no-flag mode.
func runCalibration() {
	results := validate.All()
	for _, r := range results {
		status := "PASS"
		if !r.OK {
			status = "FAIL"
		}
		fmt.Printf("%-4s %-40s %s\n", status, r.Name, r.Detail)
	}
	if failed := validate.Failed(results); len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "%d of %d checks failed\n", len(failed), len(results))
		os.Exit(1)
	}
	fmt.Printf("all %d checks passed\n", len(results))
}

// runPackages executes the conformance mode and returns the exit code.
func runPackages(dir string, jsonOut bool, workers int, scaleName, artifactsDir, serveMode string, verbose bool) int {
	pkgs, err := conformance.LoadDir(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	var scale experiments.Scale
	switch scaleName {
	case "quick":
		scale = experiments.QuickScale()
	case "full":
		scale = experiments.FullScale()
	default:
		fmt.Fprintf(os.Stderr, "topil-validate: unknown -scale %q (quick or full)\n", scaleName)
		return 1
	}
	p := experiments.NewPipeline(scale)
	p.Workers = workers
	p.ArtifactsDir = artifactsDir
	if verbose {
		p.Progress = func(msg string) { fmt.Fprintln(os.Stderr, "·", msg) }
	}

	ctx := context.Background()
	api, cleanup, err := resolveServe(ctx, p, pkgs, serveMode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "topil-validate:", err)
		return 1
	}
	if cleanup != nil {
		defer cleanup()
	}

	rep, err := conformance.Run(ctx, p, pkgs, api)
	if err != nil {
		fmt.Fprintln(os.Stderr, "topil-validate:", err)
		return 1
	}
	if jsonOut {
		js, err := rep.JSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "topil-validate:", err)
			return 1
		}
		fmt.Println(string(js))
	} else {
		fmt.Print(rep.Render())
	}
	if !rep.Pass {
		return 1
	}
	return 0
}

// wantsAPI reports whether any package requests wire-contract checks.
func wantsAPI(pkgs []*conformance.Package) bool {
	for _, p := range pkgs {
		if len(p.Manifest.APIChecks) > 0 {
			return true
		}
	}
	return false
}

// resolveServe maps the -serve flag to an API configuration, booting an
// in-process instance when needed. The returned cleanup (possibly nil)
// must run after the conformance run.
func resolveServe(ctx context.Context, p *experiments.Pipeline, pkgs []*conformance.Package, mode string) (*conformance.APIConfig, func(), error) {
	switch {
	case mode == "off" || !wantsAPI(pkgs):
		return nil, nil, nil
	case mode == "auto":
		return bootServe(ctx, p)
	default:
		// An external instance: not ours, so destructive checks
		// (backpressure flooding) stay off.
		return &conformance.APIConfig{BaseURL: mode}, nil, nil
	}
}

// bootServe trains (or loads) the pipeline's IL model, publishes it in a
// temporary registry directory, and serves the full /v1 surface on a
// loopback listener. Workers/QueueCap are kept small so the backpressure
// check sheds deterministically after a handful of long submissions.
func bootServe(ctx context.Context, p *experiments.Pipeline) (*conformance.APIConfig, func(), error) {
	models, err := p.Models()
	if err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp("", "topil-validate-models-")
	if err != nil {
		return nil, nil, err
	}
	const modelName = "model-1"
	if err := core.SaveModel(models[0], filepath.Join(dir, modelName+".json")); err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	srv := serve.NewServer(serve.Config{ModelsDir: dir, Workers: 2, QueueCap: 4})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	hs := &http.Server{Handler: srv.Handler(),
		ReadHeaderTimeout: serve.ReadHeaderTimeout, IdleTimeout: serve.IdleTimeout}
	go func() {
		if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "topil-validate: serve:", err)
		}
	}()
	cleanup := func() {
		shCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		_ = hs.Shutdown(shCtx)
		srv.Shutdown(shCtx)
		os.RemoveAll(dir)
	}
	return &conformance.APIConfig{
		BaseURL:   "http://" + ln.Addr().String(),
		Model:     modelName,
		Dedicated: true,
	}, cleanup, nil
}
