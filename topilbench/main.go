// Command topilbench is the repository's benchmark. It runs one of three
// workloads (design, infer, simjobs) for a fixed time, checks every output
// against a reference, and prints its metrics as the last line of standard
// output. Run it from the repository root through run.sh:
//
//	bash topilbench/run.sh --workload infer --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it also
// records spans around each layer and prints the per-layer metrics. See
// README.md in this directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// benchDir is the benchmark's directory, relative to the repository root
// the program runs from.
const benchDir = "topilbench"

// setupRepeats is how many times each workload sets up; setup_s is the
// median, and the run uses the last set-up.
const setupRepeats = 5

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Report accumulates one run's outcome.
type Report struct {
	Attempted int
	Failed    int
	Problems  []string          // correctness mismatches, each also counted in Failed
	E2E       map[string]Metric // end-to-end metrics (always measured)
	Layers    map[string]Metric // per-layer metrics (traced runs only)
	Notes     map[string]any    // sample counts and other context for the run record
}

func newReport() *Report {
	return &Report{E2E: map[string]Metric{}, Layers: map[string]Metric{}, Notes: map[string]any{}}
}

// mismatch records a wrong output as a failed operation.
func (r *Report) mismatch(format string, args ...any) {
	r.Failed++
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

func (r *Report) e2e(name string, v float64, unit string)   { r.E2E[name] = Metric{v, unit} }
func (r *Report) layer(name string, v float64, unit string) { r.Layers[name] = Metric{v, unit} }

// common fills the end-to-end metrics every workload reports.
func (r *Report) common(setups []float64) {
	r.e2e("setup_s", median(setups), "s")
	ok := 0.0
	if r.Attempted > 0 {
		ok = float64(r.Attempted-r.Failed) / float64(r.Attempted)
	}
	r.e2e("ok_frac", ok, "fraction")
	r.Notes["setup_s_samples"] = setups
}

// Bench is what every workload receives.
type Bench struct {
	Dir  string  // the benchmark's directory: committed model and goldens
	Work string  // scratch directory for this run, under .bench_build
	Seed int64   // workload seed: every generated input derives from it
	Tr   *Tracer // nil when tracing is off
}

func (b *Bench) data(name string) string { return filepath.Join(b.Dir, "data", name) }

// scratch returns a fresh directory under the run's scratch directory.
func (b *Bench) scratch(name string) (string, error) {
	dir := filepath.Join(b.Work, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// benchWorkload runs for the given window and fills the report. A traced
// run also runs every other workload once for its companion window (design:
// one pass), so that each traced run reports every per-layer metric.
type benchWorkload struct {
	run       func(b *Bench, window time.Duration, rep *Report) error
	companion time.Duration
}

var workloads = map[string]benchWorkload{
	"design":  {runDesign, 0},
	"infer":   {runInfer, 3 * time.Second},
	"simjobs": {runSimjobs, 4 * time.Second},
}

func main() {
	name := flag.String("workload", "", "design, infer or simjobs")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 30, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	regen := flag.Bool("regen", false, "retrain the committed model and rewrite the golden files")
	flag.Parse()

	if *regen {
		if err := regenerate(benchDir); err != nil {
			fmt.Fprintln(os.Stderr, "topilbench:", err)
			os.Exit(2)
		}
		return
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: topilbench --workload design|infer|simjobs --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	rep, err := runAll(*name, w, benchDir, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "topilbench:", err)
		os.Exit(2)
	}
	for _, p := range rep.Problems {
		fmt.Println("MISMATCH:", p)
	}
	metrics := rep.E2E
	if *trace == 1 {
		metrics = rep.Layers
	}
	out, err := json.Marshal(map[string]any{
		"correct":   rep.Failed == 0,
		"attempted": rep.Attempted,
		"failed":    rep.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "topilbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(out))
	if len(rep.Problems) > 0 {
		os.Exit(1)
	}
}

// runAll runs the named workload (and, traced, the companions and layer
// probes), checks the metric set against BENCHMARK.json and writes the run
// record.
func runAll(name string, w benchWorkload, dir string, seed int64, window time.Duration, traced bool) (*Report, error) {
	if _, err := os.Stat(filepath.Join(dir, "data", modelName+".json")); err != nil {
		return nil, fmt.Errorf("benchmark data not found (run from the repository root): %w", err)
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	work := filepath.Join(".bench_build", "run")
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	b := &Bench{Dir: dir, Work: work, Seed: seed}
	if traced {
		b.Tr = NewTracer()
	}
	rep := newReport()
	if err := w.run(b, window, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	rep.e2e("max_rss_mb", maxRSSMB(), "MB")
	if traced {
		for _, other := range sortedKeys(workloads) {
			if other == name {
				continue
			}
			c := newReport()
			if err := workloads[other].run(b, workloads[other].companion, c); err != nil {
				return nil, fmt.Errorf("%s companion: %w", other, err)
			}
			rep.Attempted += c.Attempted
			rep.Failed += c.Failed
			rep.Problems = append(rep.Problems, c.Problems...)
			for k, v := range c.Layers {
				if _, ok := rep.Layers[k]; !ok {
					rep.Layers[k] = v
				}
			}
		}
		if err := runProbes(b, rep); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		if err := b.Tr.WriteFile(filepath.Join(work, fmt.Sprintf("spans-%s-s%d.json", name, seed))); err != nil {
			return nil, err
		}
	}
	if spec != nil {
		if err := spec.check(rep, traced); err != nil {
			return nil, err
		}
	}
	if err := writeRecord(name, seed, window, traced, rep); err != nil {
		return nil, fmt.Errorf("run record: %w", err)
	}
	return rep, nil
}

// spec is the metric list of BENCHMARK.json.
type spec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json; a missing file (as in unit tests) skips
// the check.
func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// check demands that the run measured exactly the metrics BENCHMARK.json
// names, with the same units, and that every value is a finite number.
func (s *spec) check(rep *Report, traced bool) error {
	check := func(kind string, want []struct{ Name, Unit string }, got map[string]Metric) error {
		if len(want) != len(got) {
			return fmt.Errorf("%s: measured %d metrics, BENCHMARK.json lists %d", kind, len(got), len(want))
		}
		for _, m := range want {
			g, ok := got[m.Name]
			switch {
			case !ok:
				return fmt.Errorf("%s metric %s not measured", kind, m.Name)
			case g.Unit != m.Unit:
				return fmt.Errorf("%s metric %s: unit %q, BENCHMARK.json says %q", kind, m.Name, g.Unit, m.Unit)
			case math.IsNaN(g.Value) || math.IsInf(g.Value, 0):
				return fmt.Errorf("%s metric %s is not finite", kind, m.Name)
			}
		}
		return nil
	}
	if err := check("end-to-end", s.EndToEnd, rep.E2E); err != nil {
		return err
	}
	if traced {
		return check("per-layer", s.PerLayer, rep.Layers)
	}
	return nil
}

// maxRSSMB is the process's peak resident set size in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// progress prints a human-readable line; the last stdout line stays the
// JSON result.
func progress(format string, args ...any) { fmt.Printf(format+"\n", args...) }
