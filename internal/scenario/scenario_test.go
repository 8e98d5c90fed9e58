package scenario

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/features"
	"repro/internal/nn"
	"repro/internal/rl"
	"repro/internal/sim"
	"repro/internal/thermal"
	"repro/internal/workload"
)

func TestSpecDefaults(t *testing.T) {
	s := Spec{Duration: 10}.withDefaults()
	if s.AmbientC != 25 || s.Seed != 1 || s.NumJobs != 8 || s.Rate != 0.1 || s.InstrScale != 0.1 {
		t.Fatalf("withDefaults = %+v", s)
	}
	cfg, jobs, err := Spec{Duration: 10}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 8 || cfg.Seed != 1 || cfg.ThermalKernel != thermal.KernelPropagator {
		t.Fatalf("default build: %d jobs, seed %d, kernel %v", len(jobs), cfg.Seed, cfg.ThermalKernel)
	}
	// The default is the fan-cooled network; an explicit false differs.
	off := false
	noFan, _, err := Spec{Duration: 10, Fan: &off}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(cfg.Thermal, noFan.Thermal) {
		t.Fatal("fan=false built the same thermal network as the default")
	}
}

// TestBuildMatchesHandAssembly pins Build to the assembly every surface
// used to copy: sim.DefaultConfig plus the generator's 0.2–0.7 QoS band
// over the mixed pool.
func TestBuildMatchesHandAssembly(t *testing.T) {
	cfg, jobs, err := Spec{Duration: 50, Seed: 9, NumJobs: 12, Rate: 0.4, InstrScale: 0.2}.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := sim.DefaultConfig(true, 25)
	want.Seed = 9
	peak := func(s workload.AppSpec) float64 { return want.Perf.PeakIPS(want.Platform, s) }
	wantJobs := workload.NewGenerator(9, workload.MixedPool(), peak, 0.2, 0.7, 0.2).Generate(12, 0.4)
	if !reflect.DeepEqual(jobs, wantJobs) {
		t.Fatal("generated arrivals differ from the hand-assembled generator")
	}
	if cfg.Seed != want.Seed || cfg.Dt != want.Dt || !reflect.DeepEqual(cfg.Thermal, want.Thermal) {
		t.Fatal("config differs from sim.DefaultConfig(true, 25)")
	}

	entries := workload.JobsToEntries(wantJobs[:3])
	_, explicit, err := Spec{Duration: 50, Jobs: entries, NumJobs: -1}.Build()
	if err != nil {
		t.Fatalf("explicit manifest ignores generator fields, got %v", err)
	}
	if !reflect.DeepEqual(workload.JobsToEntries(explicit), entries) {
		t.Fatal("explicit manifest did not round-trip")
	}
}

func TestSpecValidate(t *testing.T) {
	cases := map[string]struct {
		spec Spec
		want string
	}{
		"no-duration":  {Spec{}, "duration 0 s out of range"},
		"long":         {Spec{Duration: 1e6}, "duration 1e+06 s out of range"},
		"hot-ambient":  {Spec{Duration: 1, AmbientC: 400}, "ambient 400 °C implausible"},
		"kernel":       {Spec{Duration: 1, ThermalKernel: "float32"}, `unknown thermal kernel "float32" (have propagator, reference)`},
		"many-jobs":    {Spec{Duration: 1, NumJobs: 2000}, "numJobs 2000 out of range"},
		"neg-rate":     {Spec{Duration: 1, Rate: -1}, "non-positive arrival rate"},
		"neg-scale":    {Spec{Duration: 1, InstrScale: -1}, "non-positive instruction scale"},
		"bad-manifest": {Spec{Duration: 1, Jobs: []workload.JobEntry{{Name: "nope", TotalInstr: 1}}}, `jobs manifest: workload: job 0: unknown benchmark "nope"`},
	}
	for name, tc := range cases {
		err := tc.spec.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want %q", name, err, tc.want)
		}
		if _, _, berr := tc.spec.Build(); berr == nil || berr.Error() != err.Error() {
			t.Errorf("%s: Build error %v differs from Validate error %v", name, berr, err)
		}
	}
	for _, k := range []string{"", "propagator", "reference"} {
		if err := (Spec{Duration: 1, ThermalKernel: k}).Validate(); err != nil {
			t.Errorf("kernel %q rejected: %v", k, err)
		}
	}
}

func TestRegistry(t *testing.T) {
	want := []string{"TOP-IL", "TOP-RL", "GTS/ondemand", "GTS/powersave", "GTS/schedutil", "GTS/performance"}
	if got := PolicyNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("PolicyNames = %v, want %v", got, want)
	}
	if got := BackendNames(); !reflect.DeepEqual(got, []string{"npu", "cpu", "fp16"}) {
		t.Fatalf("BackendNames = %v", got)
	}

	model := nn.NewMLP(nn.PaperTopology(features.Dim(8, 2), 8), 3)
	res := Resources{Model: model, QTable: rl.NewQTable(8), Seed: 1}
	for _, name := range PolicyNames() {
		pol, err := LookupPolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		mgr, err := pol.New(res)
		if err != nil || mgr.Name() != name {
			t.Errorf("%s: New = %v, %v", name, mgr, err)
		}
		if _, err := pol.New(Resources{}); (err != nil) != (pol.NeedsModel || pol.NeedsQTable) {
			t.Errorf("%s: New without artifacts: err = %v, needs model %v, Q-table %v",
				name, err, pol.NeedsModel, pol.NeedsQTable)
		}
	}
	if _, err := LookupPolicy("GTS/voodoo"); err == nil || !strings.Contains(err.Error(), "TOP-IL, TOP-RL") {
		t.Errorf("unknown policy: err = %v", err)
	}

	for _, name := range append([]string{""}, BackendNames()...) {
		b, err := LookupBackend(name)
		if err != nil {
			t.Fatal(err)
		}
		dev := b.New(model)
		if out := dev.Infer([][]float64{make([]float64, model.InputDim())}); len(out) != 1 || len(out[0]) != 8 {
			t.Errorf("backend %q: Infer = %v", name, out)
		}
	}
	if b, _ := LookupBackend(""); b.Name != "npu" {
		t.Errorf(`LookupBackend("") = %q, want npu`, b.Name)
	}
	topil, _ := LookupPolicy("TOP-IL")
	if _, err := topil.New(Resources{Model: model, Backend: "tpu"}); err == nil ||
		!strings.Contains(err.Error(), `unknown inference backend "tpu"`) {
		t.Errorf("unknown backend: err = %v", err)
	}
}

// TestTOPRLClonesQTable: TOP-RL learns online, so each manager must own a
// copy of the pretrained table.
func TestTOPRLClonesQTable(t *testing.T) {
	pol, _ := LookupPolicy("TOP-RL")
	table := rl.NewQTable(8)
	mgr, err := pol.New(Resources{QTable: table, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg, jobs, err := Spec{Duration: 20, NumJobs: 4, Rate: 1, InstrScale: 0.05}.Build()
	if err != nil {
		t.Fatal(err)
	}
	e := sim.New(cfg)
	e.AddJobs(jobs)
	e.Run(mgr, 20)
	if !reflect.DeepEqual(table, rl.NewQTable(8)) {
		t.Fatal("a TOP-RL run wrote into the shared pretrained table")
	}
}

// TestReadmeListsRegistry keeps README's list of accepted names in step
// with the registry.
func TestReadmeListsRegistry(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	quote := func(names []string) string { return "`" + strings.Join(names, "`, `") + "`" }
	text := strings.Join(strings.Fields(string(readme)), " ")
	for _, want := range []string{"Policies: " + quote(PolicyNames()) + ".",
		"TOP-IL inference backends: " + quote(BackendNames()) + " "} {
		if !strings.Contains(text, want) {
			t.Errorf("README.md does not list %q", want)
		}
	}
}
