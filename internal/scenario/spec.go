// Package scenario is the one place that turns a name into something
// runnable: a Spec into the simulator configuration and arrivals it
// describes, a policy name into a sim.Manager, and a backend name into
// TOP-IL's inference device. POST /v1/sim, the experiments pipeline, the
// conformance runner and cmd/topil-sim all build through it, so the same
// name means the same run on every surface.
package scenario

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// Spec describes one simulated workload on the HiKey970 platform: cooling,
// ambient, seed, run length, and either an explicit arrival manifest or
// the generator parameters over the mixed benchmark pool.
type Spec struct {
	// Fan selects active cooling (default true, the paper's training
	// setup; false exposes DTM throttling).
	Fan *bool
	// AmbientC is the ambient temperature in °C (default 25).
	AmbientC float64
	// Seed drives workload generation and simulator noise (default 1).
	Seed int64
	// Duration is the simulated-time cap in seconds (required).
	Duration float64

	// Jobs is an explicit arrival manifest. When empty, NumJobs, Rate and
	// InstrScale drive the generator.
	Jobs []workload.JobEntry
	// NumJobs is the number of generated applications (default 8).
	NumJobs int
	// Rate is the Poisson arrival rate in jobs per second (default 0.1).
	Rate float64
	// InstrScale scales application lengths (default 0.1).
	InstrScale float64

	// ThermalKernel selects the integration kernel: "" or "propagator"
	// (the default precomputed kernel), or "reference" (the naive Euler
	// stepper kept as the differential oracle).
	ThermalKernel string
}

// Generated workloads draw QoS targets from this fraction band of each
// application's peak IPS.
const qosLo, qosHi = 0.2, 0.7

// kernels maps the accepted ThermalKernel spellings to kernels.
var kernels = map[string]thermal.Kernel{
	"":           thermal.KernelPropagator,
	"propagator": thermal.KernelPropagator,
	"reference":  thermal.KernelReference,
}

// withDefaults fills unset fields.
func (s Spec) withDefaults() Spec {
	if s.AmbientC == 0 {
		s.AmbientC = 25
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.NumJobs == 0 {
		s.NumJobs = 8
	}
	if s.Rate == 0 {
		s.Rate = 0.1
	}
	if s.InstrScale == 0 {
		s.InstrScale = 0.1
	}
	return s
}

// Validate reports why the spec, with defaults applied, cannot be built.
func (s Spec) Validate() error {
	s = s.withDefaults()
	if err := s.check(); err != nil {
		return err
	}
	_, err := s.manifest()
	return err
}

// Build validates the spec and returns the simulator configuration and
// the arrivals it describes.
func (s Spec) Build() (sim.Config, []workload.Job, error) {
	s = s.withDefaults()
	if err := s.check(); err != nil {
		return sim.Config{}, nil, err
	}
	jobs, err := s.manifest()
	if err != nil {
		return sim.Config{}, nil, err
	}
	cfg := sim.DefaultConfig(s.Fan == nil || *s.Fan, s.AmbientC)
	cfg.Seed = s.Seed
	cfg.ThermalKernel = kernels[s.ThermalKernel]
	if jobs == nil {
		peak := func(spec workload.AppSpec) float64 { return cfg.Perf.PeakIPS(cfg.Platform, spec) }
		gen := workload.NewGenerator(s.Seed, workload.MixedPool(), peak, qosLo, qosHi, s.InstrScale)
		jobs = gen.Generate(s.NumJobs, s.Rate)
	}
	return cfg, jobs, nil
}

// check validates a defaulted spec's scalar fields.
func (s Spec) check() error {
	if s.Duration <= 0 || s.Duration > 24*3600 {
		return fmt.Errorf("duration %g s out of range (0, 86400]", s.Duration)
	}
	if s.AmbientC < -50 || s.AmbientC > 100 {
		return fmt.Errorf("ambient %g °C implausible", s.AmbientC)
	}
	if _, ok := kernels[s.ThermalKernel]; !ok {
		return fmt.Errorf("unknown thermal kernel %q (have propagator, reference)", s.ThermalKernel)
	}
	if len(s.Jobs) > 0 {
		return nil
	}
	if s.NumJobs <= 0 || s.NumJobs > 1024 {
		return fmt.Errorf("numJobs %d out of range [1, 1024]", s.NumJobs)
	}
	if s.Rate <= 0 {
		return fmt.Errorf("non-positive arrival rate")
	}
	if s.InstrScale <= 0 {
		return fmt.Errorf("non-positive instruction scale")
	}
	return nil
}

// manifest resolves the explicit arrival manifest; nil means the
// generator supplies the arrivals.
func (s Spec) manifest() ([]workload.Job, error) {
	if len(s.Jobs) == 0 {
		return nil, nil
	}
	jobs, err := workload.EntriesToJobs(s.Jobs)
	if err != nil {
		return nil, fmt.Errorf("jobs manifest: %w", err)
	}
	return jobs, nil
}
