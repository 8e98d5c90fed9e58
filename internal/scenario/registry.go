package scenario

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/governor"
	"repro/internal/nn"
	"repro/internal/npu"
	"repro/internal/rl"
	"repro/internal/sim"
)

// Policy is one registered run-time manager. The Needs flags name the
// design-time artifact it is built from, so a surface that lacks one can
// reject the name up front.
type Policy struct {
	Name string
	// NeedsModel marks policies that infer with a trained IL model
	// (TOP-IL); they also take an inference backend.
	NeedsModel bool
	// NeedsQTable marks policies that act from a pretrained Q-table
	// (TOP-RL).
	NeedsQTable bool

	// build gets the resources and, for NeedsModel policies, the model
	// already placed on the requested device.
	build func(res Resources, dev npu.Backend) sim.Manager
}

// Resources are the artifacts a policy is built from. New reads only the
// ones the policy's Needs flags name.
type Resources struct {
	// Model is TOP-IL's trained network; it is only read, never mutated.
	Model *nn.MLP
	// Backend names TOP-IL's inference device (see BackendNames; "" is
	// "npu").
	Backend string
	// Observe, when set, receives TOP-IL's inference epochs (see
	// core.Config.Observe).
	Observe func(core.EpochObservation)
	// QTable is TOP-RL's pretrained table. Each manager learns online on
	// its own copy, as the paper reloads the stored table per run.
	QTable *rl.QTable
	// Seed drives TOP-RL's exploration.
	Seed int64
}

// policies is the registry, in the paper's evaluation order followed by
// the remaining Linux governors.
var policies = []Policy{
	{Name: "TOP-IL", NeedsModel: true, build: func(r Resources, dev npu.Backend) sim.Manager {
		cfg := core.DefaultConfig()
		cfg.Observe = r.Observe
		return core.New(dev, cfg)
	}},
	{Name: "TOP-RL", NeedsQTable: true, build: func(r Resources, _ npu.Backend) sim.Manager {
		return rl.New(r.QTable.Clone(), rl.DefaultParams(), r.Seed)
	}},
	gts(governor.Ondemand{UpThreshold: 0.8}),
	gts(governor.Powersave{}),
	gts(governor.Schedutil{}),
	gts(governor.Performance{}),
}

// gts registers a Linux GTS baseline under "GTS/<governor>".
func gts(f governor.FreqPolicy) Policy {
	return Policy{Name: "GTS/" + f.Name(),
		build: func(Resources, npu.Backend) sim.Manager { return governor.NewGTS(f) }}
}

// PolicyNames lists every registered policy in registry order.
func PolicyNames() []string {
	names := make([]string, len(policies))
	for i, p := range policies {
		names[i] = p.Name
	}
	return names
}

// LookupPolicy resolves a policy name.
func LookupPolicy(name string) (Policy, error) {
	for _, p := range policies {
		if p.Name == name {
			return p, nil
		}
	}
	return Policy{}, fmt.Errorf("unknown policy %q (have %s)", name, strings.Join(PolicyNames(), ", "))
}

// New builds a fresh manager for one run. It fails when res lacks an
// artifact the policy needs or names an unknown backend.
func (p Policy) New(res Resources) (sim.Manager, error) {
	var dev npu.Backend
	if p.NeedsModel {
		if res.Model == nil {
			return nil, fmt.Errorf("policy %s needs a trained model", p.Name)
		}
		b, err := LookupBackend(res.Backend)
		if err != nil {
			return nil, err
		}
		dev = b.New(res.Model)
	}
	if p.NeedsQTable && res.QTable == nil {
		return nil, fmt.Errorf("policy %s needs a pretrained Q-table", p.Name)
	}
	return p.build(res, dev), nil
}

// Backend is one registered inference device for TOP-IL.
type Backend struct {
	Name string
	new  func(*nn.MLP) npu.Backend
}

// backends is the device table: the modelled NPU (the paper's
// accelerator), the CPU fallback (the no-accelerator ablation), and the
// fp16-quantized model on the NPU.
var backends = []Backend{
	{Name: "npu", new: func(m *nn.MLP) npu.Backend { return npu.New(m) }},
	{Name: "cpu", new: func(m *nn.MLP) npu.Backend { return npu.NewCPU(m) }},
	// Quantizing copies the model, so the shared trained network stays
	// read-only across concurrent runs.
	{Name: "fp16", new: func(m *nn.MLP) npu.Backend { return npu.New(npu.QuantizeFP16(m)) }},
}

// BackendNames lists every registered inference backend.
func BackendNames() []string {
	names := make([]string, len(backends))
	for i, b := range backends {
		names[i] = b.Name
	}
	return names
}

// LookupBackend resolves a backend name; "" is the default, "npu".
func LookupBackend(name string) (Backend, error) {
	if name == "" {
		name = "npu"
	}
	for _, b := range backends {
		if b.Name == name {
			return b, nil
		}
	}
	return Backend{}, fmt.Errorf("unknown inference backend %q (have %s)",
		name, strings.Join(BackendNames(), ", "))
}

// New places the model on the device.
func (b Backend) New(m *nn.MLP) npu.Backend { return b.new(m) }
