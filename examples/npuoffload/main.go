// NPU offload: why the paper runs the migration policy's NN inference on
// the SoC's neural processing unit (Fig. 12).
//
// The daemon performs one inference per running application per 500 ms
// epoch. On a CPU core that cost grows linearly with the number of
// applications; the NPU processes the whole batch in one nearly
// size-independent call. This example compares the two backends, checks
// they compute identical outputs, and demonstrates the non-blocking call
// the daemon uses.
//
//	go run ./examples/npuoffload
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/features"
	"repro/internal/nn"
	"repro/internal/npu"
	"repro/internal/scenario"
	"repro/internal/stats"
)

func main() {
	log.SetFlags(0)

	// The paper's deployed topology: 21 features -> 4×64 hidden -> 8 cores.
	model := nn.NewMLP(nn.PaperTopology(features.Dim(8, 2), 8), 42)
	accel := npu.New(model)
	cpuDev, err := scenario.LookupBackend("cpu")
	if err != nil {
		log.Fatal(err)
	}
	cpu := cpuDev.New(model)

	// The NPU-deployed model must match the host model bit for bit.
	rng := rand.New(rand.NewSource(1))
	probes := make([][]float64, 8)
	for i := range probes {
		probes[i] = make([]float64, model.InputDim())
		for j := range probes[i] {
			probes[i][j] = rng.Float64()
		}
	}
	if err := npu.Validate(accel, model, probes); err != nil {
		log.Fatalf("accelerator mismatch: %v", err)
	}
	fmt.Println("NPU outputs validated against host model ✓")

	fmt.Println("\ninference latency by batch size (one row per running app):")
	table := stats.NewTable("apps", "NPU", "CPU core", "winner")
	for _, n := range []int{1, 2, 4, 8, 12, 16} {
		a, c := accel.Latency(n), cpu.Latency(n)
		winner := "NPU"
		if c < a {
			winner = "CPU"
		}
		table.AddRow(fmt.Sprint(n), a.String(), c.String(), winner)
	}
	fmt.Print(table.String())

	// The non-blocking HiAI-style call: the daemon keeps reading counters
	// while the accelerator works.
	batch := probes
	resCh := accel.InferAsync(batch)
	fmt.Println("\nissued non-blocking inference for", len(batch), "applications...")
	res := <-resCh
	fmt.Printf("received %d rating vectors after a modelled %v\n",
		len(res.Outputs), res.Latency)
	fmt.Println("\nExpected: the CPU wins at 1-2 apps (driver overhead), the NPU")
	fmt.Println("wins from ~8 apps on and its latency stays flat — which is why")
	fmt.Println("the paper's migration overhead is constant in Fig. 12.")
}
