package rl

import (
	"path/filepath"
	"testing"

	"repro/internal/features"
	"repro/internal/perf"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/thermal"
	"repro/internal/workload"
)

func TestQTableSizeMatchesPaper(t *testing.T) {
	q := NewQTable(8)
	if got := q.Entries(); got != 2304 {
		t.Fatalf("Q-table entries = %d, want 2304 (paper)", got)
	}
	for s := range q.Q {
		for a := range q.Q[s] {
			if q.Q[s][a] != 0 {
				t.Fatal("table not constant-initialized")
			}
		}
	}
}

func TestQTableRoundTrip(t *testing.T) {
	q := NewQTable(8)
	q.Q[3][2] = 1.5
	q.Q[287][7] = -200
	path := filepath.Join(t.TempDir(), "q.json.gz")
	if err := q.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadQTable(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Q[3][2] != 1.5 || back.Q[287][7] != -200 {
		t.Error("round trip lost values")
	}
	if _, err := LoadQTable(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file accepted")
	}
}

func mkSnapshot() features.Snapshot {
	return features.Snapshot{
		NumCores: 8,
		Clusters: []features.ClusterState{
			{Freqs: []float64{509e6, 1018e6, 1844e6}, Freq: 509e6},
			{Freqs: []float64{682e6, 1210e6, 2362e6}, Freq: 2362e6},
		},
		Apps: []features.AppState{
			{ID: 0, Core: 1, Cluster: 0, IPS: 1e9, L2DPS: 1e6, QoS: 0.5e9},
			{ID: 1, Core: 6, Cluster: 1, IPS: 2e9, L2DPS: 20e6, QoS: 3e9},
		},
	}
}

func TestStateOfDistinguishesSituations(t *testing.T) {
	plat := platform.HiKey970()
	s := mkSnapshot()
	s0 := stateOf(s, 0, plat)
	s1 := stateOf(s, 1, plat)
	if s0 == s1 {
		t.Error("different app situations map to the same state")
	}
	if s0 < 0 || s0 >= numStates || s1 < 0 || s1 >= numStates {
		t.Fatalf("state out of range: %d, %d", s0, s1)
	}
	// Flipping QoS satisfaction must change the state.
	s.Apps[0].QoS = 2e9 // now violated
	if got := stateOf(s, 0, plat); got == s0 {
		t.Error("QoS flip did not change state")
	}
}

func TestStateCoversAllInputsProperty(t *testing.T) {
	plat := platform.HiKey970()
	s := mkSnapshot()
	seen := map[int]bool{}
	for _, qos := range []float64{0.5e9, 2e9} {
		for _, l2d := range []float64{1e6, 20e6} {
			for _, core := range []int{1, 6} {
				for _, fl := range []float64{509e6, 1018e6, 1844e6} {
					for _, fb := range []float64{682e6, 1210e6, 2362e6} {
						s.Apps[0].QoS = qos
						s.Apps[0].L2DPS = l2d
						s.Apps[0].Core = core
						s.Apps[0].Cluster = 0
						if core >= 4 {
							s.Apps[0].Cluster = 1
						}
						s.Clusters[0].Freq = fl
						s.Clusters[1].Freq = fb
						st := stateOf(s, 0, plat)
						if st < 0 || st >= numStates {
							t.Fatalf("state %d out of range", st)
						}
						seen[st] = true
					}
				}
			}
		}
	}
	if len(seen) < 36 {
		t.Errorf("only %d distinct states over a 72-combination sweep", len(seen))
	}
}

func addApps(e *sim.Engine, names []string, qosFrac float64) {
	pm := perf.Default()
	plat := platform.HiKey970()
	for _, n := range names {
		spec, _ := workload.ByName(n)
		spec.TotalInstr = 1e18
		e.AddJob(workload.Job{Spec: spec, QoS: qosFrac * pm.PeakIPS(plat, spec)})
	}
}

func TestTOPRLRunsAndLearns(t *testing.T) {
	table := NewQTable(8)
	mgr := New(table, DefaultParams(), 1)
	sc := sim.DefaultConfig(true, 25)
	e := sim.New(sc)
	addApps(e, []string{"adi", "seidel-2d"}, 0.3)
	res := e.Run(mgr, 60)

	nonZero := 0
	for s := range table.Q {
		for a := range table.Q[s] {
			if table.Q[s][a] != 0 {
				nonZero++
			}
		}
	}
	if nonZero == 0 {
		t.Error("Q-table never updated")
	}
	if res.Migrations == 0 {
		t.Error("RL never migrated (ε-greedy must explore)")
	}
	st := mgr.Stats()
	if st.MigrationInvocations == 0 || st.DVFSInvocations == 0 {
		t.Errorf("manager idle: %+v", st)
	}
}

func TestTOPRLDeterministicGivenSeed(t *testing.T) {
	run := func(seed int64) int {
		table := NewQTable(8)
		mgr := New(table, DefaultParams(), seed)
		sc := sim.DefaultConfig(true, 25)
		e := sim.New(sc)
		addApps(e, []string{"adi", "syr2k"}, 0.3)
		return e.Run(mgr, 30).Migrations
	}
	if run(7) != run(7) {
		t.Error("same seed, different behaviour")
	}
}

func TestTOPRLFrozenPolicyDoesNotUpdate(t *testing.T) {
	table := NewQTable(8)
	params := DefaultParams()
	params.Learning = false
	mgr := New(table, params, 1)
	sc := sim.DefaultConfig(true, 25)
	e := sim.New(sc)
	addApps(e, []string{"adi"}, 0.3)
	e.Run(mgr, 20)
	for s := range table.Q {
		for a := range table.Q[s] {
			if table.Q[s][a] != 0 {
				t.Fatal("frozen policy updated the Q-table")
			}
		}
	}
}

func TestPretrainImprovesViolations(t *testing.T) {
	// A pretrained policy should misbehave less than a cold table on the
	// same evaluation workload (the paper's reason for pretraining).
	evalRun := func(table *QTable, seed int64) *sim.Result {
		params := DefaultParams()
		mgr := New(table, params, seed)
		sc := sim.DefaultConfig(true, 25)
		e := sim.New(sc)
		addApps(e, []string{"adi", "seidel-2d", "syr2k"}, 0.3)
		return e.Run(mgr, 60)
	}
	cold := NewQTable(8)
	coldRes := evalRun(cold, 3)

	trained := NewQTable(8)
	cfg := DefaultPretrainConfig(5)
	cfg.DurationSec = 300
	cfg.NumJobs = 40
	cfg.ArrivalRate = 0.2
	if err := Pretrain(trained, DefaultParams(), cfg); err != nil {
		t.Fatal(err)
	}
	trainedRes := evalRun(trained, 3)
	t.Logf("cold: %d violations %.1f°C; pretrained: %d violations %.1f°C",
		coldRes.Violations, coldRes.AvgTemp, trainedRes.Violations, trainedRes.AvgTemp)
	if trainedRes.Violations > coldRes.Violations+1 {
		t.Errorf("pretraining made things worse: %d -> %d violations",
			coldRes.Violations, trainedRes.Violations)
	}
}

func TestMediatorRefusesOccupiedTargets(t *testing.T) {
	// With every core occupied by another app, the mediator must not
	// co-locate; migrations can only target free cores.
	table := NewQTable(8)
	mgr := New(table, DefaultParams(), 2)
	sc := sim.DefaultConfig(true, 25)
	e := sim.New(sc)
	names := []string{"adi", "seidel-2d", "syr2k", "heat-3d",
		"fdtd-2d", "gramschmidt", "floyd-warshall", "jacobi-2d"}
	addApps(e, names, 0.2)
	e.Run(mgr, 30)
	occ := map[platform.CoreID]int{}
	for _, a := range e.Env().Apps() {
		occ[a.Core]++
	}
	for c, n := range occ {
		if n > 1 {
			t.Errorf("core %d hosts %d apps; mediator must avoid co-location", c, n)
		}
	}
}

func TestArgmaxAvoidingOccupied(t *testing.T) {
	q := []float64{5, 4, 3, 2}
	occ := []int{1, 0, 0, 0}
	if got := argmaxAvoidingOccupied(q, occ, 3); got != 1 {
		t.Errorf("got %d, want 1 (core 0 occupied)", got)
	}
	// Current core's own occupancy does not count.
	occ = []int{1, 1, 1, 1}
	if got := argmaxAvoidingOccupied(q, occ, 0); got != 0 {
		t.Errorf("got %d, want 0 (stay: everything else occupied)", got)
	}
}

func TestNewPanicsOnNilTable(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(nil, DefaultParams(), 0)
}

func TestRewardFunction(t *testing.T) {
	table := NewQTable(8)
	mgr := New(table, DefaultParams(), 1)
	sc := sim.DefaultConfig(true, 25)
	e := sim.New(sc)
	addApps(e, []string{"adi"}, 0.3)
	e.Run(mgr, 30)
	// The learned Q-values must be bounded by the reward structure:
	// r ∈ [-200, 80-T_amb]; with γ=0.8 the value function is bounded by
	// r_max/(1-γ) = 5·55 = 275 and r_min/(1-γ) = -1000.
	for s := range table.Q {
		for a := range table.Q[s] {
			if v := table.Q[s][a]; v < -1000 || v > 300 {
				t.Fatalf("Q[%d][%d] = %g outside reward-implied bounds", s, a, v)
			}
		}
	}
}

func TestTOPRLRejectsTriCluster(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on 3-cluster platform")
		}
	}()
	mgr := New(NewQTable(8), DefaultParams(), 1)
	e := sim.New(sim.Config{
		Platform:      platform.TriCluster(),
		Thermal:       thermal.TriClusterNetwork(true, 25),
		Power:         power.Default(),
		Perf:          perf.Default(),
		Dt:            0.01,
		ManagerPeriod: 0.05,
		SensorPeriod:  0.05,
	})
	e.Run(mgr, 0.1)
}

func TestQTableCloneIsolation(t *testing.T) {
	orig := NewQTable(8)
	orig.Q[1][2] = 5
	clone := orig.Clone()
	if clone.NumCores != 8 || clone.Q[1][2] != 5 {
		t.Fatalf("clone lost contents: %d cores, Q[1][2] = %g", clone.NumCores, clone.Q[1][2])
	}
	clone.Q[0][0] = 99
	if orig.Q[0][0] == 99 {
		t.Error("Clone shares storage")
	}
}
