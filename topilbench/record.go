package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// Host identifies the machine and toolchain a run measured.
type Host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
}

// Record is the file every run leaves under .bench_build/records.
type Record struct {
	Time   string `json:"time"`
	Host   Host   `json:"host"`
	Commit string `json:"commit"`
	Tree   string `json:"tree_sha256"` // Go sources and go.mod files

	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	EndToEnd  map[string]Metric `json:"end_to_end"`
	PerLayer  map[string]Metric `json:"per_layer,omitempty"`
	Notes     map[string]any    `json:"notes"`
	// TracingOverhead is, for a traced run, each end-to-end value minus
	// the same value from the latest untraced run of this workload, seed
	// and source tree (absent when there is none).
	TracingOverhead map[string]float64 `json:"tracing_overhead,omitempty"`
}

func hostFingerprint() Host {
	h := Host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var b []byte
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		h.Kernel = string(b)
	}
	return h
}

// revision names the measured source: the git commit when the checkout is
// a repository ("none" otherwise), plus a digest of every Go source and
// module file, which tells apart uncommitted edits too.
func revision() (commit, tree string) {
	commit = "none"
	if _, err := os.Stat(".git"); err == nil {
		cmd := exec.Command("git", "rev-parse", "HEAD")
		if wd, err := filepath.Abs("."); err == nil {
			// Keep git from searching above the checkout.
			cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
		}
		if out, err := cmd.Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, .bench_build
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s %d\n", path, len(b))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		return commit, "unknown"
	}
	return commit, hex.EncodeToString(h.Sum(nil))[:16]
}

func recordPath(workload string, seed int64, traced bool) string {
	t := 0
	if traced {
		t = 1
	}
	return filepath.Join(".bench_build", "records", fmt.Sprintf("%s-s%d-t%d.json", workload, seed, t))
}

func writeRecord(workload string, seed int64, window time.Duration, traced bool, rep *Report) error {
	commit, tree := revision()
	rec := Record{
		Time:      time.Now().UTC().Format(time.RFC3339),
		Host:      hostFingerprint(),
		Commit:    commit,
		Tree:      tree,
		Workload:  workload,
		Seed:      seed,
		Seconds:   window.Seconds(),
		Trace:     traced,
		Attempted: rep.Attempted,
		Failed:    rep.Failed,
		Problems:  rep.Problems,
		EndToEnd:  rep.E2E,
		Notes:     rep.Notes,
	}
	if traced {
		rec.PerLayer = rep.Layers
		if b, err := os.ReadFile(recordPath(workload, seed, false)); err == nil {
			var base Record
			if json.Unmarshal(b, &base) == nil && base.Tree == rec.Tree {
				rec.TracingOverhead = map[string]float64{}
				for k, m := range rep.E2E {
					if bm, ok := base.EndToEnd[k]; ok {
						rec.TracingOverhead[k] = m.Value - bm.Value
					}
				}
				progress("tracing overhead (traced - untraced): %s", fmtMap(rec.TracingOverhead))
			}
		}
	}
	path := recordPath(workload, seed, traced)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	progress("run record: %s", path)
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func fmtMap(m map[string]float64) string {
	var parts []string
	for _, k := range sortedKeys(m) {
		parts = append(parts, fmt.Sprintf("%s=%+.4g", k, m[k]))
	}
	return strings.Join(parts, " ")
}
