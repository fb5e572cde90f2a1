package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/sqldb"
	"repro/internal/storage"
)

// conditions records what a result was measured under: the machine, the
// toolchain, the inputs and the code.
func conditions(cfg config, r *report) map[string]any {
	c := map[string]any{
		"workload":    cfg.workload,
		"seed":        cfg.seed,
		"seconds":     cfg.seconds,
		"trace":       cfg.trace,
		"cpu_model":   cpuModel(),
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go_version":  runtime.Version(),
		"commit":      commit(),
		"source_hash": sourceHash(),
	}
	// Every database the workloads open uses the default pool.
	frames := sqldb.OpenPool(sqldb.PoolConfig{}).Pool().Frames()
	c["pool_frames"] = frames
	c["pool_mib"] = frames * storage.PageSize >> 20
	for k, v := range r.cond {
		c[k] = v
	}
	return c
}

// stealTicks is the machine's steal and total CPU time from /proc/stat:
// on a virtual machine, time the host gave this guest's CPUs to others.
type stealTicks struct{ steal, total int64 }

func readSteal() stealTicks {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealTicks{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	var t stealTicks
	for i, f := range strings.Fields(line)[1:] {
		n, _ := strconv.ParseInt(f, 10, 64)
		t.total += n
		if i == 7 {
			t.steal = n
		}
	}
	return t
}

// since is the share of CPU time stolen between s0 and s.
func (s stealTicks) since(s0 stealTicks) float64 {
	if s.total <= s0.total {
		return 0
	}
	return float64(s.steal-s0.steal) / float64(s.total-s0.total)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the checkout's git commit, when it is a git checkout.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash digests the program's Go sources and go.mod, so results of
// a checkout without git history still name the code they measured.
func sourceHash() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || path == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
