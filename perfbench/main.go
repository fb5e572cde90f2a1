// Command perfbench is the repository's benchmark. One invocation runs
// one named workload against the system's public calls, checks every
// operation's output against an oracle built at setup, and prints every
// metric by name and unit; the last line of standard output is the
// result object:
//
//	go build -o perfbench . && ./perfbench --workload pipeline --seed 1 --seconds 30 --trace 0
//
// Workloads (see NOTES.md for why each exists and what it should move):
//
//	pipeline  closed loop, one client: paper Table 1 runs on fresh DBs
//	casjobs   open loop at a fixed seeded arrival rate: five job classes
//	fedsweep  closed loop, one client: recorded probe batches replayed
//	          through a two-stripe federation over loopback HTTP
//
// With --trace 0 the result carries the end-to-end metrics of an
// untraced run. With --trace 1 the run is split in an untraced half and
// a traced half (spans recorded in memory around every public call and
// written to .bench_build/perfbench/), followed by a direct phase that
// times each layer's public call on its own and the layer ladder; the
// result carries the per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one run's settings. The survey and target default to the
// paper's Table 1 geometry; the self-test shrinks them.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    scale
	outDir   string
	// perturb names an oracle the self-test corrupts on purpose, so the
	// run must come out incorrect.
	perturb string
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: pipeline, casjobs or fedsweep")
	flag.Int64Var(&cfg.seed, "seed", 20040801, "seed of the survey and of every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&cfg.outDir, "out", ".bench_build/perfbench", "directory for trace files")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.scale = paperScale()

	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload and assembles its result. The run
// conditions go to out as one JSON line, when out is not nil.
func run(cfg config, out io.Writer) (*result, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(min(w.procs, runtime.NumCPU())))
	initRef()
	start := time.Now()
	steal0 := readSteal()
	rep, err := w.run(cfg)
	if err != nil {
		return nil, err
	}
	if out != nil {
		cond := conditions(cfg, rep)
		cond["wall_s"] = time.Since(start).Seconds()
		cond["cpu_steal_share"] = readSteal().since(steal0)
		b, _ := json.Marshal(map[string]any{"conditions": cond})
		fmt.Fprintln(out, string(b))
	}
	return rep.result(cfg.trace), nil
}

// workloads maps a workload name to the function that runs it and to
// the processors (GOMAXPROCS) it runs on. The pipeline's one client does
// serial work, so it gets one: with a second, idle processor the Go
// runtime's spinning and the background GC worker moved its CPU time per
// run by about 9% between identical runs, against 0.5% on one. The
// federation's two stripes and the open loop's concurrent jobs get two.
var workloads = map[string]struct {
	run   func(config) (*report, error)
	procs int
}{
	"pipeline": {runPipeline, 1},
	"casjobs":  {runCasjobs, 2},
	"fedsweep": {runFedsweep, 2},
}
