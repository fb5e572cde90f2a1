package main

import (
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// endToEnd lists the metrics a --trace 0 run reports, with their units.
// Every workload reports all of them; op_* is the workload's own
// operation (a Table 1 run, a quick CasJobs read, a federated sweep).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op_p50", "ref_ms"},
	{"op_p80", "ref_ms"},
	{"cpu_per_op", "ref_ms"},
	{"peak_rss_mb", "MB"},
	{"ok_rate", "ratio"},
	{"slo_ok_rate", "ratio"},
}

// steps are the five timed public DBFinder steps of one Table 1 run.
var steps = []string{"import", "spzone", "candidates", "clusters", "members"}

// classes are the CasJobs job classes of the casjobs workload.
var classes = []string{"cone", "join", "agg", "mydb", "extract"}

// layerSpans are the layers whose self time the traced phase reports.
var layerSpans = []string{"bench", "maxbcg", "casjobs", "fed"}

// perLayer lists the metrics a --trace 1 run reports, with their units.
// A workload that bypasses a layer reports that layer's metrics as 0.
var perLayer = func() []struct{ name, unit string } {
	var out []struct{ name, unit string }
	add := func(name, unit string) { out = append(out, struct{ name, unit string }{name, unit}) }
	// Workload-level figures the end-to-end set folds into op_*.
	add("error_rate", "ratio")
	add("read_p99_ms", "ms")
	add("write_p50_ms", "ms")
	add("write_p95_ms", "ms")
	add("slo_miss_rate", "ratio")
	for _, s := range steps {
		add("maxbcg."+s+"_s", "s")
	}
	for _, s := range steps {
		add("storage.io."+s, "count")
	}
	for _, s := range steps {
		add("storage.physical_reads."+s, "count")
	}
	for _, c := range classes {
		add("storage.io_per_job."+c, "count")
	}
	add("zone.probes_per_op", "count")
	add("zone.hits_per_op", "count")
	add("zone.local_sweep_p50_ms", "ms")
	for _, c := range classes {
		add("sqldb.plan_ms."+c, "ms")
	}
	for _, c := range classes {
		add("sqldb.query_ms."+c, "ms")
	}
	add("casjobs.queue_wait_p50_ms", "ms")
	add("casjobs.queue_wait_p99_ms", "ms")
	for _, c := range classes {
		add("casjobs.exec_ms."+c, "ms")
	}
	for _, c := range classes {
		add("casjobs.self_ms."+c, "ms")
	}
	add("casjobs.rejected", "count")
	add("casjobs.retries", "count")
	add("casjobs.queue_depth_max", "count")
	add("casjobs.heap_mb_per_kjob", "MB")
	add("fed.overhead_x", "x")
	add("fed.hit_bytes_per_hit", "B")
	add("fed.probe_bytes_per_probe", "B")
	add("fed.retries", "count")
	add("fed.hedges", "count")
	add("fed.failovers", "count")
	add("fed.stripe_hit_skew", "x")
	add("fed.boot_s", "s")
	add("fed.exchange_bytes", "B")
	add("go.alloc_mb_per_op", "MB")
	add("go.gc_per_op", "count")
	add("bench.samples", "count")
	add("bench.generator_lag_p99_ms", "ms")
	for _, m := range []string{"op_p50", "op_p80", "cpu_per_op"} {
		add("bench.trace_overhead."+m, "ratio")
	}
	// The end-to-end times as measured, and the reference kernel's time
	// that scales them (see calib.go).
	add("raw.setup_s", "s")
	add("raw.op_p50_ms", "ms")
	add("raw.op_p80_ms", "ms")
	add("raw.cpu_ms_per_op", "ms")
	add("bench.ref_kernel_ms", "ms")
	add("bench.ref_kernel_wall_ms", "ms")
	for _, l := range layerSpans {
		add("trace.self_ms_per_op."+l, "ms")
	}
	add("trace.maxbcg_step_coverage", "ratio")
	for _, r := range rungs {
		add("ladder."+r+"_ms", "ms")
	}
	add("ladder.checksum_ok", "count")
	return out
}()

// report gathers one run's outcome before it is rendered.
type report struct {
	attempted, failed, wrong int64
	e2e, layer               map[string]float64
	cond                     map[string]any
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}, cond: map[string]any{}}
}

// mismatch records one operation whose output disagreed with its oracle.
func (r *report) mismatch() { r.wrong++ }

func (r *report) result(trace bool) *result {
	list, vals := endToEnd, r.e2e
	if trace {
		list, vals = perLayer, r.layer
	}
	res := &result{
		Correct:   r.wrong == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metric, len(list)),
	}
	for _, m := range list {
		res.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	return res
}

// samples collects one phase's per-operation outcomes. It is safe for
// concurrent use by the open-loop workload's submitters.
type samples struct {
	mu  sync.Mutex
	lat []float64 // ms, successful operations
	// cpu is process CPU time per operation in ms: one figure per
	// operation in a closed loop, one per block of arrivals in the open
	// loop.
	cpu []float64
	// ref holds the reference kernel runs, one per refEvery of the
	// phase (see calib.go).
	ref       refClock
	attempted int64
	failed    int64
	wrong     int64
	limitMs   float64 // the workload's latency limit at the reference speed
}

func newSamples(limitMs float64) *samples { return &samples{limitMs: limitMs} }

// add records one operation: its latency, whether it failed (refused,
// errored or wrong) and whether its output was wrong.
func (s *samples) add(lat time.Duration, failed, wrong bool) {
	ms := float64(lat) / 1e6
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attempted++
	switch {
	case failed || wrong:
		s.failed++
		if wrong {
			s.wrong++
		}
	default:
		s.lat = append(s.lat, ms)
	}
}

func (s *samples) completed() int64 { return int64(len(s.lat)) }

// sloMisses counts the operations that failed or, at the reference
// speed, took longer than the limit.
func (s *samples) sloMisses() int64 {
	n, f := s.failed, s.ref.wallScale()
	for _, ms := range s.lat {
		if ms*f > s.limitMs {
			n++
		}
	}
	return n
}

// times are the phase's latency median and 80th percentile and its
// median CPU time per operation, as measured, in ms.
func (s *samples) times() (p50, p80, cpu float64) {
	return pct(s.lat, 0.5), pct(s.lat, 0.8), median(s.cpu)
}

// closedLoop runs op back to back for d and records each outcome and
// the process CPU time it took (with one client nothing else runs
// between two operations), and runs the reference kernel after each.
func closedLoop(d time.Duration, s *samples, op func() (failed, wrong bool)) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
		start, cpu0 := time.Now(), processCPU()
		failed, wrong := op()
		d := time.Since(start)
		s.add(d, failed, wrong)
		s.cpu = append(s.cpu, float64(processCPU()-cpu0)/1e6)
		s.ref.tick(max(1, int((d+refEvery/2)/refEvery)))
	}
}

// pct returns the q-quantile (nearest rank) of vs, or 0 when empty.
func pct(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	c := append([]float64(nil), vs...)
	sort.Float64s(c)
	i := int(math.Ceil(q*float64(len(c)))) - 1
	if i < 0 {
		i = 0
	}
	return c[i]
}

func median(vs []float64) float64 { return pct(vs, 0.5) }

// phaseCost is the process-level cost of one phase: bytes allocated and
// garbage collections.
type phaseCost struct {
	allocBytes uint64
	numGC      uint32
}

// phaseMark is a reading taken when a phase starts.
type phaseMark phaseCost

func markPhase() phaseMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return phaseMark{allocBytes: ms.TotalAlloc, numGC: ms.NumGC}
}

// cost is the phase's cost from the mark until now.
func (m phaseMark) cost() phaseCost {
	e := markPhase()
	return phaseCost{allocBytes: e.allocBytes - m.allocBytes, numGC: e.numGC - m.numGC}
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS returns freed memory to the OS and resets the process's
// peak resident set size to its current one (Linux clear_refs 5), so
// the peak read at the end of a phase covers that phase: input
// generation, oracles and discarded set-ups do not count.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set size since the last
// resetPeakRSS (VmHWM, which Linux reports in kB).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// heapMB forces a collection and returns the live heap in MiB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// setE2E fills the end-to-end metrics, and the per-layer figures that
// come from the same samples, from the untraced phase. setupRef holds
// the kernel runs made between the set-ups.
func (r *report) setE2E(setup []float64, setupRef *refClock, s *samples, c phaseCost) {
	// The CPU time is a median over operations (over blocks of arrivals
	// in the open loop), so that a few seconds in which the shared host
	// runs the processor slow move it no more than they move the latency
	// median.
	p50, p80, cpu := s.times()
	fw, fc := s.ref.wallScale(), s.ref.cpuScale()
	r.e2e["setup_s"] = median(setup) * setupRef.wallScale()
	r.e2e["op_p50"], r.e2e["op_p80"], r.e2e["cpu_per_op"] = p50*fw, p80*fw, cpu*fc
	r.layer["raw.setup_s"] = median(setup)
	r.layer["raw.op_p50_ms"], r.layer["raw.op_p80_ms"], r.layer["raw.cpu_ms_per_op"] = p50, p80, cpu
	r.layer["bench.ref_kernel_ms"] = median(s.ref.cpu)
	r.layer["bench.ref_kernel_wall_ms"] = refNominalMs / fw
	r.cond["raw"] = map[string]float64{"setup_s": median(setup), "op_p50_ms": p50, "op_p80_ms": p80, "cpu_ms_per_op": cpu,
		"ref_kernel_ms": median(s.ref.cpu), "ref_kernel_wall_ms": refNominalMs / fw}
	r.e2e["peak_rss_mb"] = peakRSSMB()
	if s.attempted > 0 {
		r.e2e["ok_rate"] = 1 - float64(s.failed)/float64(s.attempted)
		r.e2e["slo_ok_rate"] = 1 - float64(s.sloMisses())/float64(s.attempted)
		r.layer["error_rate"] = float64(s.failed) / float64(s.attempted)
		r.layer["slo_miss_rate"] = float64(s.sloMisses()) / float64(s.attempted)
	}
	if n := s.completed(); n > 0 {
		r.layer["go.alloc_mb_per_op"] = float64(c.allocBytes) / (1 << 20) / float64(n)
		r.layer["go.gc_per_op"] = float64(c.numGC) / float64(n)
	}
	r.layer["bench.samples"] = float64(s.completed())
	r.attempted += s.attempted
	r.failed += s.failed
	r.wrong += s.wrong
	r.cond["samples"] = s.completed()
	r.cond["slo_limit_ms"] = s.limitMs
}

// setOverhead reports the traced phase against the untraced one, both at
// the reference speed.
func (r *report) setOverhead(untraced, traced *samples) {
	rel := func(a, b float64) float64 {
		if a == 0 {
			return 0
		}
		return b/a - 1
	}
	u50, u80, ucpu := untraced.times()
	t50, t80, tcpu := traced.times()
	uw, tw := untraced.ref.wallScale(), traced.ref.wallScale()
	r.layer["bench.trace_overhead.op_p50"] = rel(u50*uw, t50*tw)
	r.layer["bench.trace_overhead.op_p80"] = rel(u80*uw, t80*tw)
	r.layer["bench.trace_overhead.cpu_per_op"] = rel(ucpu*untraced.ref.cpuScale(), tcpu*traced.ref.cpuScale())
	r.attempted += traced.attempted
	r.failed += traced.failed
	r.wrong += traced.wrong
}

// mix64 is the splitmix64 finaliser; the checksums fold values through it.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hitHash hashes one (probe, object, distance) neighbour. Checksums are
// sums of hashes, so they do not depend on emission order: the sweep
// emits by zone, the SQL join by probe.
func hitHash(probe int64, objID int64, dist float64) uint64 {
	return mix64(mix64(mix64(uint64(probe))^uint64(objID)) ^ math.Float64bits(dist))
}

// checksum is an order-independent digest of a result.
type checksum struct {
	n   int64
	sum uint64
}

func (c *checksum) addHit(probe, objID int64, dist float64) {
	c.n++
	c.sum += hitHash(probe, objID, dist)
}
