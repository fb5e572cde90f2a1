package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/astro"
	"repro/internal/fed"
	"repro/internal/maxbcg"
	"repro/internal/sky"
	"repro/internal/zone"
)

// fedsweepSLOms is the fedsweep workload's fixed latency limit for one
// federated batch sweep. Fixed at the commit that defined the benchmark;
// never retuned.
const fedsweepSLOms = 500

// fedsweep is the fedsweep workload: closed loop, one client, each op one
// window of recorded pipeline probes replayed through Coordinator.Sweep.
type fedsweep struct {
	fl      *fleet
	batches [][]zone.Probe
	want    []checksum // local zone.Sweep oracle per batch
	order   []int      // seeded batch sequence
	next    int
}

func (f *fedsweep) op(tr *tracer) (failed, wrong bool) {
	bi := f.order[f.next%len(f.order)]
	f.next++
	opID := tr.newOp()
	root := tr.begin("bench.fedsweep_op", opID, 0)
	sp := tr.begin("fed.Sweep", opID, root.id)
	got, err := f.fl.sweep(f.batches[bi])
	sp.end()
	root.end()
	if err != nil {
		return true, false
	}
	if got != f.want[bi] {
		return true, true
	}
	return false, false
}

// replayInputs records the pipeline's probe batches through the Remote
// seam against a local sweep, checks the recording run against the
// in-memory finder, and cuts the batches into replay windows with their
// local zone.Sweep checksums. The local DR1 is dropped on return, so it
// does not sit in the heap while the fleet is measured.
func replayInputs(cat *sky.Catalog, target astro.Box) (*fedsweep, error) {
	d, err := buildDR1(cat)
	if err != nil {
		return nil, err
	}
	rec, recRes, err := recordBatches(cat, d, target)
	if err != nil {
		return nil, err
	}
	mem, err := maxbcg.NewFinder(cat, maxbcg.DefaultParams(), 0)
	if err != nil {
		return nil, err
	}
	memRes, err := mem.Run(target)
	if err != nil {
		return nil, err
	}
	if err := sameResult(recRes, memRes); err != nil {
		return nil, fmt.Errorf("recording run differs from the in-memory finder: %w", err)
	}
	wins, err := windows(d, rec.batches)
	if err != nil {
		return nil, err
	}
	f := &fedsweep{batches: wins}
	for _, b := range f.batches {
		c, err := d.localSweep(b)
		if err != nil {
			return nil, err
		}
		f.want = append(f.want, c)
	}
	return f, nil
}

func runFedsweep(cfg config) (*report, error) {
	rep := newReport()
	cat, err := genCatalog(cfg, 0)
	if err != nil {
		return nil, err
	}
	rep.cond["galaxies"] = len(cat.Galaxies)

	f, err := replayInputs(cat, cfg.scale.target)
	if err != nil {
		return nil, err
	}
	if cfg.perturb == "fedsweep" {
		for i := range f.want {
			f.want[i].sum++
		}
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	for i := 0; i < 64; i++ {
		f.order = append(f.order, rng.Perm(len(f.batches))...)
	}
	rep.cond["batches"] = len(f.batches)

	// Set-up: boot and sync the fleet seven times; keep the last. Each
	// boot starts after the previous fleet is closed and the heap
	// collected, so it never shares the process with another fleet.
	var setup []float64
	var setupRef refClock
	for i := 0; i < 7; i++ {
		if f.fl != nil {
			f.fl.close()
			f.fl = nil
		}
		runtime.GC()
		start := time.Now()
		fl, err := bootFleet(cat)
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(start).Seconds())
		setupRef.tick(setupTicks)
		f.fl = fl
	}
	defer f.fl.close()
	rep.layer["fed.boot_s"] = median(setup)
	rep.layer["fed.exchange_bytes"] = float64(f.fl.exchangeBytes())

	// Warm-up: ten untimed sweeps.
	for i := 0; i < 10; i++ {
		if failed, wrong := f.op(nil); failed && !wrong {
			return nil, fmt.Errorf("warm-up federated sweep failed")
		}
	}
	f.next = 0

	dur := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		dur /= 2
	}
	c0 := f.fl.coord.CoordStats()
	w0 := workerHits(f.fl)
	untraced := newSamples(fedsweepSLOms)
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	mark := markPhase()
	closedLoop(dur, untraced, func() (bool, bool) { return f.op(nil) })
	cost := mark.cost()
	rep.setE2E(setup, &setupRef, untraced, cost)
	c1 := f.fl.coord.CoordStats()
	w1 := workerHits(f.fl)
	fedLayer(rep, c0, c1, w0, w1)
	probes, hits := 0, int64(0)
	for i := 0; i < int(untraced.attempted); i++ {
		bi := f.order[i%len(f.order)]
		probes += len(f.batches[bi])
		hits += f.want[bi].n
	}
	if untraced.attempted > 0 {
		rep.layer["zone.probes_per_op"] = float64(probes) / float64(untraced.attempted)
		rep.layer["zone.hits_per_op"] = float64(hits) / float64(untraced.attempted)
	}
	if !cfg.trace {
		return rep, nil
	}

	tr := newTracer()
	traced := newSamples(fedsweepSLOms)
	closedLoop(dur, traced, func() (bool, bool) { return f.op(tr) })
	rep.setOverhead(untraced, traced)
	if err := rep.finishTrace(cfg, tr, traced.completed()); err != nil {
		return nil, err
	}

	// Direct phase: the same batches swept in-process.
	d, err := buildDR1(cat)
	if err != nil {
		return nil, err
	}
	var local []float64
	for k := 0; k < 3; k++ {
		for _, b := range f.batches {
			start := time.Now()
			if _, err := d.localSweep(b); err != nil {
				return nil, err
			}
			local = append(local, float64(time.Since(start))/1e6)
		}
	}
	rep.layer["zone.local_sweep_p50_ms"] = median(local)
	if l := median(local); l > 0 {
		rep.layer["fed.overhead_x"] = pct(untraced.lat, 0.5) / l
	}
	return rep, runLadder(cfg, rep, cat, d, nil, f.fl, f.batches)
}

func workerHits(fl *fleet) []int64 {
	var out []int64
	for _, w := range fl.workers {
		out = append(out, w.Stats().Hits)
	}
	return out
}

// fedLayer reports the coordinator and stripe counters over a phase.
func fedLayer(rep *report, c0, c1 fed.CoordStats, w0, w1 []int64) {
	if h := c1.Hits - c0.Hits; h > 0 {
		rep.layer["fed.hit_bytes_per_hit"] = float64(c1.HitBytesIn-c0.HitBytesIn) / float64(h)
	}
	if p := c1.Probes - c0.Probes; p > 0 {
		rep.layer["fed.probe_bytes_per_probe"] = float64(c1.ProbeBytesOut-c0.ProbeBytesOut) / float64(p)
	}
	rep.layer["fed.retries"] = float64(c1.Retries - c0.Retries)
	rep.layer["fed.hedges"] = float64(c1.Hedges - c0.Hedges)
	rep.layer["fed.failovers"] = float64(c1.Failovers - c0.Failovers)
	var sum, mx int64
	for i := range w0 {
		d := w1[i] - w0[i]
		sum += d
		mx = max(mx, d)
	}
	if sum > 0 {
		rep.layer["fed.stripe_hit_skew"] = float64(mx) / (float64(sum) / float64(len(w0)))
	}
}
