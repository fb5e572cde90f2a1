package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/astro"
	"repro/internal/maxbcg"
	"repro/internal/sky"
	"repro/internal/sqldb"
	"repro/internal/storage"
)

// pipelineSLOms is the pipeline workload's fixed latency limit for one
// Table 1 run. Fixed at the commit that defined the benchmark; never
// retuned.
const pipelineSLOms = 1000

// pipelineSurveys is how many seeded surveys one pipeline run cycles
// through. A survey's cluster layout sets how many candidates a Table 1
// run scores, which moves its cost by about 6% from seed to seed;
// cycling through four averages that out of the run's percentiles.
const pipelineSurveys = 4

// stepStat is one timed DBFinder step of one run.
type stepStat struct {
	dur time.Duration
	io  storage.Stats
}

// pipeline is the pipeline workload: closed loop, one client, each op one
// paper Table 1 run on a fresh database.
type pipeline struct {
	cats   []*sky.Catalog
	target astro.Box
	want   []*maxbcg.Result // in-memory finder result per survey
	next   int
	steps  map[string][]stepStat
}

// op runs one Table 1 run and checks its result against the in-memory
// finder. The op span ends before the check, which is the benchmark's
// own work.
func (p *pipeline) op(tr *tracer) (failed, wrong bool) {
	k := p.next % len(p.cats)
	p.next++
	opID := tr.newOp()
	root := tr.begin("bench.pipeline_op", opID, 0)
	got, err := p.tableOne(p.cats[k], tr, opID, root.id)
	root.end()
	if err != nil {
		return true, false
	}
	if err := sameResult(got, p.want[k]); err != nil {
		return true, true
	}
	return false, false
}

// tableOne runs import -> spZone -> candidates -> clusters -> members ->
// result on a fresh database, timing each step.
func (p *pipeline) tableOne(cat *sky.Catalog, tr *tracer, opID, parent int64) (*maxbcg.Result, error) {
	par := maxbcg.DefaultParams()
	db := sqldb.OpenPool(sqldb.PoolConfig{})
	f, err := maxbcg.NewDBFinder(db, par, cat.Kcorr, 0)
	if err != nil {
		return nil, err
	}
	pool := db.Pool()
	imp := importBox(cat, p.target)
	run := func(name string, fn func() error) error {
		sp := tr.begin("maxbcg."+name, opID, parent)
		before := pool.Stats()
		start := time.Now()
		err := fn()
		d := time.Since(start)
		p.steps[name] = append(p.steps[name], stepStat{dur: d, io: pool.Stats().Sub(before)})
		sp.end()
		return err
	}
	calls := []func() error{
		func() error { _, err := f.ImportGalaxies(cat, imp); return err },
		f.SpZone,
		func() error { _, err := f.MakeCandidates(p.target.Expand(par.BufferDeg)); return err },
		func() error { _, err := f.MakeClusters(p.target); return err },
		func() error { _, err := f.MakeMembers(); return err },
	}
	for i, name := range steps {
		if err := run(name, calls[i]); err != nil {
			return nil, err
		}
	}
	return f.Result()
}

// sameResult is the equivalence TestDBFinderMatchesInMemoryFinder pins:
// identical candidate, cluster and member sets (chi-square to 1e-9).
func sameResult(got, want *maxbcg.Result) error {
	if len(got.Candidates) != len(want.Candidates) {
		return fmt.Errorf("%d candidates, want %d", len(got.Candidates), len(want.Candidates))
	}
	for i := range got.Candidates {
		a, b := got.Candidates[i], want.Candidates[i]
		if a.ObjID != b.ObjID || a.NGal != b.NGal || a.Z != b.Z || math.Abs(a.Chi2-b.Chi2) > 1e-9 {
			return fmt.Errorf("candidate %d: %+v, want %+v", i, a, b)
		}
	}
	if len(got.Clusters) != len(want.Clusters) {
		return fmt.Errorf("%d clusters, want %d", len(got.Clusters), len(want.Clusters))
	}
	for i := range got.Clusters {
		if got.Clusters[i].ObjID != want.Clusters[i].ObjID {
			return fmt.Errorf("cluster %d: objid %d, want %d", i, got.Clusters[i].ObjID, want.Clusters[i].ObjID)
		}
	}
	if len(got.Members) != len(want.Members) {
		return fmt.Errorf("%d members, want %d", len(got.Members), len(want.Members))
	}
	for i := range got.Members {
		if got.Members[i] != want.Members[i] {
			return fmt.Errorf("member %d: %+v, want %+v", i, got.Members[i], want.Members[i])
		}
	}
	return nil
}

func runPipeline(cfg config) (*report, error) {
	rep := newReport()
	p := &pipeline{target: cfg.scale.target, steps: map[string][]stepStat{}}
	var galaxies []int
	var oracle []string
	for k := 0; k < pipelineSurveys; k++ {
		cat, err := genCatalog(cfg, k)
		if err != nil {
			return nil, err
		}
		// Oracle: the in-memory finder over the same survey.
		mem, err := maxbcg.NewFinder(cat, maxbcg.DefaultParams(), 0)
		if err != nil {
			return nil, err
		}
		want, err := mem.Run(cfg.scale.target)
		if err != nil {
			return nil, err
		}
		if cfg.perturb == "pipeline" && len(want.Members) > 0 {
			want.Members[0].Distance += 1e-6
		}
		p.cats = append(p.cats, cat)
		p.want = append(p.want, want)
		galaxies = append(galaxies, len(cat.Galaxies))
		oracle = append(oracle, want.Summary())
	}
	cat, want := p.cats[0], p.want[0]
	rep.cond["galaxies"] = galaxies
	rep.cond["oracle"] = oracle

	// Set-up: the per-run schema and k-correction load a Table 1 run
	// needs before import; the workload keeps no state across runs. It
	// takes milliseconds, so it is repeated often enough for a steady
	// median.
	var setup []float64
	var setupRef refClock
	for i := 0; i < 41; i++ {
		start := time.Now()
		if _, err := maxbcg.NewDBFinder(sqldb.OpenPool(sqldb.PoolConfig{}), maxbcg.DefaultParams(), cat.Kcorr, 0); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(start).Seconds())
		setupRef.tick(1)
	}

	// Warm-up: one untimed run on each survey.
	for range p.cats {
		if failed, wrong := p.op(nil); failed && !wrong {
			return nil, fmt.Errorf("warm-up Table 1 run failed")
		}
	}
	p.steps = map[string][]stepStat{}
	p.next = 0

	dur := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		dur /= 2
	}
	untraced := newSamples(pipelineSLOms)
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	mark := markPhase()
	closedLoop(dur, untraced, func() (bool, bool) { return p.op(nil) })
	cost := mark.cost()
	rep.setE2E(setup, &setupRef, untraced, cost)
	for _, name := range steps {
		var ds []float64
		for _, s := range p.steps[name] {
			ds = append(ds, s.dur.Seconds())
		}
		rep.layer["maxbcg."+name+"_s"] = median(ds)
		// The counts of the phase's first run, which is on survey 0,
		// so they repeat exactly for a seed whatever the run length.
		if first := p.steps[name]; len(first) > 0 {
			rep.layer["storage.io."+name] = float64(first[0].io.Total())
			rep.layer["storage.physical_reads."+name] = float64(first[0].io.PhysicalReads)
		}
	}
	if !cfg.trace {
		return rep, nil
	}

	tr := newTracer()
	traced := newSamples(pipelineSLOms)
	closedLoop(dur, traced, func() (bool, bool) { return p.op(tr) })
	rep.setOverhead(untraced, traced)
	rep.layer["trace.maxbcg_step_coverage"] = tr.coverage("bench.pipeline_op")
	if err := rep.finishTrace(cfg, tr, traced.completed()); err != nil {
		return nil, err
	}

	// Direct phase and ladder over the probe batches one run issues.
	d, err := buildDR1(cat)
	if err != nil {
		return nil, err
	}
	rec, recRes, err := recordBatches(cat, d, cfg.scale.target)
	if err != nil {
		return nil, err
	}
	if sameResult(recRes, want) != nil {
		rep.mismatch()
	}
	rep.layer["zone.probes_per_op"] = float64(countProbes(rec.batches))
	rep.layer["zone.hits_per_op"] = float64(rec.hits)
	wins, err := windows(d, rec.batches)
	if err != nil {
		return nil, err
	}
	return rep, runLadder(cfg, rep, cat, d, nil, nil, wins)
}
