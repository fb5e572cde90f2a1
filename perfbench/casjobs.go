package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/casjobs"
	"repro/internal/sky"
	"repro/internal/sqldb"
	"repro/internal/zone"
)

// The casjobs workload's fixed load. Chosen once, at the commit that
// defined the benchmark, and never retuned. The traffic is synthetic and
// unverified: no published SkyServer or CasJobs query mix is cited for
// the class shares, the user count or the statement shapes. The classes
// are drawn with equal shares, the plainest choice that favours none.
// casjobsRate keeps two cores about a sixth busy (about 11 ms of CPU per
// job at this mix): at a quarter to a half busy, whenever two agg or
// extract jobs held both processors the generator's timers and the
// short reads waited for them, which turned the shared host's speed
// swings into read latency spreads of 0.2-0.5 of the median across runs.
// casjobsReadSLOms is a few times the idle median of the slowest quick
// class (agg, a SeqScan over the galaxy table).
//
// There is no max-rate search: on two shared cores a rate ladder flips
// between steps from run to run, while latency at one fixed rate carries
// the same signal.
const (
	casjobsRate      = 30 // arrivals per second, Poisson
	casjobsReadSLOms = 60
	casjobsUsers     = 4
	stmtsPerClass    = 64 // distinct statements per quick class
	joinProbes       = 16 // probes per join statement
	extractVariants  = 4
	mydbStmts        = 16
	// casjobsBlock is the arrivals of one block: the schedule deals
	// the classes in shuffled blocks holding each class ten times, so
	// every block asks for the same work.
	casjobsBlock = 50
)

// arrival is one scheduled job.
type arrival struct {
	due   time.Duration // since the phase started
	class int           // index into classes
	user  int
	stmt  int
}

// schedule draws a Poisson arrival stream at casjobsRate for d. Classes
// come in shuffled blocks of casjobsBlock arrivals with equal shares.
func schedule(rng *rand.Rand, d time.Duration) []arrival {
	var out []arrival
	var t time.Duration
	var block []int
	for {
		t += time.Duration(rng.ExpFloat64() / casjobsRate * float64(time.Second))
		if t >= d {
			return out
		}
		if len(block) == 0 {
			for i := 0; i < casjobsBlock; i++ {
				block = append(block, i%len(classes))
			}
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		}
		a := arrival{due: t, user: rng.Intn(casjobsUsers), class: block[0]}
		block = block[1:]
		switch classes[a.class] {
		case "mydb":
			a.stmt = rng.Intn(mydbStmts)
		case "extract":
			a.stmt = rng.Intn(extractVariants)
		default:
			a.stmt = rng.Intn(stmtsPerClass)
		}
		out = append(out, a)
	}
}

// valueHash hashes one SQL value by type and bits.
func valueHash(v sqldb.Value) uint64 {
	switch v.T {
	case sqldb.TInt:
		return mix64(1<<60 ^ uint64(v.I))
	case sqldb.TFloat:
		return mix64(2<<60 ^ math.Float64bits(v.F))
	case sqldb.TString:
		h := fnv.New64a()
		h.Write([]byte(v.S))
		return mix64(3<<60 ^ h.Sum64())
	case sqldb.TBool:
		if v.B {
			return mix64(4<<60 | 1)
		}
		return mix64(4 << 60)
	}
	return mix64(0)
}

// rowsChecksum digests a result set: row count and the sum of row hashes.
func rowsChecksum(rows *sqldb.Rows) checksum {
	var c checksum
	if rows == nil {
		return c
	}
	for _, r := range rows.All() {
		var h uint64
		for _, v := range r {
			h = mix64(h ^ valueHash(v))
		}
		c.n++
		c.sum += h
	}
	return c
}

// jobStats is one phase's per-layer bookkeeping, shared by submitters.
type jobStats struct {
	mu        sync.Mutex
	exec      [5][]float64 // ms per class
	queueWait []float64
	lag       []float64
	retries   int64
	rejected  int64
	depthMax  int
	// last extraction completed per user: job id and variant.
	lastID      [casjobsUsers]int64
	lastVariant [casjobsUsers]int
}

// casjobsWL is the casjobs workload's state.
type casjobsWL struct {
	srv   *casjobs.Server
	d     *dr1
	users []string
	sql   [5][]string   // statements per class
	want  [5][]checksum // DR1 oracle per cone/join/agg statement
	// mydbWant[s][k] is mydb statement s over extraction variant k;
	// extractWant[k] is the whole extraction table of variant k.
	mydbWant    [][]checksum
	extractWant []checksum
	lastVariant [casjobsUsers]int
}

func fmtF(x float64) string { return strconv.FormatFloat(x, 'f', 4, 64) }

// statements draws every class's statement pool and loads the join
// probe table into DR1.
func (c *casjobsWL) statements(rng *rand.Rand, cat *sky.Catalog) [][]sqldb.Value {
	r := cat.Region
	in := func(lo, hi float64) float64 { return lo + 0.1 + rng.Float64()*(hi-lo-0.2) }
	var probes [][]sqldb.Value
	for i := 0; i < stmtsPerClass; i++ {
		c.sql[0] = append(c.sql[0], fmt.Sprintf("SELECT objID, distance FROM fGetNearbyObjEqZd(%s, %s, %s) n",
			fmtF(in(r.MinRa, r.MaxRa)), fmtF(in(r.MinDec, r.MaxDec)), fmtF(0.02+0.03*rng.Float64())))
		lo := int64(len(probes))
		for k := 0; k < joinProbes; k++ {
			probes = append(probes, []sqldb.Value{sqldb.Int(int64(len(probes))),
				sqldb.Float(in(r.MinRa, r.MaxRa)), sqldb.Float(in(r.MinDec, r.MaxDec)), sqldb.Float(0.01 + 0.03*rng.Float64())})
		}
		c.sql[1] = append(c.sql[1], joinSQL("Probes", lo, lo+joinProbes-1))
		w, h := 0.2+0.4*rng.Float64(), 0.2+0.4*rng.Float64()
		ra, dec := in(r.MinRa, r.MaxRa-w), in(r.MinDec, r.MaxDec-h)
		c.sql[2] = append(c.sql[2], fmt.Sprintf(
			"SELECT COUNT(*), AVG(i), MIN(gr), MAX(ri) FROM galaxy WHERE ra BETWEEN %s AND %s AND dec BETWEEN %s AND %s",
			fmtF(ra), fmtF(ra+w), fmtF(dec), fmtF(dec+h)))
	}
	for i := 0; i < mydbStmts; i++ {
		c.sql[3] = append(c.sql[3], fmt.Sprintf(
			"SELECT COUNT(*), SUM(i), MIN(ra), MAX(dec) FROM ext WHERE i < %s", fmtF(17+2.5*rng.Float64())))
	}
	for i := 0; i < extractVariants; i++ {
		ra := in(r.MinRa, r.MaxRa-0.25)
		c.sql[4] = append(c.sql[4], fmt.Sprintf(
			"SELECT objid, ra, dec, i, gr FROM galaxy WHERE ra BETWEEN %s AND %s AND i < 19.5", fmtF(ra), fmtF(ra+0.25)))
	}
	return probes
}

// oracles runs every statement on the quiet DR1 and on a quiet MyDB.
func (c *casjobsWL) oracles() error {
	for ci := 0; ci < 3; ci++ {
		for _, q := range c.sql[ci] {
			rows, err := c.d.db.Query(q)
			if err != nil {
				return fmt.Errorf("%s oracle: %w", classes[ci], err)
			}
			c.want[ci] = append(c.want[ci], rowsChecksum(rows))
		}
	}
	const oracleUser = "oracle"
	if err := c.srv.CreateUser(oracleUser); err != nil {
		return err
	}
	mydb, err := c.srv.MyDB(oracleUser)
	if err != nil {
		return err
	}
	c.mydbWant = make([][]checksum, len(c.sql[3]))
	for _, q := range c.sql[4] {
		if err := c.extract(oracleUser, q); err != nil {
			return err
		}
		rows, err := mydb.Query("SELECT objid, ra, dec, i, gr FROM ext")
		if err != nil {
			return err
		}
		c.extractWant = append(c.extractWant, rowsChecksum(rows))
		for s, mq := range c.sql[3] {
			rows, err := mydb.Query(mq)
			if err != nil {
				return err
			}
			c.mydbWant[s] = append(c.mydbWant[s], rowsChecksum(rows))
		}
	}
	// Every user starts with an extraction table, so mydb reads never
	// see a missing one.
	for u, name := range c.users {
		k := u % extractVariants
		if err := c.extract(name, c.sql[4][k]); err != nil {
			return err
		}
		c.lastVariant[u] = k
	}
	return nil
}

// perturb corrupts one class's oracle ("casjobs.<class>"), for the
// self-test: every job of that class must then count as wrong.
func (c *casjobsWL) perturb(what string) {
	for ci, cl := range classes {
		if what != "casjobs."+cl {
			continue
		}
		switch cl {
		case "mydb":
			for s := range c.mydbWant {
				for k := range c.mydbWant[s] {
					c.mydbWant[s][k].sum++
				}
			}
		case "extract":
			for k := range c.extractWant {
				c.extractWant[k].n++
			}
		default:
			for i := range c.want[ci] {
				c.want[ci][i].sum++
			}
		}
	}
}

// extract runs one extraction job to completion.
func (c *casjobsWL) extract(user, q string) error {
	j, err := c.srv.Submit(user, "DR1", q, "ext", false)
	if err != nil {
		return err
	}
	if st, err := c.srv.Wait(j.ID); err != nil || st != casjobs.StatusFinished {
		return fmt.Errorf("extraction for %s: %v %s %s", user, err, st, j.Err())
	}
	return nil
}

// issue submits one arrival and records its outcome against the oracle.
func (c *casjobsWL) issue(a arrival, due time.Time, reads, writes *samples, st *jobStats, tr *tracer) {
	class := classes[a.class]
	user := c.users[a.user]
	opID := tr.newOp()
	root := tr.beginAt("bench.casjobs_op", opID, 0, due)
	defer root.end()
	ctxName, out, quick := "DR1", "", true
	switch class {
	case "mydb":
		ctxName = "MYDB"
	case "extract":
		out, quick = "ext", false
	}
	s := reads
	if !quick {
		s = writes
	}
	sp := tr.begin("casjobs.Submit", opID, root.id)
	submitted := time.Now()
	j, err := c.srv.Submit(user, ctxName, c.sql[a.class][a.stmt], out, quick)
	sp.end()
	if err != nil {
		if errors.Is(err, casjobs.ErrQueueFull) || errors.Is(err, casjobs.ErrRateLimited) || errors.Is(err, casjobs.ErrDraining) {
			st.mu.Lock()
			st.rejected++
			st.mu.Unlock()
		}
		s.add(0, true, false)
		return
	}
	if !quick {
		sp := tr.begin("casjobs.Wait", opID, root.id)
		_, err = c.srv.Wait(j.ID)
		sp.end()
	}
	done := time.Now()
	failed := err != nil || j.Status() != casjobs.StatusFinished
	wrong := false
	if !failed {
		got := rowsChecksum(j.Rows())
		switch class {
		case "mydb":
			wrong = true
			for _, w := range c.mydbWant[a.stmt] {
				if got == w {
					wrong = false
				}
			}
		case "extract":
			wrong = j.RowCount() != c.extractWant[a.stmt].n
		default:
			wrong = got != c.want[a.class][a.stmt]
		}
	}
	s.add(done.Sub(due), failed, wrong)
	exec := j.Elapsed()
	st.mu.Lock()
	defer st.mu.Unlock()
	st.exec[a.class] = append(st.exec[a.class], float64(exec)/1e6)
	st.queueWait = append(st.queueWait, float64(done.Sub(submitted)-exec)/1e6)
	st.retries += int64(j.Attempts() - 1)
	if !quick && !failed && j.ID > st.lastID[a.user] {
		st.lastID[a.user], st.lastVariant[a.user] = j.ID, a.stmt
	}
}

// openLoop issues sched on time, each arrival from its own goroutine (the
// users are independent), and waits for every job to finish. It records
// the process CPU time per job of each block of arrivals in reads.cpu,
// from the block's first arrival to the next block's (to the last job's
// end for the final block): a median over blocks that ask for the same
// work is not moved by a few seconds in which the shared host runs slow.
func (c *casjobsWL) openLoop(sched []arrival, reads, writes *samples, st *jobStats, tr *tracer) {
	var wg sync.WaitGroup
	stop := make(chan struct{})
	kernelDone := make(chan struct{})
	go func() {
		defer close(kernelDone)
		tick := time.NewTicker(refEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				reads.ref.tick(1)
			}
		}
	}()
	defer func() { close(stop); <-kernelDone }()
	start := time.Now()
	var blockCPU time.Duration
	blockStart := 0
	for i, a := range sched {
		due := start.Add(a.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if i%casjobsBlock == 0 {
			now := processCPU()
			if i > 0 {
				reads.cpu = append(reads.cpu, float64(now-blockCPU)/1e6/casjobsBlock)
			}
			blockCPU, blockStart = now, i
		}
		lag := time.Since(due)
		q, l := c.srv.QueueDepth()
		st.mu.Lock()
		st.lag = append(st.lag, float64(lag)/1e6)
		st.depthMax = max(st.depthMax, q+l)
		st.mu.Unlock()
		wg.Add(1)
		go func(a arrival) {
			defer wg.Done()
			c.issue(a, due, reads, writes, st, tr)
		}(a)
	}
	wg.Wait()
	if len(sched) > 0 {
		reads.cpu = append(reads.cpu, float64(processCPU()-blockCPU)/1e6/float64(len(sched)-blockStart))
	}
	for u := range c.lastVariant {
		if st.lastID[u] != 0 {
			c.lastVariant[u] = st.lastVariant[u]
		}
	}
}

// checkTables compares every user's extraction table with the variant
// its last extraction wrote.
func (c *casjobsWL) checkTables(rep *report) error {
	for u, name := range c.users {
		mydb, err := c.srv.MyDB(name)
		if err != nil {
			return err
		}
		rows, err := mydb.Query("SELECT objid, ra, dec, i, gr FROM ext")
		if err != nil {
			return err
		}
		if rowsChecksum(rows) != c.extractWant[c.lastVariant[u]] {
			rep.mismatch()
		}
	}
	return nil
}

func runCasjobs(cfg config) (*report, error) {
	rep := newReport()
	cat, err := genCatalog(cfg, 0)
	if err != nil {
		return nil, err
	}
	rep.cond["galaxies"] = len(cat.Galaxies)
	rep.cond["arrival_rate_per_s"] = casjobsRate
	rep.cond["read_slo_ms"] = casjobsReadSLOms
	c := &casjobsWL{}
	for u := 0; u < casjobsUsers; u++ {
		c.users = append(c.users, fmt.Sprintf("user%d", u))
	}
	probes := c.statements(rand.New(rand.NewSource(cfg.seed)), cat)

	// Set-up, seven times (keep the last): build DR1, load the probe
	// table, start the server, create the users. Each build starts after
	// the previous server is closed and the heap collected.
	var setup []float64
	var setupRef refClock
	var builds []stepStat
	for i := 0; i < 7; i++ {
		if c.srv != nil {
			c.srv.Close()
			c.srv, c.d = nil, nil
		}
		runtime.GC()
		start := time.Now()
		d, err := buildDR1(cat)
		if err != nil {
			return nil, err
		}
		if _, err := d.db.Exec("CREATE TABLE Probes (pid bigint PRIMARY KEY, ra float, dec float, r float)"); err != nil {
			return nil, err
		}
		pt, _ := d.db.Table("Probes")
		if err := pt.BulkInsert(probes); err != nil {
			return nil, err
		}
		srv, err := newServer(d, c.users)
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(start).Seconds())
		setupRef.tick(setupTicks)
		builds = append(builds, d.build[:]...)
		c.srv, c.d = srv, d
	}
	defer c.srv.Close()
	for i, name := range steps[:2] {
		var ds []float64
		for k := i; k < len(builds); k += 2 {
			ds = append(ds, builds[k].dur.Seconds())
		}
		rep.layer["maxbcg."+name+"_s"] = median(ds)
		rep.layer["storage.io."+name] = float64(builds[i].io.Total())
		rep.layer["storage.physical_reads."+name] = float64(builds[i].io.PhysicalReads)
	}

	if err := c.oracles(); err != nil {
		return nil, err
	}
	c.perturb(cfg.perturb)
	var joinHits int64
	for _, w := range c.want[1] {
		joinHits += w.n
	}
	rep.layer["zone.probes_per_op"] = joinProbes
	rep.layer["zone.hits_per_op"] = float64(joinHits) / float64(len(c.want[1]))

	// Warm-up: one second of the same load, untimed.
	rng := rand.New(rand.NewSource(cfg.seed + 1))
	c.openLoop(schedule(rng, time.Second), newSamples(casjobsReadSLOms), newSamples(math.Inf(1)), &jobStats{}, nil)

	dur := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		dur /= 2
	}
	reads, writes, st := newSamples(casjobsReadSLOms), newSamples(math.Inf(1)), &jobStats{}
	heap0 := heapMB()
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	mark := markPhase()
	c.openLoop(schedule(rand.New(rand.NewSource(cfg.seed+2)), dur), reads, writes, st, nil)
	cost := mark.cost()
	heap1 := heapMB()
	if err := c.checkTables(rep); err != nil {
		return nil, err
	}
	c.report(rep, setup, &setupRef, reads, writes, st, cost)
	// Working set against the pool: 0 means DR1 never left it.
	rep.cond["dr1_pool_evictions"] = c.d.db.Pool().Evictions()
	jobs := reads.attempted + writes.attempted
	if jobs > 0 {
		rep.layer["casjobs.heap_mb_per_kjob"] = (heap1 - heap0) / (float64(jobs) / 1000)
	}
	if !cfg.trace {
		return rep, nil
	}

	tr := newTracer()
	treads, twrites, tst := newSamples(casjobsReadSLOms), newSamples(math.Inf(1)), &jobStats{}
	c.openLoop(schedule(rand.New(rand.NewSource(cfg.seed+3)), dur), treads, twrites, tst, tr)
	rep.setOverhead(reads, treads)
	rep.attempted += twrites.attempted
	rep.failed += twrites.failed
	rep.wrong += twrites.wrong
	if err := c.checkTables(rep); err != nil {
		return nil, err
	}
	if err := rep.finishTrace(cfg, tr, treads.attempted+twrites.attempted); err != nil {
		return nil, err
	}
	if err := c.direct(rep, st); err != nil {
		return nil, err
	}
	// The ladder answers the join class's probe groups.
	var batches [][]zone.Probe
	for g := 0; g < ladderBatches; g++ {
		var b []zone.Probe
		for _, row := range probes[g*joinProbes : (g+1)*joinProbes] {
			b = append(b, zone.Probe{Ra: row[1].F, Dec: row[2].F, R: row[3].F})
		}
		batches = append(batches, b)
	}
	return rep, runLadder(cfg, rep, cat, c.d, c.srv, nil, batches)
}

// report fills the end-to-end and casjobs metrics of the untraced phase.
func (c *casjobsWL) report(rep *report, setup []float64, setupRef *refClock, reads, writes *samples, st *jobStats, cost phaseCost) {
	rep.setE2E(setup, setupRef, reads, cost)
	all := reads.attempted + writes.attempted
	failed := reads.failed + writes.failed
	if all > 0 {
		rep.e2e["ok_rate"] = 1 - float64(failed)/float64(all)
		rep.layer["error_rate"] = float64(failed) / float64(all)
	}
	if n := reads.completed() + writes.completed(); n > 0 {
		rep.layer["go.alloc_mb_per_op"] = float64(cost.allocBytes) / (1 << 20) / float64(n)
		rep.layer["go.gc_per_op"] = float64(cost.numGC) / float64(n)
	}
	if reads.attempted > 0 {
		miss := float64(reads.sloMisses()+writes.failed) / float64(reads.attempted)
		rep.e2e["slo_ok_rate"] = 1 - miss
		rep.layer["slo_miss_rate"] = miss
	}
	rep.attempted += writes.attempted
	rep.failed += writes.failed
	rep.wrong += writes.wrong
	rep.layer["read_p99_ms"] = pct(reads.lat, 0.99)
	rep.layer["write_p50_ms"] = pct(writes.lat, 0.5)
	rep.layer["write_p95_ms"] = pct(writes.lat, 0.95)
	rep.layer["casjobs.queue_wait_p50_ms"] = pct(st.queueWait, 0.5)
	rep.layer["casjobs.queue_wait_p99_ms"] = pct(st.queueWait, 0.99)
	for i, cl := range classes {
		rep.layer["casjobs.exec_ms."+cl] = median(st.exec[i])
	}
	rep.layer["casjobs.rejected"] = float64(st.rejected)
	rep.layer["casjobs.retries"] = float64(st.retries)
	rep.layer["casjobs.queue_depth_max"] = float64(st.depthMax)
	rep.layer["bench.generator_lag_p99_ms"] = pct(st.lag, 0.99)
	rep.cond["writes"] = writes.completed()
}

// direct times each class's statements straight on sqldb, with the
// server idle: Explain, Query, and the pool I/O of one query.
func (c *casjobsWL) direct(rep *report, st *jobStats) error {
	const n = 8
	mydb, err := c.srv.MyDB(c.users[0])
	if err != nil {
		return err
	}
	for ci, cl := range classes {
		db := c.d.db
		if cl == "mydb" {
			db = mydb
		}
		var plan, query []float64
		var io int64
		for i := 0; i < n; i++ {
			q := c.sql[ci][i%len(c.sql[ci])]
			start := time.Now()
			if _, err := db.Explain(q); err != nil {
				return err
			}
			plan = append(plan, float64(time.Since(start))/1e6)
			before := db.Stats()
			start = time.Now()
			rows, err := db.Query(q)
			if err != nil {
				return err
			}
			query = append(query, float64(time.Since(start))/1e6)
			io += db.Stats().Sub(before).Total()
			got := rowsChecksum(rows)
			switch {
			case ci < 3 && got != c.want[ci][i%len(c.sql[ci])],
				cl == "mydb" && got != c.mydbWant[i%len(c.sql[ci])][c.lastVariant[0]],
				cl == "extract" && got != c.extractWant[i%len(c.sql[ci])]:
				rep.mismatch()
			}
		}
		rep.layer["sqldb.plan_ms."+cl] = median(plan)
		rep.layer["sqldb.query_ms."+cl] = median(query)
		rep.layer["storage.io_per_job."+cl] = float64(io) / n
		rep.layer["casjobs.self_ms."+cl] = median(st.exec[ci]) - median(query)
	}
	return nil
}
