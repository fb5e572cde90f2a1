package main

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/casjobs"
	"repro/internal/sky"
	"repro/internal/sqldb"
	"repro/internal/zone"
)

// rungs are the layer ladder's steps, bottom up: the in-process sweep,
// planning the SQL neighbour join, running it, running it as a CasJobs
// quick job, and the federated sweep over the wire.
var rungs = []string{"zone", "sql_plan", "sql", "casjobs", "fed"}

const (
	ladderBatches = 8 // recorded batches the ladder answers
	ladderRepeats = 3 // timed repetitions per rung and batch
)

// joinSQL is the paper's neighbour query over a probe-table pid range;
// the planner lowers it to a ZoneSweepJoin.
func joinSQL(table string, lo, hi int64) string {
	return fmt.Sprintf("SELECT p.pid, n.objID, n.distance FROM %s p CROSS JOIN fGetNearbyObjEqZd(p.ra, p.dec, p.r) n WHERE p.pid BETWEEN %d AND %d", table, lo, hi)
}

// joinChecksum digests (pid - lo, objID, distance) join rows so they
// compare with a sweep's (probe, objID, distance) hits.
func joinChecksum(rows *sqldb.Rows, lo int64) checksum {
	var c checksum
	for _, r := range rows.All() {
		c.addHit(r[0].I-lo, r[1].I, r[2].F)
	}
	return c
}

// loadProbes creates a (pid, ra, dec, r) probe table holding batches
// back to back and returns each batch's first pid.
func loadProbes(db *sqldb.DB, table string, batches [][]zone.Probe) ([]int64, error) {
	if _, err := db.Exec(fmt.Sprintf("CREATE TABLE %s (pid bigint PRIMARY KEY, ra float, dec float, r float)", table)); err != nil {
		return nil, err
	}
	t, _ := db.Table(table)
	var rows [][]sqldb.Value
	var first []int64
	for _, b := range batches {
		first = append(first, int64(len(rows)))
		for _, p := range b {
			rows = append(rows, []sqldb.Value{sqldb.Int(int64(len(rows))), sqldb.Float(p.Ra), sqldb.Float(p.Dec), sqldb.Float(p.R)})
		}
	}
	return first, t.BulkInsert(rows)
}

// runLadder answers recorded probe batches rung by rung after the
// workload phase, so it cannot perturb the traced numbers. Every rung
// must give the same checksum; a difference counts as a wrong output.
// srv and fl are built here when the workload has none.
func runLadder(cfg config, rep *report, cat *sky.Catalog, d *dr1, srv *casjobs.Server, fl *fleet, batches [][]zone.Probe) error {
	if len(batches) > ladderBatches {
		batches = batches[:ladderBatches]
	}
	if srv == nil {
		var err error
		if srv, err = newServer(d, nil); err != nil {
			return err
		}
		defer srv.Close()
	}
	if fl == nil {
		var err error
		if fl, err = bootFleet(cat); err != nil {
			return err
		}
		defer fl.close()
	}
	const user = "ladder"
	if err := srv.CreateUser(user); err != nil {
		return err
	}
	first, err := loadProbes(d.db, "LadderProbes", batches)
	if err != nil {
		return err
	}

	tr := newTracer()
	times := make([][]float64, len(rungs))
	ok := true
	for bi, b := range batches {
		lo := first[bi]
		q := joinSQL("LadderProbes", lo, lo+int64(len(b))-1)
		// One call per rung, in the order of rungs; Explain returns no
		// rows, so its checksum is not compared.
		calls := []struct {
			span string
			call func() (checksum, error)
		}{
			{"zone.Sweep", func() (checksum, error) { return d.localSweep(b) }},
			{"sqldb.Explain", func() (checksum, error) { _, err := d.db.Explain(q); return checksum{}, err }},
			{"sqldb.Query", func() (checksum, error) {
				rows, err := d.db.Query(q)
				if err != nil {
					return checksum{}, err
				}
				return joinChecksum(rows, lo), nil
			}},
			{"casjobs.Submit", func() (checksum, error) {
				j, err := srv.Submit(user, "DR1", q, "", true)
				if err != nil {
					return checksum{}, err
				}
				if j.Status() != casjobs.StatusFinished || j.Rows() == nil {
					return checksum{}, fmt.Errorf("job %s: %s", j.Status(), j.Err())
				}
				return joinChecksum(j.Rows(), lo), nil
			}},
			{"fed.Sweep", func() (checksum, error) { return fl.sweep(b) }},
		}
		for k := 0; k < ladderRepeats; k++ {
			opID := tr.newOp()
			root := tr.begin("bench.ladder", opID, 0)
			sums := make([]checksum, len(calls))
			for i, c := range calls {
				sp := tr.begin(c.span, opID, root.id)
				start := time.Now()
				sum, err := c.call()
				times[i] = append(times[i], float64(time.Since(start))/1e6)
				sp.end()
				if err != nil {
					return fmt.Errorf("ladder rung %s: %w", rungs[i], err)
				}
				sums[i] = sum
			}
			root.end()
			if cfg.perturb == "ladder" && bi == 0 && k == 0 {
				sums[len(sums)-1].sum++
			}
			for i, sum := range sums {
				if rungs[i] != "sql_plan" && sum != sums[0] {
					ok = false
				}
			}
		}
	}
	for i, r := range rungs {
		rep.layer["ladder."+r+"_ms"] = median(times[i])
	}
	if rep.layer["zone.local_sweep_p50_ms"] == 0 {
		rep.layer["zone.local_sweep_p50_ms"] = median(times[0])
	}
	if ok {
		rep.layer["ladder.checksum_ok"] = float64(len(batches))
	} else {
		rep.mismatch()
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("ladder-%s-%d.jsonl", cfg.workload, cfg.seed))
	rep.cond["ladder_file"] = path
	return tr.write(path)
}

func countProbes(batches [][]zone.Probe) int {
	n := 0
	for _, b := range batches {
		n += len(b)
	}
	return n
}
