package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/astro"
	"repro/internal/casjobs"
	"repro/internal/fed"
	"repro/internal/maxbcg"
	"repro/internal/sky"
	"repro/internal/sqldb"
	"repro/internal/zone"
)

// scale is the survey geometry of a run.
type scale struct {
	survey astro.Box // region sky.Generate fills
	target astro.Box // Table 1 target T
}

// paperScale is the Table 1 geometry: a 2.5 x 2.6 deg survey (91,000
// galaxies at seed 20040801) around the 0.5 x 1.2 deg target.
func paperScale() scale {
	return scale{
		survey: astro.MustBox(193.9, 196.4, 1.2, 3.8),
		target: astro.MustBox(194.9, 195.4, 1.9, 3.1),
	}
}

// genCatalog generates the run's k-th survey. Survey 0 is the one the
// seed names; further ones take seeds derived from it.
func genCatalog(cfg config, k int) (*sky.Catalog, error) {
	seed := cfg.seed
	if k > 0 {
		seed = int64(mix64(uint64(cfg.seed)^uint64(k)) >> 1)
	}
	return sky.Generate(sky.GenConfig{Region: cfg.scale.survey, Seed: seed})
}

// importBox is the Table 1 import region P: the target grown by twice
// the buffer, clipped to the survey (cluster.Plan's rule for one node).
func importBox(cat *sky.Catalog, target astro.Box) astro.Box {
	imp := target.Expand(2 * maxbcg.DefaultParams().BufferDeg)
	if clipped, ok := imp.Intersect(cat.Region); ok {
		imp = clipped
	}
	return imp
}

// dr1 is the shared catalog context, built the way cmd/casjobsd builds
// it: ImportGalaxies over the survey, then SpZone.
type dr1 struct {
	db    *sqldb.DB
	zoneT *sqldb.Table
	// The two timed build steps (import, spzone).
	build [2]stepStat
}

func buildDR1(cat *sky.Catalog) (*dr1, error) {
	db := sqldb.OpenPool(sqldb.PoolConfig{})
	f, err := maxbcg.NewDBFinder(db, maxbcg.DefaultParams(), cat.Kcorr, 0)
	if err != nil {
		return nil, err
	}
	d := &dr1{db: db}
	timed := func(i int, fn func() error) error {
		before := db.Stats()
		start := time.Now()
		err := fn()
		d.build[i] = stepStat{dur: time.Since(start), io: db.Stats().Sub(before)}
		return err
	}
	if err := timed(0, func() error { _, err := f.ImportGalaxies(cat, cat.Region); return err }); err != nil {
		return nil, err
	}
	if err := timed(1, f.SpZone); err != nil {
		return nil, err
	}
	zt, ok := db.Table("Zone")
	if !ok {
		return nil, errors.New("DR1 has no Zone table after SpZone")
	}
	d.zoneT = zt
	return d, nil
}

// localSweep answers a probe batch in-process over the DR1 zone table.
func (d *dr1) localSweep(probes []zone.Probe) (checksum, error) {
	var c checksum
	err := zone.Sweep(context.Background(), zone.TableSource(d.zoneT, astro.ZoneHeightDeg), probes,
		zone.SweepOptions{}, func(pi int, zr zone.ZoneRow) { c.addHit(int64(pi), zr.ObjID, zr.Distance) })
	return c, err
}

// newServer starts a CasJobs service over DR1 with the default Config.
func newServer(d *dr1, users []string) (*casjobs.Server, error) {
	srv := casjobs.NewServerConfig(map[string]*sqldb.DB{"DR1": d.db}, casjobs.Config{})
	for _, u := range users {
		if err := srv.CreateUser(u); err != nil {
			srv.Close()
			return nil, err
		}
	}
	return srv, nil
}

// recorder is a maxbcg.RemoteSweeper that records every probe batch the
// finder issues and answers it with a local sweep.
type recorder struct {
	d       *dr1
	batches [][]zone.Probe
	hits    int64
}

func (r *recorder) Sweep(ctx context.Context, probes []zone.Probe, fn func(int, zone.ZoneRow)) error {
	r.batches = append(r.batches, append([]zone.Probe(nil), probes...))
	return zone.Sweep(ctx, zone.TableSource(r.d.zoneT, astro.ZoneHeightDeg), probes,
		zone.SweepOptions{Workers: 1}, func(pi int, zr zone.ZoneRow) {
			r.hits++
			fn(pi, zr)
		})
}

// replayHits is the hit count one replayed window carries. The finder
// issues up to 512 probes per sweep and answers them with ~1,300 hits
// each; a whole batch takes 1-3 s through the federation on two cores,
// too few operations per run for a tail percentile, and a fixed probe
// count per window makes the work per operation depend on where the
// seed put the clusters. Replays therefore take windows of consecutive
// probes of one recorded batch that carry about this many hits.
const replayHits = 20000

// windows cuts recorded batches into replay windows of about replayHits
// hits on d. A batch's remainder below half a window joins the batch's
// last window.
func windows(d *dr1, batches [][]zone.Probe) ([][]zone.Probe, error) {
	var out [][]zone.Probe
	for _, b := range batches {
		hits := make([]int, len(b))
		err := zone.Sweep(context.Background(), zone.TableSource(d.zoneT, astro.ZoneHeightDeg), b,
			zone.SweepOptions{Workers: 1}, func(pi int, _ zone.ZoneRow) { hits[pi]++ })
		if err != nil {
			return nil, err
		}
		first := len(out)
		start, acc := 0, 0
		for i, n := range hits {
			if acc += n; acc >= replayHits {
				out = append(out, b[start:i+1])
				start, acc = i+1, 0
			}
		}
		switch {
		case start == len(b):
		case 2*acc < replayHits && len(out) > first:
			last := out[len(out)-1]
			out[len(out)-1] = last[:len(last)+len(b)-start]
		default:
			out = append(out, b[start:])
		}
	}
	return out, nil
}

// recordBatches runs the Table 1 pipeline once through the DBFinder
// Remote seam and returns the probe batches it issued, with its result.
func recordBatches(cat *sky.Catalog, d *dr1, target astro.Box) (*recorder, *maxbcg.Result, error) {
	f, err := maxbcg.NewDBFinder(sqldb.OpenPool(sqldb.PoolConfig{}), maxbcg.DefaultParams(), cat.Kcorr, 0)
	if err != nil {
		return nil, nil, err
	}
	rec := &recorder{d: d}
	f.Remote = rec
	if _, err := f.ImportGalaxies(cat, importBox(cat, target)); err != nil {
		return nil, nil, err
	}
	res, _, err := f.Run(target, true)
	return rec, res, err
}

// fleet is a two-stripe federation: in-process fed.Workers behind
// loopback HTTP servers, one sweep worker each.
type fleet struct {
	workers []*fed.Worker
	servers []*http.Server
	serving sync.WaitGroup
	client  *http.Client
	coord   *fed.Coordinator
}

// fleetTopology cuts the survey into two declination stripes at a cut
// that is not on a zone boundary, so the boot exchange does real work.
func fleetTopology(region astro.Box) fed.Topology {
	h := astro.ZoneHeightDeg
	cut := region.MinDec + 0.47*(region.MaxDec-region.MinDec)
	if f := (cut+90)/h - math.Floor((cut+90)/h); f < 0.25 || f > 0.75 {
		cut += 0.5 * h
	}
	return fed.Topology{Region: region, Stripes: []fed.Stripe{
		{Name: "south", MinDec: region.MinDec, MaxDec: cut},
		{Name: "north", MinDec: cut, MaxDec: region.MaxDec},
	}}
}

var quietLog = slog.New(slog.NewTextHandler(io.Discard, nil))

// bootFleet starts the workers, runs the buffer-zone exchange and
// returns a ready coordinator.
func bootFleet(cat *sky.Catalog) (*fleet, error) {
	topo := fleetTopology(cat.Region)
	fl := &fleet{client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}}
	n := len(topo.Stripes)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		w, err := fed.NewWorker(topo, i, cat, fed.WorkerOptions{SweepWorkers: 1, Logger: quietLog})
		if err != nil {
			fl.close()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fl.close()
			return nil, err
		}
		hs := &http.Server{Handler: w.Handler(), ReadHeaderTimeout: 10 * time.Second}
		fl.workers = append(fl.workers, w)
		fl.servers = append(fl.servers, hs)
		fl.serving.Add(1)
		go func() {
			defer fl.serving.Done()
			_ = hs.Serve(ln) // returns http.ErrServerClosed on close
		}()
		urls[i] = "http://" + ln.Addr().String()
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			fl.workers[i].SetEndpoints(j, urls[j])
		}
		topo.Stripes[i].Endpoints = []string{urls[i]}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fl.workers[i].Sync(ctx)
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		fl.close()
		return nil, fmt.Errorf("fleet sync: %w", err)
	}
	c, err := fed.NewCoordinator(topo, fed.Options{Client: fl.client})
	if err != nil {
		fl.close()
		return nil, err
	}
	fl.coord = c
	return fl, nil
}

// sweep replays one batch through the coordinator.
func (fl *fleet) sweep(probes []zone.Probe) (checksum, error) {
	var c checksum
	err := fl.coord.Sweep(context.Background(), probes, func(pi int, zr zone.ZoneRow) {
		c.addHit(int64(pi), zr.ObjID, zr.Distance)
	})
	return c, err
}

// exchangeBytes sums the boot exchange traffic the stripes received.
func (fl *fleet) exchangeBytes() int64 {
	var n int64
	for _, w := range fl.workers {
		n += w.Stats().ExchangeBytesIn
	}
	return n
}

// close stops the servers and waits for their goroutines.
func (fl *fleet) close() {
	for _, hs := range fl.servers {
		_ = hs.Close()
	}
	fl.serving.Wait()
	fl.client.CloseIdleConnections()
}
