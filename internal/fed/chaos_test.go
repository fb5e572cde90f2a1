package fed_test

// Chaos suite: every test arms a faultinject site shared across the
// in-process workers, runs a federated sweep, and requires the result
// to stay bit-identical to the centralised oracle — retries must never
// drop or double-count hits. The faultinject registry is process-wide,
// so these tests never run in parallel.

import (
	"context"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/astro"
	"repro/internal/faultinject"
	"repro/internal/fed"
	"repro/internal/zone"
)

// TestChaosRetryTransient arms the worker sweep entry point to fail the
// first two requests with a transient 500. The coordinator must retry
// and still produce the exact centralised sequence.
func TestChaosRetryTransient(t *testing.T) {
	region := astro.MustBox(194, 196, 1.0, 3.0)
	cat := genCatalog(t, region, 31, 2000, 2)
	c, _ := startFederation(t, cat, fedTestTopo(region), fed.Options{})
	probes := testProbes(region, 33, 32)
	want := localSweep(t, cat, region, probes)

	t.Cleanup(faultinject.Reset)
	faultinject.Enable(fed.SiteWorkerSweep, faultinject.Failpoint{MaxHits: 2})

	got := federatedSweep(t, c, probes)
	requireSameHits(t, got, want)
	if st := c.CoordStats(); st.Retries < 2 {
		t.Errorf("coordinator reported %d retries, want >= 2", st.Retries)
	}
}

// TestChaosMidStreamDeath kills a worker connection after it has
// already streamed hits: the truncated frame stream (no trailer) must
// read as transient, and the retry must not double-count the hits the
// dead attempt already delivered.
func TestChaosMidStreamDeath(t *testing.T) {
	region := astro.MustBox(194, 196, 1.0, 3.0)
	cat := genCatalog(t, region, 37, 2000, 2)
	c, _ := startFederation(t, cat, fedTestTopo(region), fed.Options{})
	probes := testProbes(region, 39, 32)
	want := localSweep(t, cat, region, probes)
	if len(want) == 0 {
		t.Fatal("oracle produced no hits; mid-stream death cannot trigger")
	}

	t.Cleanup(faultinject.Reset)
	faultinject.Enable(fed.SiteWorkerStream, faultinject.Failpoint{MaxHits: 1})

	got := federatedSweep(t, c, probes)
	requireSameHits(t, got, want)
	if st := c.CoordStats(); st.Retries < 1 {
		t.Errorf("coordinator reported %d retries after a mid-stream death", st.Retries)
	}
}

// TestChaosFailover gives one stripe a dead primary and a live replica:
// the coordinator must rotate to the replica and count a failover.
func TestChaosFailover(t *testing.T) {
	region := astro.MustBox(194, 196, 1.0, 3.0)
	cat := genCatalog(t, region, 41, 2000, 2)
	topo := fedTestTopo(region)
	_, workers := startFederation(t, cat, topo, fed.Options{})

	dead := httptest.NewServer(nil)
	dead.Close() // connection refused from now on

	topo2 := topo.Clone()
	topo2.Stripes[0].Endpoints = []string{dead.URL, topo.Stripes[0].Endpoints[0]}
	c2, err := fed.NewCoordinator(topo2, fed.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_ = workers

	probes := testProbes(region, 43, 32)
	want := localSweep(t, cat, region, probes)
	got := federatedSweep(t, c2, probes)
	requireSameHits(t, got, want)
	st := c2.CoordStats()
	if st.Failovers < 1 {
		t.Errorf("coordinator reported %d failovers, want >= 1", st.Failovers)
	}
}

// TestChaosAllEndpointsDown leaves one stripe with only a dead
// endpoint: the sweep must fail cleanly (no hang, no partial output
// passed off as complete) with the stripe named in the error.
func TestChaosAllEndpointsDown(t *testing.T) {
	region := astro.MustBox(194, 196, 1.0, 3.0)
	cat := genCatalog(t, region, 47, 1500, 1)
	topo := fedTestTopo(region)
	startFederation(t, cat, topo, fed.Options{})

	dead := httptest.NewServer(nil)
	dead.Close()
	topo2 := topo.Clone()
	topo2.Stripes[1].Endpoints = []string{dead.URL}
	c2, err := fed.NewCoordinator(topo2, fed.Options{Retries: 1})
	if err != nil {
		t.Fatal(err)
	}

	probes := testProbes(region, 49, 16)
	err = c2.Sweep(context.Background(), probes, func(int, zone.ZoneRow) {})
	if err == nil {
		t.Fatal("sweep against a dead stripe succeeded")
	}
	if !strings.Contains(err.Error(), topo.Stripes[1].Name) {
		t.Errorf("error does not name the dead stripe: %v", err)
	}
}

// TestChaosHedging slows one attempt down past the hedge threshold; the
// hedged request to the replica must win with the exact result.
func TestChaosHedging(t *testing.T) {
	region := astro.MustBox(194, 196, 1.0, 3.0)
	cat := genCatalog(t, region, 51, 1500, 1)
	topo := fedTestTopo(region)
	_, workers := startFederation(t, cat, topo, fed.Options{})

	// A second live server over the same worker acts as stripe 0's
	// replica.
	replica := httptest.NewServer(workers[0].Handler())
	t.Cleanup(replica.Close)
	topo2 := topo.Clone()
	topo2.Stripes[0].Endpoints = append(topo2.Stripes[0].Endpoints, replica.URL)
	c2, err := fed.NewCoordinator(topo2, fed.Options{HedgeAfter: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	// Keep every probe inside stripe 0's interior so only stripe 0
	// serves requests — the faultinject site is process-wide, and a
	// request from another stripe would spend the one-hit budget.
	all := testProbes(region, 53, 64)
	var probes []zone.Probe
	for _, p := range all {
		if p.R >= 0 && p.R < 0.1 && p.Dec > 1.2 && p.Dec < 1.5 {
			probes = append(probes, p)
		}
	}
	if len(probes) == 0 {
		t.Fatal("no probes landed in stripe 0's interior")
	}
	want := localSweep(t, cat, region, probes)

	t.Cleanup(faultinject.Reset)
	// Only the first request sleeps; the hedge lands on the replica
	// after the failpoint's budget is spent and runs fast.
	faultinject.Enable(fed.SiteWorkerSlow, faultinject.Failpoint{
		ErrNone: true, Latency: 400 * time.Millisecond, MaxHits: 1,
	})

	got := federatedSweep(t, c2, probes)
	requireSameHits(t, got, want)
	if st := c2.CoordStats(); st.Hedges < 1 {
		t.Errorf("coordinator reported %d hedges, want >= 1", st.Hedges)
	}
}

// TestChaosConcurrentSweeps runs concurrent sweeps while every worker
// request fails with fixed-seed probability 0.3. With a deep retry
// budget every sweep must still converge to the exact oracle — under
// -race this also shakes out coordinator state sharing.
func TestChaosConcurrentSweeps(t *testing.T) {
	region := astro.MustBox(194, 196, 1.0, 3.0)
	cat := genCatalog(t, region, 57, 1500, 1)
	c, _ := startFederation(t, cat, fedTestTopo(region), fed.Options{Retries: 12})

	t.Cleanup(faultinject.Reset)
	faultinject.Enable(fed.SiteWorkerSweep, faultinject.Failpoint{Prob: 0.3, Seed: 61})

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			probes := testProbes(region, seed, 16)
			want := localSweep(t, cat, region, probes)
			got := federatedSweep(t, c, probes)
			requireSameHits(t, got, want)
		}(int64(200 + i))
	}
	wg.Wait()
	if st := c.CoordStats(); st.Retries == 0 {
		t.Errorf("probabilistic faults armed but no retries recorded: %+v", st)
	}
}
