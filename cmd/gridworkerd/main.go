// Command gridworkerd is one stripe of the grid federation: it owns a
// declination slice of the catalog, builds that stripe's zone table at
// boot (raw slice + buffer-zone exchange with the neighbouring
// stripes), and serves the federation RPC surface the fed.Coordinator
// scatters probe batches to:
//
//	POST /sweep      streamed zone-join over a probe batch (binary frames)
//	GET  /exchange   one zone's raw rows, for a neighbouring stripe (frames)
//	GET  /stats      stripe stats + exact wire-byte counters (JSON)
//	GET  /healthz    200 once the exchange finished / 503 before
//	GET  /metrics    Prometheus text exposition (fed_worker_* families)
//
// Every worker in a fleet must be started with the same -region, -cuts
// and -peers values (and the same catalog); zone ownership and
// partition pruning are derived from them on both sides of the wire.
// Workers may boot in any order: /exchange serves before the worker is
// ready, and the boot-time exchange retries peers until -sync-timeout.
//
// Usage:
//
//	gridworkerd -index 0 -addr :9101 \
//	  -region 193.9:196.4:1.4:3.6 -cuts 1.4,2.1,2.9,3.6 \
//	  -peers http://h0:9101,http://h1:9101,http://h2:9101 \
//	  -cat sky.cat [-workers 0] [-pool-shards 0] [-sync-timeout 2m]
//
// Instead of -cat, pass -gen-seed (with -gen-region, -gen-density,
// -gen-clusters) to generate the catalog in-process — every worker
// generating with identical parameters sees the identical catalog, so
// a demo fleet needs no shared file at all.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/astro"
	"repro/internal/fed"
	"repro/internal/sky"
	"repro/internal/telemetry"
	"repro/internal/zone"
)

func main() {
	var (
		addr        = flag.String("addr", ":9101", "listen address")
		index       = flag.Int("index", -1, "this worker's stripe index (required)")
		regionStr   = flag.String("region", "", "federation region as minRa:maxRa:minDec:maxDec (required)")
		cutsStr     = flag.String("cuts", "", "comma-separated declination cuts, first=region minDec, last=region maxDec (required)")
		peersStr    = flag.String("peers", "", "comma-separated base URLs, one per stripe, in stripe order (required)")
		namesStr    = flag.String("names", "", "comma-separated stripe names, in stripe order (default stripe0,stripe1,...)")
		catPath     = flag.String("cat", "", "catalog file (alternative: -gen-seed)")
		genSeed     = flag.Int64("gen-seed", 0, "generate the catalog in-process with this seed (when -cat is empty)")
		genRegion   = flag.String("gen-region", "", "generation region minRa:maxRa:minDec:maxDec (default: -region)")
		genDensity  = flag.Float64("gen-density", 14000, "generated galaxies per square degree")
		genClusters = flag.Float64("gen-clusters", 18, "generated clusters per square degree")
		workers     = flag.Int("workers", 0, "zone-sweep worker pool (0 = one per CPU)")
		poolShards  = flag.Int("pool-shards", 0, "buffer pool shards (0 = one per CPU)")
		syncTimeout = flag.Duration("sync-timeout", 2*time.Minute, "deadline for the boot-time buffer-zone exchange")
		logFormat   = flag.String("log-format", "text", "log output format: text or json")
	)
	flag.Parse()

	var handler slog.Handler
	switch *logFormat {
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	default:
		slog.Error("gridworkerd: unknown -log-format", "format", *logFormat)
		os.Exit(1)
	}
	logger := slog.New(handler)
	slog.SetDefault(logger)

	region, err := parseRegion(*regionStr)
	if err != nil {
		fatal(logger, "bad -region", err)
	}
	topo, err := fed.ParseCuts(region, *cutsStr)
	if err != nil {
		fatal(logger, "bad -cuts", err)
	}
	peers := splitNonEmpty(*peersStr)
	if len(peers) != len(topo.Stripes) {
		fatal(logger, "bad -peers", fmt.Errorf("%d peers for %d stripes", len(peers), len(topo.Stripes)))
	}
	if *index < 0 || *index >= len(topo.Stripes) {
		fatal(logger, "bad -index", fmt.Errorf("index %d outside [0, %d)", *index, len(topo.Stripes)))
	}
	for i, p := range peers {
		topo.Stripes[i].Endpoints = []string{strings.TrimSuffix(p, "/")}
	}
	if *namesStr != "" {
		names := splitNonEmpty(*namesStr)
		if len(names) != len(topo.Stripes) {
			fatal(logger, "bad -names", fmt.Errorf("%d names for %d stripes", len(names), len(topo.Stripes)))
		}
		for i, n := range names {
			topo.Stripes[i].Name = n
		}
	}

	var cat *sky.Catalog
	switch {
	case *catPath != "":
		if cat, err = sky.LoadFile(*catPath); err != nil {
			fatal(logger, "catalog load failed", err)
		}
	case *genSeed != 0:
		genBox := region
		if *genRegion != "" {
			if genBox, err = parseRegion(*genRegion); err != nil {
				fatal(logger, "bad -gen-region", err)
			}
		}
		cat, err = sky.Generate(sky.GenConfig{
			Region:         genBox,
			Seed:           *genSeed,
			GalaxyDensity:  *genDensity,
			ClusterDensity: *genClusters,
		})
		if err != nil {
			fatal(logger, "catalog generation failed", err)
		}
	default:
		fatal(logger, "no catalog", errors.New("pass -cat or -gen-seed"))
	}

	w, err := fed.NewWorker(topo, *index, cat, fed.WorkerOptions{
		SweepWorkers: *workers,
		PoolShards:   *poolShards,
		Logger:       logger,
	})
	if err != nil {
		fatal(logger, "worker setup failed", err)
	}

	reg := telemetry.NewRegistry()
	w.EnableMetrics(reg)
	zone.RegisterMetrics(reg)
	reg.NewGaugeFunc("go_goroutines", "live goroutines",
		func() float64 { return float64(runtime.NumGoroutine()) })

	httpSrv := &http.Server{
		Addr:         *addr,
		Handler:      w.Handler(),
		ReadTimeout:  30 * time.Second,
		WriteTimeout: 5 * time.Minute, // sweep streams can be long
		IdleTimeout:  2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr, "stripe", w.Name(), "index", *index)
		errc <- httpSrv.ListenAndServe()
	}()

	// Serve first, sync second: peers pull our raw slice over /exchange
	// while we pull theirs, whatever order the fleet booted in.
	syncc := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), *syncTimeout)
		defer cancel()
		syncc <- w.Sync(ctx)
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)

	for {
		select {
		case err := <-errc:
			fatal(logger, "http server failed", err)
		case err := <-syncc:
			if err != nil {
				fatal(logger, "buffer-zone exchange failed", err)
			}
			syncc = nil // ready; keep serving
		case sig := <-sigc:
			logger.Info("draining", "signal", sig.String())
			w.SetDraining(true)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
				logger.Warn("http shutdown", "error", err)
			}
			logger.Info("stopped", "stripe", w.Name())
			return
		}
	}
}

// parseRegion parses minRa:maxRa:minDec:maxDec.
func parseRegion(s string) (astro.Box, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 4 {
		return astro.Box{}, fmt.Errorf("want minRa:maxRa:minDec:maxDec, got %q", s)
	}
	var v [4]float64
	for i, p := range parts {
		if _, err := fmt.Sscanf(strings.TrimSpace(p), "%g", &v[i]); err != nil {
			return astro.Box{}, fmt.Errorf("bad coordinate %q: %v", p, err)
		}
	}
	return astro.NewBox(v[0], v[1], v[2], v[3])
}

func splitNonEmpty(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func fatal(logger *slog.Logger, msg string, err error) {
	logger.Error(msg, "error", err)
	os.Exit(1)
}
