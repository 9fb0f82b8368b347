// Command avserve serves the consolidated failure database over HTTP: a
// long-running JSON API on top of the Stage I-IV pipeline, with a
// seed-keyed LRU study cache (singleflight-guarded), per-request
// deadlines, Prometheus-style metrics at /metrics, and graceful shutdown
// on SIGINT/SIGTERM.
//
// Usage:
//
//	avserve [-addr :8080] [-cache 4] [-snapshot-dir snapshots/]
//	        [-peers http://h1:8080,http://h2:8080] [-fetch-timeout 10s]
//	        [-request-timeout 60s] [-read-timeout 10s] [-write-timeout 90s]
//	        [-shutdown-timeout 10s] [-duration 0]
//
//	avserve -proxy -backends http://h1:8080,http://h2:8080 [-replicate 2]
//	        [-addr :8080] [-read-timeout 10s] [-write-timeout 90s]
//	        [-shutdown-timeout 10s] [-duration 0]
//
// With -duration > 0 the server shuts down cleanly after that long even
// without a signal — the self-terminating mode harnesses like `make
// proxy-smoke` use to bound an end-to-end run.
//
// In -proxy mode the process serves no studies itself: it routes
// /v1/studies/{seed}/... and /v1/snapshots/{seed} across -backends by
// consistent hashing on the seed, spreading each seed over -replicate
// backends and retrying the next replica on transport failure. Backends
// given -peers pull missing seeds' v2 snapshots from each other (CRC
// re-verified on receipt) before falling back to a pipeline build, so a
// restarted shard warm-starts from the fleet instead of rebuilding.
//
// The first request for a seed builds that study on one core (about 60 ms
// sequentially), so a cold build leaves the other cores to warm reads;
// builds of different seeds run side by side. A build is shared by
// every concurrent request for the seed and cached for later ones. With
// -snapshot-dir, a cache miss first maps the directory's
// study-<seed>.avsnap2 columnar snapshot (zero-copy; written by avpipe
// -snapshot-out or by this server), then asks -peers, and only builds on
// a miss everywhere; fresh builds are written back as v2 so the next
// process warm-starts. See the route list in internal/serve.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"avfda/internal/pipeline"
	"avfda/internal/query"
	"avfda/internal/serve"
	"avfda/internal/synth"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "avserve:", err)
		os.Exit(1)
	}
}

// run parses flags and serves until a termination signal arrives.
func run(args []string) error {
	fs := flag.NewFlagSet("avserve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	cacheSize := fs.Int("cache", 4, "max resident studies in the LRU cache")
	snapDir := fs.String("snapshot-dir", "", "study snapshot directory for warm starts (loaded before building, written after)")
	requestTimeout := fs.Duration("request-timeout", 60*time.Second, "per-request deadline, study builds included")
	readTimeout := fs.Duration("read-timeout", 10*time.Second, "HTTP server read timeout")
	writeTimeout := fs.Duration("write-timeout", 90*time.Second, "HTTP server write timeout (must exceed a cold study build)")
	shutdownTimeout := fs.Duration("shutdown-timeout", 10*time.Second, "drain deadline on SIGINT/SIGTERM")
	duration := fs.Duration("duration", 0, "serve for this long, then shut down cleanly (0 = until signaled); for harnesses like make proxy-smoke")
	proxy := fs.Bool("proxy", false, "run as a seed-sharding proxy over -backends instead of serving studies")
	backends := fs.String("backends", "", "comma-separated backend base URLs for -proxy mode")
	replicate := fs.Int("replicate", 2, "backends each seed may be served from in -proxy mode (spill + retry)")
	peers := fs.String("peers", "", "comma-separated peer base URLs to pull missing v2 snapshots from (requires -snapshot-dir)")
	fetchTimeout := fs.Duration("fetch-timeout", 10*time.Second, "per-peer snapshot fetch timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var handler http.Handler
	if *proxy {
		p, err := serve.NewProxy(serve.ProxyConfig{
			Backends: splitList(*backends),
			Replicas: *replicate,
			Debugf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "avserve: "+format+"\n", args...)
			},
		})
		if err != nil {
			return err
		}
		handler = p
	} else {
		server, err := serve.New(serve.Config{
			Build:                buildStudy,
			CacheSize:            *cacheSize,
			RequestTimeout:       *requestTimeout,
			SnapshotDir:          *snapDir,
			SnapshotPeers:        splitList(*peers),
			SnapshotFetchTimeout: *fetchTimeout,
		})
		if err != nil {
			return err
		}
		handler = server
	}

	httpServer := &http.Server{
		Addr:         *addr,
		Handler:      handler,
		ReadTimeout:  *readTimeout,
		WriteTimeout: *writeTimeout,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *duration > 0 {
		// Self-terminating harness mode: the deadline layers over the signal
		// context, so either a signal or the timer triggers the same graceful
		// drain below and run returns nil.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *duration)
		defer cancel()
	}

	errc := make(chan error, 1)
	go func() {
		if *proxy {
			fmt.Fprintf(os.Stderr, "avserve: proxying on %s (backends=%s replicate=%d)\n",
				*addr, *backends, *replicate)
		} else {
			fmt.Fprintf(os.Stderr, "avserve: listening on %s (cache=%d)\n", *addr, *cacheSize)
		}
		errc <- httpServer.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "avserve: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	if err := httpServer.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// splitList parses a comma-separated flag value, dropping empty entries so
// "", "a,b", and "a, b," all do the obvious thing.
func splitList(csv string) []string {
	var out []string
	for _, s := range strings.Split(csv, ",") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}

// buildStudy runs the full calibrated pipeline for a seed and wraps the
// result in a query engine. Each build runs on one core: builds of
// different seeds still run side by side, and a build that fanned out
// across every core would take them from the warm reads it competes with.
func buildStudy(seed int64) (*serve.Study, error) {
	cfg := pipeline.DefaultConfig()
	cfg.Synth = synth.Config{Seed: seed}
	cfg.OCR.Seed = seed
	cfg.Workers = 1
	// Builds are singleflight-shared across requests and outlive any one
	// caller, so they deliberately run under the process root context,
	// not a request's (see serve.BuildFunc).
	res, err := pipeline.Run(context.Background(), cfg)
	if err != nil {
		return nil, err
	}
	engine, err := query.New(res.DB)
	if err != nil {
		return nil, err
	}
	return &serve.Study{DB: res.DB, Engine: engine}, nil
}
