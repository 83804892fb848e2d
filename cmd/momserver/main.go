// Command momserver serves the paper's experiments as a concurrent job
// service with a persistent content-addressed result store. Submit a job,
// poll it, fetch its canonical JSON document; identical requests are
// served from the store byte-for-byte.
//
//	momserver -addr :8344 -store ./momstore &
//	curl -s -X POST localhost:8344/v1/jobs -d '{"exp":"fig5","scale":"test"}'
//	curl -s -X POST localhost:8344/v1/jobs \
//	    -d '{"exp":"fig7","sample_period":1501,"sample_warmup":100,"sample_interval":150}'
//	curl -s localhost:8344/v1/jobs/j00000001          # poll state
//	curl -s localhost:8344/v1/jobs/j00000001/result   # the fig7 document
//	curl -s localhost:8344/metrics                    # Prometheus text
//	curl -s localhost:8344/debug/flights              # recent job timelines
//
// Sampled and exact requests normalise to different content-address keys,
// so their stored documents never collide; /metrics splits admitted jobs
// by experiment and mode (momserved_jobs_submitted_total).
//
// Observability: every submission gets a request ID and a trace context
// (propagated across peer hops via the Mom-Trace header), the flight
// recorder keeps recent per-stage job timelines behind /debug/flights
// (add ?format=chrome for a chrome://tracing document), logging is
// structured (-log-format text|json, -log-level, request IDs on every
// job line, slow-job warnings past -slow-job), and -debug mounts
// net/http/pprof under /debug/pprof.
//
// SIGINT/SIGTERM drain the service: new submissions get 503, accepted
// jobs finish (bounded by -drain), then the process exits.
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

	mom "repro"
	"repro/internal/serve"
	"repro/internal/store"
)

func main() {
	var (
		addr       = flag.String("addr", ":8344", "listen address")
		storeDir   = flag.String("store", "momstore", "result store directory (empty: no store, recompute always)")
		storeBytes = flag.Int64("store-bytes", 256<<20, "result store size bound in bytes (<=0: unbounded)")
		traceDir   = flag.String("trace-store", "", "trace artifact store directory (empty: no persistence, recapture on restart)")
		traceBytes = flag.Int64("trace-store-bytes", 1<<31, "trace artifact store size bound in bytes (<=0: unbounded)")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent job workers")
		queueCap   = flag.Int("queue", 64, "admission queue capacity (full queue answers 429)")
		timeout    = flag.Duration("timeout", 10*time.Minute, "default per-job deadline")
		maxTimeout = flag.Duration("max-timeout", time.Hour, "upper clamp on requested per-job deadlines")
		drain      = flag.Duration("drain", 2*time.Minute, "how long shutdown waits for in-flight jobs")
		peers      = flag.String("peers", "", "comma-separated base URLs of every cluster node, this one included (empty: single node)")
		self       = flag.String("self", "", "this node's base URL as it appears in -peers (required with -peers)")
		logLevel   = flag.String("log-level", "info", "log verbosity: debug|info|warn|error")
		logFormat  = flag.String("log-format", "text", "log encoding: text|json")
		slowJob    = flag.Duration("slow-job", 30*time.Second, "flights slower than this log a warning (0 disables)")
		flights    = flag.Int("flights", 256, "completed flights retained for /debug/flights")
		debug      = flag.Bool("debug", false, "mount net/http/pprof under /debug/pprof")
	)
	flag.Parse()

	logger, err := buildLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "momserver:", err)
		os.Exit(1)
	}
	fatal := func(err error) {
		logger.Error("fatal", "error", err.Error())
		os.Exit(1)
	}

	cfg := serve.Config{
		Workers:        *workers,
		QueueCap:       *queueCap,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		Logger:         logger,
		SlowJob:        *slowJob,
		FlightLog:      *flights,
		EnablePprof:    *debug,
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir, *storeBytes)
		if err != nil {
			fatal(err)
		}
		s := st.Stats()
		logger.Info("store opened", "dir", *storeDir, "entries", s.Entries,
			"bytes", s.Bytes, "bound_bytes", *storeBytes)
		cfg.Store = st
	}
	if *traceDir != "" {
		// The artifact store is installed process-wide: the trace cache
		// consults it before re-capturing, so a restart against a warm
		// directory replays previously-traced workloads from disk.
		st, err := mom.OpenTraceArtifacts(*traceDir, *traceBytes)
		if err != nil {
			fatal(err)
		}
		s := st.Stats()
		logger.Info("trace store opened", "dir", *traceDir, "entries", s.Entries,
			"bytes", s.Bytes, "bound_bytes", *traceBytes)
		cfg.TraceStore = st
	}
	if *peers != "" {
		ps, err := serve.NewPeerSet(*self, strings.Split(*peers, ","))
		if err != nil {
			fatal(err)
		}
		logger.Info("cluster configured", "peers", ps.Size(), "self", ps.Self())
		cfg.Peers = ps
	}
	srv := serve.New(cfg)
	hs := &http.Server{Addr: *addr, Handler: srv}

	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr, "workers", *workers,
			"queue", *queueCap, "pprof", *debug)
		errc <- hs.ListenAndServe()
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	case got := <-sig:
		logger.Info("draining", "signal", got.String(), "limit", drain.String())
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		// Stop accepting HTTP first, then wait for the worker pool to
		// finish every accepted job.
		if err := hs.Shutdown(ctx); err != nil {
			logger.Error("http shutdown", "error", err.Error())
		}
		if err := srv.Shutdown(ctx); err != nil {
			logger.Error("drain incomplete", "error", err.Error())
			os.Exit(1)
		}
		if cfg.Store != nil {
			s := cfg.Store.Stats()
			logger.Info("store at exit", "entries", s.Entries, "bytes", s.Bytes,
				"hits", s.Hits, "misses", s.Misses, "evictions", s.Evictions)
		}
		if cfg.TraceStore != nil {
			s := cfg.TraceStore.Stats()
			ts := mom.ReadTraceStats()
			logger.Info("trace store at exit", "entries", s.Entries, "bytes", s.Bytes,
				"disk_hits", ts.DiskHits, "disk_writes", ts.DiskWrites,
				"peer_fetches", ts.PeerFetches)
		}
		logger.Info("drained cleanly")
	}
}

// buildLogger assembles the slog handler the service logs through.
func buildLogger(w *os.File, level, format string) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (valid: debug, info, warn, error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	}
	return nil, fmt.Errorf("unknown -log-format %q (valid: text, json)", format)
}
