// Command nosq-server runs the simulation service: an HTTP server that
// accepts experiment jobs (the registered experiments of nosq-experiments),
// executes them on a bounded worker pool, and serves repeated or overlapping
// grids from a content-addressed result cache instead of re-simulating.
//
// It is also the coordinator of the distributed execution fleet: once one or
// more nosq-worker processes register, jobs are split into leased shard
// tasks and fanned out to them instead of simulating in-process (see
// DESIGN.md "Distributed execution").
//
// Examples:
//
//	nosq-server -addr :8080 -cache results.jsonl
//	nosq-server -addr 127.0.0.1:0 -workers 2 -parallel 4
//	nosq-server -addr :8080 -lease-ttl 30s   # then: nosq-worker -server http://host:8080
//
// Submit and follow jobs with curl (see README "Running the server") or the
// typed client in internal/simclient:
//
//	curl -s localhost:8080/api/v1/jobs -d '{"experiment":"fig2","iterations":100}'
//	curl -s localhost:8080/api/v1/jobs/job-000001/events
//	curl -s 'localhost:8080/api/v1/jobs/job-000001/report?format=text'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/simserver"
)

// validateFlags rejects flag values that would make the server hang (a
// zero-worker pool never pops a job), spin (a zero poll interval has remote
// workers hammering the lease endpoint), or silently disable a quota the
// operator asked for (negative caps and rates).
func validateFlags(workers, parallel int, leaseTTL, pollInterval time.Duration,
	maxQueued, quotaActive int, quotaRate float64, quotaBurst int) error {
	if workers <= 0 {
		return fmt.Errorf("-workers must be positive, got %d (a server without workers would queue jobs forever)", workers)
	}
	if parallel <= 0 {
		return fmt.Errorf("-parallel must be positive, got %d", parallel)
	}
	if leaseTTL <= 0 {
		return fmt.Errorf("-lease-ttl must be positive, got %v", leaseTTL)
	}
	if pollInterval <= 0 {
		return fmt.Errorf("-poll-interval must be positive, got %v (a zero interval would have workers spin on the lease endpoint)", pollInterval)
	}
	if maxQueued < 0 {
		return fmt.Errorf("-max-queued must be non-negative, got %d (0 disables the bound)", maxQueued)
	}
	if quotaActive < 0 {
		return fmt.Errorf("-quota-active must be non-negative, got %d (0 disables the cap)", quotaActive)
	}
	if quotaRate < 0 {
		return fmt.Errorf("-quota-rate must be non-negative, got %g (0 disables the rate limit)", quotaRate)
	}
	if quotaRate > 0 && quotaBurst <= 0 {
		return fmt.Errorf("-quota-burst must be positive when -quota-rate is set, got %d", quotaBurst)
	}
	return nil
}

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		workers     = flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent jobs")
		parallel    = flag.Int("parallel", runtime.GOMAXPROCS(0), "concurrent simulations per job")
		cache       = flag.String("cache", "", "persist the result cache to this JSONL file, in the nosq-experiments -checkpoint format (default: memory only)")
		maxIters    = flag.Int("max-iters", 0, "reject jobs asking for more workload iterations (0 = no cap)")
		maxJobs     = flag.Int("max-finished", 0, "retain at most N finished jobs' metadata; oldest evicted (0 = 1000)")
		leaseTTL    = flag.Duration("lease-ttl", 15*time.Second, "remote shard-task lease TTL; an expired lease re-queues the task")
		pollIvl     = flag.Duration("poll-interval", 500*time.Millisecond, "idle polling interval suggested to remote workers")
		stateDir    = flag.String("state-dir", "", "persist jobs durably in this directory (WAL + result cache); a restarted server replays the log and resumes interrupted jobs")
		maxQueued   = flag.Int("max-queued", 0, "refuse submissions with 429 once N jobs are queued (0 = unbounded)")
		quotaActive = flag.Int("quota-active", 0, "per-client cap on active (queued+running) jobs (0 = unlimited)")
		quotaRate   = flag.Float64("quota-rate", 0, "per-client submission rate limit in jobs/second (0 = unlimited)")
		quotaBurst  = flag.Int("quota-burst", 10, "per-client submission burst capacity used with -quota-rate")
		quiet       = flag.Bool("quiet", false, "suppress per-job log lines")
		pprofAddr   = flag.String("pprof-addr", "", "serve net/http/pprof on this separate address (e.g. localhost:6060; default: disabled)")
		version     = flag.Bool("version", false, "print version information and exit")
	)
	flag.Parse()

	if *version {
		obs.PrintVersion(os.Stdout, "nosq-server")
		return
	}

	logger := log.New(os.Stderr, "nosq-server: ", log.LstdFlags)
	if *pprofAddr != "" {
		pln, err := obs.StartPprof(*pprofAddr)
		if err != nil {
			logger.Fatal(err)
		}
		// Resolved address on stdout, like the API listener below, so scripts
		// can parse the port picked for :0.
		fmt.Printf("nosq-server pprof on http://%s/debug/pprof/\n", pln.Addr())
	}
	if err := validateFlags(*workers, *parallel, *leaseTTL, *pollIvl,
		*maxQueued, *quotaActive, *quotaRate, *quotaBurst); err != nil {
		logger.Print(err)
		os.Exit(2)
	}
	cfg := simserver.Config{
		Workers:         *workers,
		Parallelism:     *parallel,
		CachePath:       *cache,
		MaxIterations:   *maxIters,
		MaxFinishedJobs: *maxJobs,
		LeaseTTL:        *leaseTTL,
		PollInterval:    *pollIvl,
		StateDir:        *stateDir,
		MaxQueuedJobs:   *maxQueued,
		QuotaMaxActive:  *quotaActive,
		QuotaRate:       *quotaRate,
		QuotaBurst:      *quotaBurst,
	}
	if !*quiet {
		cfg.Logf = logger.Printf
	}
	srv, corrupt, err := simserver.New(cfg)
	if err != nil {
		logger.Fatal(err)
	}
	if corrupt > 0 {
		logger.Printf("warning: skipped %d corrupt persisted line(s) (result cache or WAL)", corrupt)
	}
	if *cache != "" || *stateDir != "" {
		logger.Printf("result cache: %d entries resident", srv.Cache().Len())
	}
	if *stateDir != "" {
		restored, requeued := srv.RecoveryStats()
		logger.Printf("state dir %s: %d finished job(s) restored, %d interrupted job(s) re-queued",
			*stateDir, restored, requeued)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatal(err)
	}
	// The resolved address goes to stdout so scripts (and the CI integration
	// test) can parse the port picked for :0.
	fmt.Printf("nosq-server listening on http://%s\n", ln.Addr())

	srv.Start()
	hs := &http.Server{Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		logger.Print("shutting down (signal)")
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			logger.Fatal(err)
		}
	}

	// Cancel jobs first, then drain HTTP: open /events streams only end when
	// their job reaches a terminal state, so draining connections before
	// cancelling jobs would deadlock until the timeout. During the job drain
	// the listener still answers; new submissions fail with 503.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		logger.Printf("shutdown: %v", err)
		hs.Close()
		os.Exit(1)
	}
	hs.Shutdown(shutdownCtx)
}
