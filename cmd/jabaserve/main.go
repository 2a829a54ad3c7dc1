// Command jabaserve runs the memory-resident JABA-SD admission/sweep
// service: an HTTP/JSON API over the same engine the CLIs drive, with a
// bounded job queue for runs/sweeps/experiments, streamed sweep progress
// (CSV/NDJSON/SSE) and an admission-oracle endpoint backed by resident warm
// per-frame ILP solvers.
//
// Usage:
//
//	jabaserve -addr :8080
//	curl localhost:8080/v1/healthz
//	curl -X POST localhost:8080/v1/jobs -d '{"kind":"sweep","sweep":{"preset":"smoke","axes":["datausers=2,4"],"reps":2}}'
//	curl localhost:8080/v1/jobs/job-1/stream
//
// With -journal DIR every accepted job spec is persisted until the job
// settles, and a restarted server re-submits whatever specs are still
// there — queued and in-flight work survives a crash or redeploy.
//
// SIGINT/SIGTERM drain gracefully: the listener stops accepting, in-flight
// jobs are cancelled at their next frame, and the process exits once the
// workers settle. Jobs cancelled by the drain keep their journal entries.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"jabasd/internal/serve"
)

// Connection timeouts. Request headers must arrive promptly, so a client
// that trickles them cannot hold a connection open; idle keep-alive
// connections are reaped after a minute. No read or write timeout is set:
// job streams legitimately stay open for the life of a job.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 60 * time.Second
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "jabaserve:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("jabaserve", flag.ContinueOnError)
	var (
		addr          = fs.String("addr", ":8080", "listen address")
		queueDepth    = fs.Int("queue-depth", 16, "queued jobs beyond the running ones before submissions get 429")
		workers       = fs.Int("workers", 2, "jobs run concurrently; each job's fan-out defaults to GOMAXPROCS/workers")
		oracleWorkers = fs.Int("oracle-workers", 2, "resident warm JABA-SD solver instances (bounds concurrent oracle solves)")
		journalDir    = fs.String("journal", "", "directory persisting accepted job specs until they settle; on start, unsettled jobs found there are re-submitted")
		enableChaos   = fs.Bool("chaos", false, "accept job specs carrying a chaos clause (injected worker panics/hangs) for resilience drills; never enable on a production queue")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *journalDir != "" {
		if err := os.MkdirAll(*journalDir, 0o755); err != nil {
			return err
		}
	}

	srv := serve.New(serve.Options{
		QueueDepth:    *queueDepth,
		Workers:       *workers,
		OracleWorkers: *oracleWorkers,
		JournalDir:    *journalDir,
		EnableChaos:   *enableChaos,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	fmt.Fprintf(os.Stderr, "jabaserve: listening on %s\n", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		srv.Close()
		return err
	case <-ctx.Done():
	}

	// Graceful drain: cancel every job first so long-lived stream responses
	// observe a terminal state and finish, then stop accepting and wait for
	// the in-flight responses to flush.
	fmt.Fprintln(os.Stderr, "jabaserve: shutting down")
	srv.Close()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}
