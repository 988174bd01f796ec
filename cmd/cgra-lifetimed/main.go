// cgra-lifetimed serves the lifetime simulator over HTTP/JSON: single
// scenario queries, scenario batches, and fleet-scale queries that draw
// thousands of devices from seeded distributions and aggregate them into
// percentile lifetime curves. All expensive state — the scenario worker
// pool, the result and epoch memo stores, the GPP-reference memo — is
// shared across requests, so a fleet of 1000 devices over a few dozen
// distinct configurations costs a few dozen simulations.
//
// Endpoints (see docs/SERVICE.md for the full API reference):
//
//	GET  /healthz             liveness probe
//	POST /v1/lifetime         run one scenario
//	POST /v1/lifetime/stream  run one scenario, streaming its observability
//	                          events as NDJSON with a terminal result line
//	POST /v1/batch            run a scenario list, results in request order
//	POST /v1/fleet            seeded fleet draw + percentile aggregation
//	GET  /v1/stats            cumulative memo-store and pool counters
//
// Usage:
//
//	cgra-lifetimed                       # listen on :8080
//	cgra-lifetimed -addr 127.0.0.1:9000 -workers 8 -queue-depth 128
//	cgra-lifetimed -memo-entries 16384   # larger result/epoch stores
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"agingcgra/internal/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return // -h printed the usage
		}
		fmt.Fprintln(os.Stderr, "cgra-lifetimed:", err)
		os.Exit(1)
	}
}

// run is the testable entry point: it parses flags, binds the listener,
// serves until ctx is canceled (SIGINT/SIGTERM in main), then shuts down
// gracefully — in-flight requests get shutdownGrace to finish, and the
// scenario pool drains its accepted work before run returns.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("cgra-lifetimed", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
	workers := fs.Int("workers", 0, "scenario worker goroutines shared by all requests (0: GOMAXPROCS)")
	queueDepth := fs.Int("queue-depth", 64, "bounded depth of the shared scenario work queue")
	memoEntries := fs.Int("memo-entries", 4096,
		"LRU capacity of the result store and the shared epoch store, each (negative: unbounded)")
	grace := fs.Duration("shutdown-grace", 10*time.Second,
		"how long in-flight requests may run after a shutdown signal")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	srv := service.New(service.Options{
		Workers:     *workers,
		QueueDepth:  *queueDepth,
		MemoEntries: *memoEntries,
	})
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "cgra-lifetimed listening on %s\n", ln.Addr())

	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(stdout, "cgra-lifetimed: drained, bye")
	return nil
}
