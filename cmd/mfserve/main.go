// Command mfserve runs the mapping-as-a-service daemon: POST problem
// instances to /solve and get mappings back, with isomorphic repeats
// served from the canonical-hash solution cache.
//
// Usage:
//
//	mfserve -addr :8344
//	curl -s localhost:8344/solve -d '{"instance": {...}, "solver": "exact"}'
//	curl -s localhost:8344/stats
//
// Endpoints: POST /solve (add "stream": true for incumbent-streaming JSON
// lines), POST /solve/batch (a list of instances in one request, per-item
// results in order), POST /evaluate, GET /stats, GET /healthz. See
// internal/serve for the request and response schemas.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"microfab/internal/serve"
)

// Connection timeouts: a client gets readHeaderTimeout to send its
// request headers, and a kept-alive connection closes after idleTimeout
// without a request, so a silent client cannot hold a connection
// open forever. There is deliberately no read or write timeout: /solve
// streams ndjson incumbents for as long as a solve runs, and request
// bodies are already size-capped by the handlers.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	addr := flag.String("addr", ":8344", "listen address")
	workers := flag.Int("workers", 0, "solve worker pool size (0 = all CPUs)")
	queue := flag.Int("queue", 0, "pending-solve queue depth (0 = 4x workers)")
	cacheSize := flag.Int("cache", 0, "solution cache entries (0 = 1024)")
	maxNodes := flag.Int64("max-nodes", 0, "cap and default for per-request exact node budgets (0 = 2e6)")
	maxTime := flag.Duration("max-time", 0, "cap and default for per-request wall budgets (0 = 10s)")
	maxTasks := flag.Int("max-tasks", 0, "largest accepted instance (0 = 512 tasks)")
	flag.Parse()

	srv := serve.NewServer(serve.Config{
		Workers:    *workers,
		QueueDepth: *queue,
		CacheSize:  *cacheSize,
		MaxNodes:   *maxNodes,
		MaxTime:    *maxTime,
		MaxTasks:   *maxTasks,
	})
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "mfserve: listening on %s\n", *addr)

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "mfserve:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "mfserve: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "mfserve: shutdown:", err)
	}
	srv.Close()
}
