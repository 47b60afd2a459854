// Command mfcoord runs the solve-fabric coordinator: it accepts blocking
// campaign and exact jobs, shards them into leased chunks, and merges
// worker reports back into results that are byte-identical to a local
// single-process run.
//
// Usage:
//
//	mfcoord -addr :9344
//	mfworker -coord http://host:9344        # one or more, anywhere
//	mfexp -fig 5 -coord http://host:9344    # distributed campaign
//	curl -s host:9344/status                # fleet and job health
//
// Endpoints: POST /campaign and /exact (blocking job submission), POST
// /lease, /complete, /heartbeat (worker protocol), GET /job/{id}, /status,
// /healthz. See internal/fabric for schemas and determinism guarantees.
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

	"microfab/internal/fabric"
)

// Connection timeouts: a client gets readHeaderTimeout to send its
// request headers, and a kept-alive connection closes after idleTimeout
// without a request, so a silent client cannot hold a connection
// open forever. There is deliberately no read or write timeout: /campaign
// and /exact block until their job finishes.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	addr := flag.String("addr", ":9344", "listen address")
	leaseTTL := flag.Duration("lease-ttl", 10*time.Second, "chunk lease TTL; an unheartbeated chunk re-queues after this")
	chunkDraws := flag.Int("chunk-draws", 0, "draws per campaign chunk (0 = 8)")
	subtrees := flag.Int("subtrees", 0, "default exact frontier width (0 = 32)")
	flag.Parse()

	coord := fabric.NewCoordinator(fabric.CoordConfig{
		LeaseTTL:   *leaseTTL,
		ChunkDraws: *chunkDraws,
		Subtrees:   *subtrees,
	})
	hs := &http.Server{
		Addr:              *addr,
		Handler:           coord.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "mfcoord: listening on %s\n", *addr)

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "mfcoord:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "mfcoord: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "mfcoord: shutdown:", err)
	}
}
