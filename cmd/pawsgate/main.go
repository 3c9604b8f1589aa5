// Command pawsgate fronts a fleet of pawsd replicas with routing that
// understands the API (see internal/gate):
//
//	pawsgate -addr :8080 \
//	  -backends http://127.0.0.1:8081,http://127.0.0.1:8082,http://127.0.0.1:8083
//
// Cacheable riskmap/plan queries are rendezvous-hashed on their response
// cache key so repeat queries hit the same replica's LRU (-affinity=false
// degrades to round-robin, for measuring what affinity is worth); predict
// and discovery round-robin; job submissions go to the least-loaded
// replica (by its /statusz queue depth); job polls follow the replica
// that owns the job (from the ID's replica prefix). Replicas are health
// checked every -health-interval and taken out of rotation until they
// answer again with a replica ID no other backend reports, so every
// replica needs its own pawsd -replica; idempotent GETs that hit a dying replica are retried once
// elsewhere. GET /gatez reports the gate's own view of the fleet.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"paws/internal/gate"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	backends := flag.String("backends", "", "comma-separated pawsd replica base URLs (required)")
	affinity := flag.Bool("affinity", true, "route riskmap/plan by cache key for per-replica LRU affinity (false = round-robin)")
	healthInterval := flag.Duration("health-interval", 250*time.Millisecond, "replica /statusz poll cadence")
	flag.Parse()

	if err := run(*addr, *backends, *affinity, *healthInterval); err != nil {
		fmt.Fprintln(os.Stderr, "pawsgate:", err)
		os.Exit(1)
	}
}

func run(addr, backends string, affinity bool, healthInterval time.Duration) error {
	var urls []string
	for _, b := range strings.Split(backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			urls = append(urls, b)
		}
	}
	g, err := gate.New(gate.Config{
		Backends:       urls,
		Affinity:       affinity,
		HealthInterval: healthInterval,
	})
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go g.Run(ctx)

	healthy := 0
	for _, b := range g.Status().Backends {
		if b.Healthy {
			healthy++
		}
	}
	log.Printf("pawsgate on %s: %d/%d replicas healthy, affinity=%v", addr, healthy, len(urls), affinity)

	srv := &http.Server{
		Addr:              addr,
		Handler:           g,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		log.Printf("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return srv.Shutdown(shutdownCtx)
	}
}
