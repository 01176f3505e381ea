// Command vpicfleet is the fleet coordinator: it federates many vpicd
// workers behind one control plane. Workers register (vpicd
// -coordinator self-registers) and are health-checked with bounded
// probes; jobs and sweep shards are scheduled fair-share per tenant
// onto the worker with the most queue headroom,
// honouring worker 429 backpressure; running shards have their CRC'd
// checkpoints mirrored so a dead worker's jobs relocate — resuming
// bit-identically — onto healthy ones; clients stream step-granular
// energy histories over SSE that survive relocations gaplessly.
//
// Usage:
//
//	vpicfleet -addr :8990 -mirror /var/lib/vpicfleet
//
// Then, e.g.:
//
//	vpicd -addr :8970 -spool spoolA -coordinator http://127.0.0.1:8990 &
//	vpicd -addr :8971 -spool spoolB -coordinator http://127.0.0.1:8990 &
//	curl -X POST :8990/v1/jobs -H 'X-Tenant: lpi-team' \
//	  -d '{"deck":{"deck":"lpi","steps":4000},"sweep":{"a0":[0.01,0.02,0.03]}}'
//	curl :8990/v1/jobs/fj-000001
//	curl -N :8990/v1/jobs/fj-000001/events
//	curl :8990/metrics
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"govpic/internal/fleet"
)

func main() {
	var (
		addr       = flag.String("addr", ":8990", "HTTP listen address")
		mirror     = flag.String("mirror", "vpicfleet-mirror", "checkpoint/result mirror directory")
		workers    = flag.String("workers", "", "comma-separated worker base URLs to pre-register")
		probeEvery = flag.Duration("probe-every", 2*time.Second, "worker health-check interval (3 failed 1 s probes declare a worker dead)")
		pollEvery  = flag.Duration("poll-every", 500*time.Millisecond, "shard status-poll and mirror interval (10 of them clamp a worker's Retry-After)")
	)
	flag.Parse()

	c, err := fleet.New(fleet.Config{
		MirrorDir:  *mirror,
		ProbeEvery: *probeEvery,
		PollEvery:  *pollEvery,
		Logf:       log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	if *workers != "" {
		for _, u := range strings.Split(*workers, ",") {
			if _, err := c.Register(strings.TrimSpace(u)); err != nil {
				log.Fatalf("vpicfleet: pre-register %q: %v", u, err)
			}
		}
	}

	httpSrv := &http.Server{Addr: *addr, Handler: c.Handler()}
	errc := make(chan error, 1)
	go func() {
		log.Printf("vpicfleet: listening on %s (mirror %s, probe %s, poll %s)",
			*addr, *mirror, *probeEvery, *pollEvery)
		errc <- httpSrv.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	select {
	case <-ctx.Done():
		log.Printf("vpicfleet: shutdown requested")
	case err := <-errc:
		log.Fatal(err)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	httpSrv.Shutdown(shutCtx)
	if err := c.Close(); err != nil {
		log.Printf("vpicfleet: close: %v", err)
	}
	log.Printf("vpicfleet: exiting (placed jobs keep running on their workers)")
}
