// Command vpicd is the simulation job service: it accepts deck configs
// (single runs or parameter sweeps) over HTTP, queues them with bounded
// backpressure, executes them on a runner pool with periodic bit-exact
// checkpoints, and resumes interrupted jobs from its spool directory on
// restart. SIGTERM/SIGINT checkpoint every running job before exit, so
// a rolling restart loses no work.
//
// Usage:
//
//	vpicd -addr :8970 -spool /var/lib/vpicd
//
// Then, e.g.:
//
//	curl -X POST :8970/v1/jobs -d '{"deck":{"deck":"lpi","steps":4000},"sweep":{"a0":[0.01,0.02,0.03]}}'
//	curl :8970/v1/jobs/job-000001
//	curl :8970/v1/jobs/job-000001/result
//	curl -N :8970/v1/jobs/job-000001/events
//	curl :8970/metrics
//
// POST /v1/drain or SIGUSR1 starts a graceful drain: admissions stop
// (503), running jobs checkpoint, and the process exits 0 so a
// successor on the same spool resumes the backlog — the rolling-restart
// primitive.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux (see -debug-addr)
	"os"
	"os/signal"
	"syscall"
	"time"

	"govpic/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", ":8970", "HTTP listen address")
		debugAddr = flag.String("debug-addr", "", "if set, serve net/http/pprof on this address (e.g. localhost:6060)")
		spool     = flag.String("spool", "vpicd-spool", "durable job spool directory")
		runners   = flag.Int("runners", 1, "concurrent job executors")
		ckptEvery = flag.Int("checkpoint-every", 50, "steps between crash-safety checkpoints")
		energy    = flag.Int("energy-every", 10, "steps between energy history samples")
	)
	flag.Parse()

	if *debugAddr != "" {
		// Profiling stays off the job API listener: the pprof handlers
		// sit on the default mux, served only here, so production
		// deployments expose them on localhost (or not at all) without
		// touching the service surface.
		go func() {
			log.Printf("vpicd: pprof on http://%s/debug/pprof/", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				log.Printf("vpicd: debug listener: %v", err)
			}
		}()
	}

	srv, err := server.New(server.Config{
		SpoolDir:        *spool,
		Runners:         *runners,
		CheckpointEvery: *ckptEvery,
		EnergyEvery:     *energy,
		Logf:            log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() {
		log.Printf("vpicd: listening on %s (spool %s, %d runners)", *addr, *spool, *runners)
		errc <- httpSrv.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()

	// SIGUSR1 is the signal-level drain trigger (POST /v1/drain is the
	// HTTP-level one); both stop admissions and land in DrainRequested.
	usr1 := make(chan os.Signal, 1)
	signal.Notify(usr1, syscall.SIGUSR1)

	select {
	case <-ctx.Done():
		log.Printf("vpicd: shutdown requested; checkpointing running jobs")
	case <-usr1:
		srv.Drain()
		log.Printf("vpicd: SIGUSR1 drain; admissions stopped, checkpointing running jobs")
	case <-srv.DrainRequested():
		log.Printf("vpicd: drain requested; admissions stopped, checkpointing running jobs")
	case err := <-errc:
		log.Fatal(err)
	}

	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("vpicd: http shutdown: %v", err)
	}
	if err := srv.Close(); err != nil {
		log.Printf("vpicd: close: %v", err)
	}
	log.Printf("vpicd: all jobs checkpointed; exiting")
}
