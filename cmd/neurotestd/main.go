// Command neurotestd is the test-floor daemon: a stdlib-only HTTP service
// for on-demand test-suite generation and campaign jobs over a
// content-addressed artifact cache and a bounded job queue.
//
// Usage:
//
//	neurotestd [-addr localhost:7823] [-queue 64] [-workers N]
//	           [-cache-bytes 268435456] [-max-weights 16777216]
//	           [-coordinator] [-peers http://w1:7823,http://w2:7823]
//	           [-hw-dwell 0s]
//
// Endpoints (see DESIGN.md §9 and §14 for the full table):
//
//	POST   /v1/generate        generate (or fetch cached) a test suite
//	GET    /v1/artifacts/{key} download the binary suite
//	POST   /v1/coverage        submit a fault-coverage campaign job
//	POST   /v1/sessions        submit an unreliable-chip session campaign
//	POST   /v1/shards/coverage run a coverage shard (worker-to-worker)
//	POST   /v1/shards/sessions run a sessions shard (worker-to-worker)
//	GET    /v1/jobs/{id}       poll a job
//	GET    /v1/jobs/{id}/stream stream job state as NDJSON
//	DELETE /v1/jobs/{id}       cancel a job
//	GET    /healthz            queue depth, busy workers, peer reachability
//	GET    /metrics            expvar-style counters (Prometheus text)
//
// With -peers, /healthz probes the listed peers. With -coordinator,
// campaign submissions are sharded across the peer ring by consistent
// hashing and merged bit-identically to a single-node run (DESIGN.md §14).
// -hw-dwell charges each campaign a simulated fixture-occupancy time, for
// floor-throughput experiments.
//
// `neurotest serve` launches the same daemon with the same flags.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"neurotest/internal/service"
)

func main() {
	cfg := service.DefaultConfig()
	fs := flag.NewFlagSet("neurotestd", flag.ExitOnError)
	cfg.RegisterFlags(fs)
	//lint:ignore unchecked-error ExitOnError FlagSet: Parse exits the process on error and never returns one
	fs.Parse(os.Args[1:])
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(2)
	}
	if err := service.ListenAndServe(context.Background(), cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}
