package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/distsurvey"
	"repro/internal/obs"
)

// Distributed mode: `repro -serve ADDR` runs the coordinator for one
// study — the §4.2 resolver study with -fig3, the §4.1 domain survey
// otherwise. It plans the shards, leases them to workers, merges their
// results, and prints the same sections the in-process run prints.
// `repro -worker ADDR` runs a worker that executes leased shards; it
// must be started with the same study flags (-fig3, -domain-scale,
// -resolver-scale, -seed, -shards, -signing), which the hello
// handshake enforces.

// distFlags carries the distributed-mode flags and attachments.
type distFlags struct {
	stateDir string
	resume   bool
	leaseTTL time.Duration
	reg      *obs.Registry
	trace    *obs.Tracer
}

// runDistCoordinator binds addr, serves study to workers, and prints
// the merged report with show after the banner line.
func runDistCoordinator[J, O, R any](ctx context.Context, addr string, study core.Study[J, O, R], d distFlags, banner string, show func(R)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// The bound address goes to stderr so scripts (and CI) can discover
	// a :0 ephemeral port.
	fmt.Fprintf(os.Stderr, "repro: coordinating on %s\n", ln.Addr())
	coord, err := distsurvey.NewCoordinator(distsurvey.StudyConfig[J, O, R]{
		Spec:     study,
		Obs:      d.reg,
		StateDir: d.stateDir,
		Resume:   d.resume,
		LeaseTTL: d.leaseTTL,
	})
	if err != nil {
		// Serve never runs, so the listener must be released here.
		_ = ln.Close()
		return err
	}
	if n := coord.CheckpointsLoaded(); n > 0 {
		fmt.Fprintf(os.Stderr, "repro: resumed %d checkpointed shard(s) from %s\n", n, d.stateDir)
	}
	fmt.Printf("== Coordinating %s…\n\n", banner)
	report, err := coord.Serve(ctx, ln)
	if err != nil {
		return err
	}
	show(report)
	return nil
}

// runDistWorker dials the coordinator (retrying while it boots) and
// executes leased shards of study until it is done.
func runDistWorker[J, O, R any](ctx context.Context, addr string, study core.Study[J, O, R], d distFlags) error {
	conn, err := dialRetry(ctx, addr)
	if err != nil {
		return err
	}
	name, _ := os.Hostname() // best-effort label; empty is fine
	name = fmt.Sprintf("%s/%d", name, os.Getpid())
	fmt.Fprintf(os.Stderr, "repro: worker %s serving coordinator %s\n", name, addr)
	return distsurvey.RunWorker(ctx, conn, study, distsurvey.WorkerConfig{
		Name:  name,
		Obs:   d.reg,
		Trace: d.trace,
	})
}

// dialRetry connects to the coordinator, retrying for ~5 s so workers
// can be launched before (or alongside) the coordinator.
func dialRetry(ctx context.Context, addr string) (net.Conn, error) {
	var lastErr error
	for i := 0; i < 50; i++ {
		d := net.Dialer{}
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		select {
		case <-time.After(100 * time.Millisecond):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return nil, fmt.Errorf("coordinator at %s unreachable: %w", addr, lastErr)
}
