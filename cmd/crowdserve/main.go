// Command crowdserve runs the crowdfair HTTP serving front-end: the
// admission-controlled API server of internal/serve over an in-memory or
// durable platform.
//
// Usage:
//
//	crowdserve [-addr :8080] [-skills 12]
//	crowdserve -dir /var/lib/crowdfair [-walsync interval:5ms] [-maxauditlag 50000]
//
// With -dir the platform is rooted in a write-ahead-logged directory
// (created if absent, recovered if not) and every mutation, applied on its
// own request goroutine, rides the group-commit WAL under the chosen
// -walsync policy; without it the platform is purely in-memory. The server
// sheds mutations with HTTP 429 + Retry-After once -maxqueue mutations are
// in flight or the incremental auditor trails the store by more than
// -maxauditlag versions.
// GET /v1/audit serves the cached version-stamped audit snapshot refreshed
// every -auditevery; /statsz, /debug/vars, and /debug/pprof expose the
// serving counters and profiles.
//
// SIGINT or SIGTERM shuts the server down gracefully: it stops accepting
// connections, waits (up to drainTimeout) for requests in flight — so a
// mutation that was applied is also answered — and only then stops the
// audit loop and closes the platform's write-ahead logs.
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

	"repro/crowdfair"
	"repro/internal/serve"
	"repro/internal/wal"
)

// drainTimeout bounds how long shutdown waits for requests in flight
// before it closes the remaining connections.
const drainTimeout = 10 * time.Second

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stderr)
	stop()
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "crowdserve:", err)
		os.Exit(1)
	}
}

// errUsage reports a command line that flag parsing already answered with
// a message and the usage text on stderr.
var errUsage = errors.New("usage")

// run serves until ctx is cancelled, then drains and shuts down. It
// returns nil after a clean shutdown.
func run(ctx context.Context, args []string, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("crowdserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address")
	dir := fs.String("dir", "", "platform directory (empty: in-memory, no durability)")
	walSync := fs.String("walsync", "interval:5ms", "WAL sync policy with -dir: never (ack once written), interval[:dur] (fsync every dur), always (ack after fsync)")
	skills := fs.Int("skills", 12, "skill-universe size when creating a fresh platform")
	maxQueue := fs.Int("maxqueue", 4096, "bound on mutations in flight; arrivals beyond it shed with 429")
	maxAuditLag := fs.Uint64("maxauditlag", 0, "shed mutations once the audit snapshot trails by more versions than this (0: disabled)")
	retryAfter := fs.Duration("retryafter", 500*time.Millisecond, "Retry-After hint sent with 429s")
	auditEvery := fs.Duration("auditevery", 100*time.Millisecond, "cadence of the background incremental audit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}
	policy, err := wal.ParseSyncPolicy(*walSync)
	if err != nil {
		return err
	}

	u := universe(*skills)
	auditCfg := crowdfair.DefaultAuditConfig()
	var p *crowdfair.Platform
	if *dir == "" {
		p = crowdfair.NewPlatform(u)
	} else {
		if p, err = crowdfair.OpenPlatformWAL(*dir, u, auditCfg, crowdfair.WALOptions{Sync: policy}); err != nil {
			return err
		}
		defer func() { err = errors.Join(err, p.Close()) }()
	}

	s := serve.New(serve.Config{
		Platform:    p,
		Audit:       auditCfg,
		MaxQueue:    *maxQueue,
		MaxAuditLag: *maxAuditLag,
		RetryAfter:  *retryAfter,
		AuditEvery:  *auditEvery,
	})
	s.Start()
	defer s.Stop() // runs before p.Close: every admitted mutation lands first

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Fprintf(stderr, "crowdserve: listening on %s (durable=%v)\n", ln.Addr(), p.Durable())

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(stderr, "crowdserve: draining")
	// Shutdown closes the listener and waits for every handler in flight,
	// so no client sees a connection error for a write that was applied.
	// Its deadline starts now, not from ctx, which is already done.
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil {
		return errors.Join(fmt.Errorf("drain: %w", err), hs.Close())
	}
	return nil
}

// universe builds the skill universe fresh platforms are created over; it
// matches the "skill-%02d" naming of internal/workload, so entities
// generated there validate against a default server.
func universe(n int) *crowdfair.Universe {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("skill-%02d", i)
	}
	return crowdfair.NewUniverse(names...)
}
