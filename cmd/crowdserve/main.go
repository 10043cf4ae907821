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
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/crowdfair"
	"repro/internal/serve"
	"repro/internal/wal"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	dir := flag.String("dir", "", "platform directory (empty: in-memory, no durability)")
	walSync := flag.String("walsync", "interval:5ms", "WAL fsync policy with -dir (never|rotate|interval[:dur]|always)")
	skills := flag.Int("skills", 12, "skill-universe size when creating a fresh platform")
	maxQueue := flag.Int("maxqueue", 4096, "bound on mutations in flight; arrivals beyond it shed with 429")
	maxAuditLag := flag.Uint64("maxauditlag", 0, "shed mutations once the audit snapshot trails by more versions than this (0: disabled)")
	retryAfter := flag.Duration("retryafter", 500*time.Millisecond, "Retry-After hint sent with 429s")
	auditEvery := flag.Duration("auditevery", 100*time.Millisecond, "cadence of the background incremental audit")
	flag.Parse()

	u := universe(*skills)
	auditCfg := crowdfair.DefaultAuditConfig()
	var (
		p   *crowdfair.Platform
		err error
	)
	if *dir != "" {
		sync, perr := wal.ParseSyncPolicy(*walSync)
		if perr != nil {
			fatal(perr)
		}
		p, err = crowdfair.OpenPlatformWAL(*dir, u, auditCfg, crowdfair.WALOptions{Sync: sync})
		if err != nil {
			fatal(err)
		}
		defer p.Close()
	} else {
		p = crowdfair.NewPlatform(u)
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
	defer s.Stop()

	hs := &http.Server{Addr: *addr, Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "crowdserve: listening on %s (durable=%v)\n", *addr, p.Durable())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		fatal(err)
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "crowdserve: %v, draining\n", sig)
		_ = hs.Close()
	}
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "crowdserve:", err)
	os.Exit(1)
}
