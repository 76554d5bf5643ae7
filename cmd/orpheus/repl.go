package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"orpheusdb/internal/repl"
)

// Replication commands. Both are network-first: a follower owns a store
// bootstrapped from the primary's snapshot (never a local .odb file), and
// the router owns no store at all — which is why main.go dispatches them
// before OpenStoreWithOptions.

// hasFollowFlag reports whether a serve invocation asked for follower mode
// (-follow or --follow, with either "-follow url" or "-follow=url" shape).
func hasFollowFlag(args []string) bool {
	for _, a := range args {
		a = strings.TrimPrefix(strings.TrimPrefix(a, "-"), "-")
		if a == "follow" || strings.HasPrefix(a, "follow=") {
			return true
		}
	}
	return false
}

// cmdServeFollower runs a read-only replica: bootstrap from the primary's
// snapshot, tail its WAL stream, serve the whole read API (plus /healthz lag
// and orpheus_repl_* metrics), and flip writable on POST /api/v1/promote.
func cmdServeFollower(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	follow := fs.String("follow", "", "primary base URL to replicate from (e.g. http://primary:7077)")
	addr := fs.String("addr", ":7078", "listen address")
	quiet := fs.Bool("quiet", false, "disable replication logging")
	logLevel := fs.String("log-level", "info", "log level: debug|info|warn|error")
	walDir := fs.String("wal-dir", "", "WAL directory armed on promotion (a promoted follower logs its own mutations)")
	reconnect := fs.Duration("reconnect", 500*time.Millisecond, "delay before stream reconnect attempts")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *follow == "" {
		return errors.New("serve -follow: missing primary URL")
	}
	var logger *slog.Logger
	if !*quiet {
		var level slog.Level
		if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
			return fmt.Errorf("serve: bad -log-level %q: %w", *logLevel, err)
		}
		logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	}

	f, err := repl.StartFollower(repl.FollowerConfig{
		Primary:        *follow,
		ReconnectDelay: *reconnect,
		PromoteWALDir:  *walDir,
		Logger:         logger,
	})
	if err != nil {
		return fmt.Errorf("serve -follow: %w", err)
	}
	defer f.Close()
	fmt.Fprintf(os.Stderr, "orpheus: following %s (bootstrapped at LSN %d)\n",
		*follow, f.Store().WALStatus().AppliedLSN)

	srv := &http.Server{
		Addr: *addr,
		// Resolve the handler per request: a re-bootstrap (after the primary
		// truncates past us) swaps in a whole new store + handler pair.
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			f.Handler().ServeHTTP(w, r)
		}),
		ReadHeaderTimeout: 10 * time.Second,
	}
	return serveUntilSignal(srv, fmt.Sprintf("follower of %s on %s", *follow, *addr))
}

// cmdRoute runs the thin read router: checkout/diff/metadata GETs and
// single-statement SELECT queries fan out round-robin across healthy
// followers; everything else proxies to the primary. GET /healthz on the
// router reports the backend roster with per-follower lag.
func cmdRoute(args []string) error {
	fs := flag.NewFlagSet("route", flag.ContinueOnError)
	primary := fs.String("primary", "", "primary base URL (all writes go here)")
	followers := fs.String("followers", "", "comma-separated follower base URLs (reads fan out here)")
	addr := fs.String("addr", ":7079", "listen address")
	quiet := fs.Bool("quiet", false, "disable health-transition logging")
	interval := fs.Duration("health-interval", time.Second, "backend health poll cadence")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *primary == "" {
		return errors.New("route: missing -primary URL")
	}
	var followerURLs []string
	for _, u := range strings.Split(*followers, ",") {
		if u = strings.TrimSpace(u); u != "" {
			followerURLs = append(followerURLs, u)
		}
	}
	var logger *slog.Logger
	if !*quiet {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	rt, err := repl.NewRouter(repl.RouterConfig{
		Primary:        *primary,
		Followers:      followerURLs,
		HealthInterval: *interval,
		Logger:         logger,
	})
	if err != nil {
		return err
	}
	defer rt.Close()
	srv := &http.Server{Addr: *addr, Handler: rt, ReadHeaderTimeout: 10 * time.Second}
	return serveUntilSignal(srv, fmt.Sprintf("routing %d follower(s) for %s on %s",
		len(followerURLs), *primary, *addr))
}

// serveUntilSignal runs srv until it fails or an interrupt asks for a
// graceful shutdown — the same lifecycle cmdServe uses.
func serveUntilSignal(srv *http.Server, banner string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "orpheus: %s\n", banner)
		errc <- srv.ListenAndServe()
	}()
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "orpheus: shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			return err
		}
	}
	return nil
}
