// Command fdserve hosts named, isolated, constraint-maintained stores
// behind a TCP line protocol — the multi-tenant daemon over the
// hash-sharded store. Each tenant is a scheme + FD set + sharded store
// (optionally durable) guarded by an auth token; clients speak
// newline-delimited JSON (see internal/serve for the ops).
//
// Usage:
//
//	fdserve -config tenants.json [-addr host:port] [-drain 5s]
//
// The config is a JSON document:
//
//	{"tenants": [{
//	    "name": "hr", "token": "s3cr3t",
//	    "shards": 4, "key": ["E#"],
//	    "scheme": {"name": "R", "attrs": [
//	        {"name": "E#", "domain": {"name": "emp", "prefix": "e", "size": 64}},
//	        {"name": "SL", "domain": {"name": "sal", "values": ["s1", "s2"]}}]},
//	    "fds": "E# -> SL",
//	    "dir": "/var/lib/fdserve/hr"}]}
//
// "shards" defaults to 1; "key" must be a subset of every FD's LHS
// (the condition that keeps per-shard constraint maintenance sound).
// With "dir" set the tenant write-ahead logs per shard under
// dir/shard-NN and recovers on restart.
//
// On SIGINT/SIGTERM the daemon stops accepting, drains in-flight
// connections up to -drain, force-closes stragglers, then checkpoints
// and closes every tenant store (the next start of a durable tenant
// adopts the checkpoint and replays nothing; after a crash it replays
// the log). Exit status 0 on a clean shutdown, 1 on startup or shutdown
// errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fdnull/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fdserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	configPath := fs.String("config", "", "tenant configuration (JSON, required)")
	addr := fs.String("addr", "127.0.0.1:7070", "listen address")
	drain := fs.Duration("drain", 5*time.Second, "graceful-shutdown drain window")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if *configPath == "" {
		fmt.Fprintln(stderr, "fdserve: -config is required")
		return 1
	}
	cfg, err := serve.LoadConfig(*configPath)
	if err != nil {
		fmt.Fprintf(stderr, "fdserve: %v\n", err)
		return 1
	}
	srv, err := serve.New(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "fdserve: %v\n", err)
		return 1
	}
	if err := srv.Listen(*addr); err != nil {
		fmt.Fprintf(stderr, "fdserve: %v\n", err)
		srv.CloseTenants() // errcheck:ok startup failed; listener never opened
		return 1
	}
	fmt.Fprintf(stdout, "fdserve: listening on %s\n", srv.Addr())
	fmt.Fprintf(stdout, "fdserve: tenants: %v\n", srv.TenantInfo())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	go srv.Serve()
	<-ctx.Done()
	stop()
	fmt.Fprintln(stdout, "fdserve: draining")
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		fmt.Fprintf(stderr, "fdserve: shutdown: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, "fdserve: shutdown complete")
	return 0
}
