// Command dassw is DASSA's shard worker daemon: it serves shard requests
// from a cluster coordinator (dassd -workers or das_analyze -workers) by
// running the storage/analysis pipeline over its assigned slice of the
// shared file set.
//
//	dassw -addr 127.0.0.1:9057
//
// The worker speaks the length-prefixed wire protocol: Hello/Welcome
// handshake, a heartbeat every second, shard requests carrying absolute
// deadlines, and cancel frames that poison in-flight shards. File paths in
// requests are absolute — the worker must see the same filesystem as the
// coordinator (the paper's parallel-FS model).
//
// SIGINT/SIGTERM drain: the listener closes, new shards are refused,
// in-flight shards get -drain-timeout to finish and flush their results,
// then the process exits 0.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dassa/internal/cluster"
	"dassa/internal/dasf"
	"dassa/internal/faults"
	"dassa/internal/obs"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:9057", "listen address (host:port, port 0 picks one)")
		name    = flag.String("name", "", "worker name in handshakes and logs (default the listen address)")
		cores   = flag.Int("cores", 4, "per-shard compute parallelism")
		drainTO = flag.Duration("drain-timeout", 10*time.Second, "longest a drain waits for in-flight shards")
		inject  = flag.String("inject", "", "storage fault injection spec (same grammar as das_analyze -inject)")
	)
	newLogger := obs.LogFlags(nil)
	flag.Parse()

	logger, err := newLogger(os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dassw: %v\n", err)
		os.Exit(2)
	}
	if *inject != "" {
		cfg, err := faults.ParseSpec(*inject)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dassw: %v\n", err)
			os.Exit(2)
		}
		dasf.SetInjector(faults.New(cfg))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen failed", "addr", *addr, "err", err)
		os.Exit(1)
	}
	w := cluster.NewWorker(cluster.WorkerConfig{
		Name:         *name,
		Cores:        *cores,
		DrainTimeout: *drainTO,
		Log:          logger,
	})
	// Printed on stdout so wrappers (and the e2e test) can discover the
	// port when -addr ends in :0.
	fmt.Printf("dassw: listening on %s\n", ln.Addr())
	logger.Info("listening", "addr", ln.Addr().String(), "cores", *cores)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	errc := make(chan error, 1)
	go func() { errc <- w.Serve(ln) }()

	select {
	case err := <-errc:
		logger.Error("worker failed", "err", err)
		os.Exit(1)
	case s := <-sig:
		logger.Info("signal received, draining", "signal", s.String())
	}
	w.Drain()
	logger.Info("drain complete")
}
