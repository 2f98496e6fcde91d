package main

import (
	"expvar"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/treedoc/treedoc/internal/transport"
)

// hubChildConfig carries the hidden -hub-* flags of a fleet hub process.
type hubChildConfig struct {
	addr    string
	self    string
	peers   string
	join    string
	queue   int
	verbose bool
}

// hubChildMain is the re-exec entry point: a minimal treedoc-serve — hub
// relay, optional shard ring, expvar stats endpoint — without archivists
// (the harness's replicas are the clients themselves, and ring-only
// handoffs heal through client anti-entropy). It prints one READY line on
// stdout once the relay and stats listeners are live; the parent parses
// it. SIGTERM resigns from the ring (handing owned documents off) before
// exiting, which is how the reshard scenario's "leave" leg works; the
// crash scenario uses SIGKILL precisely so none of this cleanup runs.
func hubChildMain(cfg hubChildConfig) {
	log.SetPrefix(fmt.Sprintf("hub[%s]: ", cfg.self))

	var opts []transport.HubOption
	opts = append(opts, transport.WithHubQueueDepth(cfg.queue))
	if cfg.verbose {
		opts = append(opts, transport.WithHubLogger(log.Printf))
	}
	if cfg.peers != "" {
		opts = append(opts, transport.WithHubShards(cfg.self, strings.Split(cfg.peers, ",")))
	} else if cfg.self != "" {
		opts = append(opts, transport.WithHubSelf(cfg.self))
	}

	hub, err := transport.ListenHub(cfg.addr, opts...)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}

	expvar.Publish("treedoc.hub", expvar.Func(func() any { return hub.Stats() }))
	sln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatalf("stats listener: %v", err)
	}
	go func() {
		mux := http.NewServeMux()
		mux.Handle("/debug/vars", expvar.Handler())
		srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
		srv.Serve(sln)
	}()

	if cfg.join != "" {
		if err := hub.Join(cfg.join, 5*time.Second); err != nil {
			log.Fatalf("join: %v", err)
		}
	}

	// The parent blocks on this line; everything above must be live first.
	fmt.Printf("READY addr=%s stats=%s\n", hub.Addr(), sln.Addr())
	os.Stdout.Sync()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	<-sig
	if hub.RingEpoch() > 0 {
		if err := hub.Resign(); err != nil {
			log.Printf("resign: %v (survivors heal via anti-entropy)", err)
		}
	}
	hub.Close()
}
