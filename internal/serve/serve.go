// Package serve is a treedoc-serve hub process: the relay hub, its
// optional shard ring membership, its archive (one archivist per owned
// document, see Archive) and its stats endpoint. cmd/treedoc-serve hands
// its arguments to Main; cmd/treedoc-load re-executes itself into the same
// Main for its fleet's hubs.
package serve

import (
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/treedoc/treedoc"
	"github.com/treedoc/treedoc/internal/transport"
)

// Config is a hub process's configuration, one field per treedoc-serve
// flag.
type Config struct {
	Addr, Self, Peers, Join, Docs, LogDir, Stats    string
	Queue, CompactEvery, SnapThreshold, FlattenCold int
	Verbose, Leave                                  bool
	FlattenEvery                                    time.Duration
}

// flags defines treedoc-serve's flags on fs and returns the Config they
// fill when fs is parsed.
func flags(fs *flag.FlagSet) *Config {
	cfg := new(Config)
	fs.StringVar(&cfg.Addr, "addr", ":9707", "listen address")
	fs.IntVar(&cfg.Queue, "queue", 256, "per-client outbound queue depth")
	fs.BoolVar(&cfg.Verbose, "v", false, "log client connects, disconnects, slow-client drops and handoffs")
	fs.StringVar(&cfg.Docs, "docs", "default", "comma-separated documents to archive (with -log); clients may attach to any document regardless")
	fs.StringVar(&cfg.Self, "self", "", "this hub's advertised address in the shard ring (required with -peers or -join)")
	fs.StringVar(&cfg.Peers, "peers", "", "comma-separated advertised addresses of every hub in the shard ring, including this one (empty disables sharding)")
	fs.StringVar(&cfg.Join, "join", "", "advertised address of any live ring member: fetch its ring, add this hub at the next epoch, and announce (live reshard; requires -self)")
	fs.BoolVar(&cfg.Leave, "leave", false, "on SIGTERM, hand every owned document off to the surviving ring (Hub.Resign) and wait up to 30s for the archivists' hand-overs before exiting")
	fs.StringVar(&cfg.LogDir, "log", "", "archivist log directory; each document persists under <log>/<doc>/ (empty disables archivists)")
	fs.IntVar(&cfg.CompactEvery, "compact", 16384, "archivist: retained ops before snapshot+truncate")
	fs.IntVar(&cfg.SnapThreshold, "snap-threshold", 8192, "archivist: digest gap that triggers snapshot catch-up")
	fs.DurationVar(&cfg.FlattenEvery, "flatten-every", 0, "archivist: period between cold-subtree flatten proposals per document (0 disables; requires -log)")
	fs.IntVar(&cfg.FlattenCold, "flatten-cold", 2, "archivist: revisions a subtree must be quiet before it is proposed")
	fs.StringVar(&cfg.Stats, "stats", "", "HTTP listen address for the expvar stats endpoint (/debug/vars serves hub counters as JSON; empty disables)")
	return cfg
}

// Server is one running hub process.
type Server struct {
	cfg     Config
	Hub     *transport.Hub
	Archive *Archive
	stats   *http.Server // nil without cfg.Stats
	// StatsAddr is the stats endpoint's listen address ("" without one).
	StatsAddr string
}

// Start brings a hub process up: the relay listener, the stats endpoint,
// the ring join and the archivists of the configured documents this hub
// owns. Everything it starts is the Server's own, so a process may run
// several.
func Start(cfg Config) (*Server, error) {
	switch {
	case cfg.FlattenEvery > 0 && cfg.LogDir == "":
		return nil, errors.New("treedoc-serve: -flatten-every requires -log (the archivist authors the rounds)")
	case cfg.Peers != "" && cfg.Self == "":
		return nil, errors.New("treedoc-serve: -peers requires -self (this hub's advertised address)")
	case cfg.Join != "" && cfg.Self == "":
		return nil, errors.New("treedoc-serve: -join requires -self (this hub's advertised address)")
	case cfg.Join != "" && cfg.Peers != "":
		return nil, errors.New("treedoc-serve: -join and -peers are mutually exclusive (join fetches the ring)")
	}
	docs := splitList(cfg.Docs)
	for _, d := range docs {
		if err := transport.ValidateDocID(d); err != nil {
			return nil, fmt.Errorf("treedoc-serve: %w", err)
		}
	}

	s := &Server{cfg: cfg, Archive: NewArchive(cfg,
		treedoc.WithCompactEvery(cfg.CompactEvery), treedoc.WithSnapshotThreshold(cfg.SnapThreshold))}
	opts := []transport.HubOption{transport.WithHubQueueDepth(cfg.Queue)}
	if cfg.LogDir != "" {
		opts = append(opts, transport.WithHubOwnership(s.Archive.Ownership))
	}
	if cfg.Verbose {
		opts = append(opts, transport.WithHubLogger(log.Printf))
	}
	if cfg.Peers != "" {
		opts = append(opts, transport.WithHubShards(cfg.Self, splitList(cfg.Peers)))
	} else if cfg.Self != "" {
		opts = append(opts, transport.WithHubSelf(cfg.Self))
	}
	hub, err := transport.ListenHub(cfg.Addr, opts...)
	if err != nil {
		return nil, fmt.Errorf("treedoc-serve: %w", err)
	}
	s.Hub = hub
	s.Archive.Bind(hub, cfg.Self)

	// Stats endpoint: a dedicated listener (never the relay port) whose
	// GET /debug/vars returns one JSON object, the process's expvars with
	// this hub's "treedoc.hub" and "treedoc.engines" beside them; see
	// docs/OPERATIONS.md for reading the counters.
	if cfg.Stats != "" {
		sln, err := net.Listen("tcp", cfg.Stats)
		if err != nil {
			hub.Close()
			return nil, fmt.Errorf("treedoc-serve: stats listener: %w", err)
		}
		s.StatsAddr = sln.Addr().String()
		log.Printf("stats endpoint on http://%s/debug/vars", s.StatsAddr)
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/vars", s.vars)
		s.stats = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
		go func() {
			if err := s.stats.Serve(sln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("treedoc-serve: stats server: %v", err)
			}
		}()
	}

	// Joining a live ring: Hub.Join fetches the current membership from the
	// named member and installs it with this hub added at the next epoch;
	// every member adopts the announce and hands off the documents the
	// change relocates.
	if cfg.Join != "" {
		if err := hub.Join(cfg.Join, 5*time.Second); err != nil {
			s.Stop()
			return nil, fmt.Errorf("treedoc-serve: %w", err)
		}
		log.Printf("treedoc-serve: joined ring at epoch %d via %s", hub.RingEpoch(), cfg.Join)
	}
	if epoch := hub.RingEpoch(); epoch > 0 {
		log.Printf("treedoc-serve: relaying on %s as shard %s (ring epoch %d)", hub.Addr(), cfg.Self, epoch)
	} else {
		log.Printf("treedoc-serve: relaying on %s", hub.Addr())
	}

	// Static archivists for the configured documents this hub owns; the
	// ownership callback grows and shrinks the set as the ring changes.
	if cfg.LogDir != "" {
		for _, doc := range docs {
			if owner, owned := hub.DocOwner(doc); !owned {
				log.Printf("treedoc-serve: doc %q owned by %s, skipping local archivist", doc, owner)
				continue
			}
			s.Archive.Acquire(doc, hub.RingEpoch())
		}
		if cfg.FlattenEvery > 0 {
			log.Printf("treedoc-serve: flatten janitors proposing every %v", cfg.FlattenEvery)
		}
	}
	return s, nil
}

// vars serves /debug/vars: the process's published expvars and this
// hub's counters, which are not published, so that each Server in a
// process answers with its own.
func (s *Server) vars(w http.ResponseWriter, _ *http.Request) {
	engines := make(map[string]treedoc.EngineStats)
	for _, a := range s.Archive.all() {
		engines[a.Doc] = a.Eng.Stats()
	}
	out := map[string]any{"treedoc.hub": s.Hub.Stats(), "treedoc.engines": engines}
	expvar.Do(func(kv expvar.KeyValue) { out[kv.Key] = json.RawMessage(kv.Value.String()) })
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	json.NewEncoder(w).Encode(out)
}

// Stop shuts the process down. With Leave it first resigns from the ring
// and waits up to 30 s for the archivists' hand-overs; then it logs the
// relay counters and stops the archivists, the hub and the stats endpoint.
func (s *Server) Stop() {
	if s.cfg.Leave && s.Hub.RingEpoch() > 0 {
		log.Printf("treedoc-serve: leaving the ring: handing off %d archived documents", len(s.Archive.all()))
		if err := s.Hub.Resign(); err != nil {
			log.Printf("treedoc-serve: resign: %v (surviving hubs heal via anti-entropy)", err)
		} else {
			deadline := time.Now().Add(30 * time.Second)
			for len(s.Archive.all()) > 0 && time.Now().Before(deadline) {
				time.Sleep(handOverPoll)
			}
			if n := len(s.Archive.all()); n > 0 {
				log.Printf("treedoc-serve: %d archivists not acknowledged by a successor after 30s; stopping them anyway", n)
			}
		}
	}

	hs := s.Hub.Stats()
	log.Printf("treedoc-serve: shutting down (%d frames relayed, %d dropped, %d unrouted, %d forwarded, %d handoffs out, %d in)",
		hs.Relays, hs.Drops, hs.Unrouted, hs.Forwards, hs.HandoffsOut, hs.HandoffsIn)
	docs := make([]string, 0, len(hs.PerDoc))
	for doc := range hs.PerDoc {
		docs = append(docs, doc)
	}
	sort.Strings(docs)
	for _, doc := range docs {
		st := hs.PerDoc[doc]
		log.Printf("treedoc-serve: doc %q: %d clients, %d relayed, %d dropped", doc, st.Clients, st.Relays, st.Drops)
	}
	s.Archive.StopAll("shutting down")
	if err := s.Hub.Close(); err != nil {
		log.Printf("treedoc-serve: %v", err)
	}
	if s.stats != nil {
		s.stats.Close()
	}
}

// Main parses args as treedoc-serve's flags (name heads their usage),
// starts the hub process they describe, prints one line on stdout once
// its listeners are live — "READY addr=<relay> stats=<stats endpoint>" —
// and serves until SIGINT or SIGTERM, then stops it.
func Main(name string, args []string) {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	cfg := flags(fs)
	fs.Parse(args)
	s, err := Start(*cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("READY addr=%s stats=%s\n", s.Hub.Addr(), s.StatsAddr)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	s.Stop()
}

// splitList splits a comma-separated flag, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
