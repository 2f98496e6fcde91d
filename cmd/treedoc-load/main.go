// Treedoc-load is the open-loop load and chaos harness: it spawns a
// sharded hub fleet as child processes (each behind a fault-injection
// proxy), drives thousands of concurrent client sessions against it with
// realistic edit mixes, measures per-operation stamp→deliver latency in a
// lock-free histogram, and writes a machine-readable load-report.json.
// It is the instrument the paper's central claim — commutativity keeps
// latency flat as concurrency grows — is checked with, and the regression
// gate every scaling change is judged against (see docs/OPERATIONS.md and
// docs/ARCHITECTURE.md §12).
//
// The generator is open-loop: each client emits edits on its own clock at
// -rate regardless of delivery progress, so queueing delay shows up as
// latency instead of silently throttling the workload (closed-loop
// generators hide exactly the collapse this tool exists to catch). Edit
// shapes come from internal/trace: typing bursts with cursor locality,
// occasional long-range jumps, paste storms, deletes; -skew assigns
// clients to documents uniformly or Zipf-hot.
//
// Latency is measured stamp→deliver: the sender embeds a monotonic
// timestamp in each inserted atom, and every other replica of that
// document records the elapsed time when the operation is applied to its
// local Doc. All clients live in this one process, so the stamps share a
// clock and the measurement needs no wire-protocol support.
//
// On top of steady state, -scenario composes one chaos event per run —
// live resharding under writers (join then leave), hub crash (SIGKILL +
// restart), a slow hub link (injected latency, the slow-client
// backpressure shape), or a hub partition — and asserts an envelope
// after healing: no lost operations (every replica's vector clock covers
// every op each writer broadcast), convergence (identical content across
// each document's replicas), and p99 recovery within -recover-within.
//
// Usage:
//
//	treedoc-load -hubs 3 -sessions 2000 -docs 64 -rate 0.2 -duration 30s
//	treedoc-load -scenario reshard -sessions 200 -docs 16 -duration 45s
//	treedoc-load -scenario crash -report crash-report.json
//
// Every flag is documented in docs/OPERATIONS.md; the report schema and
// envelope definitions are in docs/ARCHITECTURE.md §12.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"github.com/treedoc/treedoc/internal/serve"
	"github.com/treedoc/treedoc/internal/trace"
)

// serveCmd is the first argument that makes this binary a fleet hub.
const serveCmd = "serve"

// config is the parsed flag set for a load run.
type config struct {
	hubs     int
	sessions int
	docs     int
	rate     float64
	duration time.Duration
	pool     int
	skew     float64
	seed     int64
	sync     time.Duration
	queue    int

	mix trace.Mix

	scenario     string
	chaosAt      time.Duration
	healAfter    time.Duration
	chaosLatency time.Duration

	sloP99         time.Duration
	recoverWithin  time.Duration
	quiesceTimeout time.Duration

	report     string
	statsEvery time.Duration
	verbose    bool
}

func main() {
	// The fleet re-execs this binary as its hub processes ("treedoc-load
	// serve <treedoc-serve flags>"), so the harness needs no external
	// server binary and its hubs run treedoc-serve's own code.
	if len(os.Args) > 1 && os.Args[1] == serveCmd {
		serve.Main("treedoc-load "+serveCmd, os.Args[2:])
		return
	}
	log.SetFlags(log.Ltime | log.Lmicroseconds)
	log.SetPrefix("treedoc-load: ")

	var cfg config
	flag.IntVar(&cfg.hubs, "hubs", 3, "hub processes in the fleet (each behind a chaos proxy)")
	flag.IntVar(&cfg.sessions, "sessions", 2000, "concurrent client sessions (one replica + engine each)")
	flag.IntVar(&cfg.docs, "docs", 32, "documents the clients spread across")
	flag.Float64Var(&cfg.rate, "rate", 0.5, "open-loop edit actions per second per client")
	flag.DurationVar(&cfg.duration, "duration", 60*time.Second, "steady-state write window")
	flag.IntVar(&cfg.pool, "pool", 512, "max hub sessions in the shared dial pool (must be >= clients on the hottest doc)")
	flag.Float64Var(&cfg.skew, "skew", 1.2, "doc assignment skew: 0 uniform, >1 Zipf exponent (hot docs)")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed (doc assignment and every client's edit stream)")
	flag.DurationVar(&cfg.sync, "sync", 5*time.Second, "client anti-entropy interval (digest traffic grows with clients-per-doc squared)")
	flag.IntVar(&cfg.queue, "queue", 256, "queue depth for hub per-client and engine per-peer queues")

	cfg.mix = trace.DefaultMix()
	flag.IntVar(&cfg.mix.TypistRun, "typist-run", cfg.mix.TypistRun, "mean typing-burst length (consecutive single-atom inserts)")
	flag.Float64Var(&cfg.mix.JumpProb, "jump-prob", cfg.mix.JumpProb, "per-action probability of a long-range cursor jump")
	flag.Float64Var(&cfg.mix.PasteProb, "paste-prob", cfg.mix.PasteProb, "per-action probability of a paste storm")
	flag.Float64Var(&cfg.mix.DeleteProb, "delete-prob", cfg.mix.DeleteProb, "per-action probability of a delete")
	flag.IntVar(&cfg.mix.AtomBytes, "atom-bytes", cfg.mix.AtomBytes, "mean inserted atom size in bytes (before the latency stamp)")

	flag.StringVar(&cfg.scenario, "scenario", "steady", "chaos scenario: steady, reshard, crash, slow, partition")
	flag.DurationVar(&cfg.chaosAt, "chaos-at", 0, "when the chaos event fires (0: duration/3)")
	flag.DurationVar(&cfg.healAfter, "heal-after", 10*time.Second, "how long the fault lasts before healing")
	flag.DurationVar(&cfg.chaosLatency, "chaos-latency", 200*time.Millisecond, "injected one-way link latency for -scenario slow")

	flag.DurationVar(&cfg.sloP99, "slo-p99", 0, "steady-state p99 SLO asserted over the whole run (0 disables)")
	flag.DurationVar(&cfg.recoverWithin, "recover-within", 30*time.Second, "p99 must return to the recovery threshold within this long after heal")
	flag.DurationVar(&cfg.quiesceTimeout, "quiesce-timeout", 90*time.Second, "max wait for all replicas to converge after writers stop")

	flag.StringVar(&cfg.report, "report", "load-report.json", "machine-readable report path")
	flag.DurationVar(&cfg.statsEvery, "stats-every", 5*time.Second, "hub expvar stats poll period")
	flag.BoolVar(&cfg.verbose, "v", false, "log fleet lifecycle, reconnects and chaos events")
	flag.Parse()

	if err := validate(&cfg); err != nil {
		log.Fatal(err)
	}
	rep, err := run(&cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := writeReport(cfg.report, rep); err != nil {
		log.Fatal(err)
	}
	printSummary(rep)
	if !rep.Passed {
		os.Exit(1)
	}
}

func validate(cfg *config) error {
	if cfg.hubs < 1 || cfg.sessions < 1 || cfg.docs < 1 {
		return fmt.Errorf("-hubs, -sessions and -docs must be >= 1")
	}
	if cfg.rate <= 0 {
		return fmt.Errorf("-rate must be > 0")
	}
	if cfg.pool < 1 {
		return fmt.Errorf("-pool must be >= 1")
	}
	if err := cfg.mix.Validate(); err != nil {
		return err
	}
	switch cfg.scenario {
	case "steady", "reshard", "crash", "slow", "partition":
	default:
		return fmt.Errorf("unknown -scenario %q (steady, reshard, crash, slow, partition)", cfg.scenario)
	}
	if cfg.chaosAt == 0 {
		cfg.chaosAt = cfg.duration / 3
	}
	if cfg.scenario != "steady" && cfg.chaosAt+cfg.healAfter >= cfg.duration {
		return fmt.Errorf("-chaos-at (%v) + -heal-after (%v) must fit inside -duration (%v) so recovery is observable",
			cfg.chaosAt, cfg.healAfter, cfg.duration)
	}
	if cfg.scenario == "crash" && cfg.hubs < 2 {
		return fmt.Errorf("-scenario crash needs -hubs >= 2 (a surviving hub)")
	}
	if (cfg.scenario == "partition" || cfg.scenario == "slow") && cfg.hubs < 2 {
		return fmt.Errorf("-scenario %s needs -hubs >= 2", cfg.scenario)
	}
	return nil
}
