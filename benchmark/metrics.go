package main

// metricDef is one row of BENCHMARK.json. Bound is the share of the
// parent's median by which an end-to-end metric may worsen; per-layer
// metrics carry no bound. This table is the single source the program
// prints from; TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json equal
// to it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the gated metrics: the ones that held their spread on the
// shared two-core box this benchmark was built on. Every workload reports
// every one of them; README.md gives the per-workload definition.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wire_bytes_per_op", "B/op", "lower", 0.25},
	{"heap_bytes_per_atom", "B", "lower", 0.25},
}

// ungated are the end-to-end timings ISSUE 11 meant to gate. On this box
// the host's speed moves in regimes of tens of seconds (README.md,
// "Demoted"): run-to-run they spread 25 to 40% of their median, wider than
// any bound BENCHMARK.json may carry, and a bound a metric cannot hold
// rejects good changes at random. Every untraced run still prints them, as
// comment lines; the traced run reports them as gen.<name>.
var ungated = []metricDef{
	{Name: "deliver_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "deliver_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "replay_ops_per_s", Unit: "ops/s", Better: "higher"},
	{Name: "join_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "cpu_us_per_op", Unit: "us/op", Better: "lower"},
}

// perLayer are the single-layer metrics of the traced run, prefixed by the
// module they measure.
var perLayer = []metricDef{
	// root treedoc.Doc: doctree+core+ident behind the public calls
	{Name: "doc.edit_us", Unit: "us", Better: "lower"},
	{Name: "doc.edit_ops", Unit: "count", Better: "higher"},
	{Name: "doc.apply_us_per_op", Unit: "us/op", Better: "lower"},
	{Name: "doc.apply_batch_ops", Unit: "ops", Better: "higher"},
	{Name: "doc.snapshot_us", Unit: "us", Better: "lower"},
	{Name: "doc.install_us", Unit: "us", Better: "lower"},
	// ident / doctree / storage
	{Name: "ident.path_bytes_p50", Unit: "B", Better: "lower"},
	{Name: "ident.path_bytes_max", Unit: "B", Better: "lower"},
	{Name: "doctree.nodes_per_atom", Unit: "ratio", Better: "lower"},
	{Name: "doctree.tombstone_frac", Unit: "ratio", Better: "lower"},
	{Name: "storage.snapshot_bytes_per_atom", Unit: "B", Better: "lower"},
	{Name: "storage.encode_us", Unit: "us", Better: "lower"},
	{Name: "storage.decode_us", Unit: "us", Better: "lower"},
	// core / vclock
	{Name: "core.op_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "core.op_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "vclock.encode_ns", Unit: "ns", Better: "lower"},
	// causal
	{Name: "causal.add_inorder_ns", Unit: "ns", Better: "lower"},
	{Name: "causal.add_reordered_ns", Unit: "ns", Better: "lower"},
	{Name: "causal.pending_max", Unit: "count", Better: "lower"},
	// oplog
	{Name: "oplog.append_us", Unit: "us", Better: "lower"},
	{Name: "oplog.sync_p50_us", Unit: "us", Better: "lower"},
	{Name: "oplog.sync_p99_us", Unit: "us", Better: "lower"},
	{Name: "oplog.syncs", Unit: "count", Better: "lower"},
	{Name: "oplog.bytes_per_op", Unit: "B/op", Better: "lower"},
	// transport wire
	{Name: "wire.encode_ns_per_op", Unit: "ns/op", Better: "lower"},
	{Name: "wire.decode_ns_per_op", Unit: "ns/op", Better: "lower"},
	{Name: "wire.frame_ops_mean", Unit: "ops", Better: "higher"},
	{Name: "wire.frames", Unit: "count", Better: "lower"},
	{Name: "wire.overhead_frac", Unit: "ratio", Better: "lower"},
	// transport engine
	{Name: "engine.submit_p50_us", Unit: "us", Better: "lower"},
	{Name: "engine.submit_p99_us", Unit: "us", Better: "lower"},
	{Name: "engine.broadcast_block_us", Unit: "us", Better: "lower"},
	{Name: "engine.deliver_p50_us", Unit: "us", Better: "lower"},
	{Name: "engine.deliver_p99_us", Unit: "us", Better: "lower"},
	{Name: "engine.drops", Unit: "count", Better: "lower"},
	{Name: "engine.digests_sent", Unit: "count", Better: "lower"},
	{Name: "engine.digests_suppressed", Unit: "count", Better: "higher"},
	{Name: "engine.replay_frac", Unit: "ratio", Better: "lower"},
	// transport hub
	{Name: "hub.relay_p50_us", Unit: "us", Better: "lower"},
	{Name: "hub.relay_p99_us", Unit: "us", Better: "lower"},
	{Name: "hub.relay_last_us", Unit: "us", Better: "lower"},
	{Name: "hub.relays", Unit: "count", Better: "lower"},
	{Name: "hub.drops", Unit: "count", Better: "lower"},
	{Name: "hub.fanout_us.8", Unit: "us", Better: "lower"},
	{Name: "hub.fanout_us.64", Unit: "us", Better: "lower"},
	{Name: "hub.fanout_us.256", Unit: "us", Better: "lower"},
	// transport session / retained log
	{Name: "session.attach_us", Unit: "us", Better: "lower"},
	{Name: "session.syncbatch_entries_per_frame", Unit: "ratio", Better: "higher"},
	{Name: "retained.answer_us", Unit: "us", Better: "lower"},
	// commit
	{Name: "commit.flatten_round_ms", Unit: "ms", Better: "lower"},
	{Name: "commit.flatten_aborts", Unit: "count", Better: "lower"},
	{Name: "doctree.heap_bytes_per_atom_flat", Unit: "B", Better: "lower"},
	// Go runtime
	{Name: "go.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "go.gc_pause_p99_us", Unit: "us", Better: "lower"},
	{Name: "go.alloc_bytes_per_op", Unit: "B/op", Better: "lower"},
	{Name: "go.allocs_per_op", Unit: "1/op", Better: "lower"},
	// generator: validity of the run, not the system
	{Name: "gen.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "gen.sent_ops", Unit: "count", Better: "higher"},
	// the demoted end-to-end timings (see ungated), as the traced pass saw them
	{Name: "gen.deliver_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "gen.deliver_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "gen.replay_ops_per_s", Unit: "ops/s", Better: "higher"},
	{Name: "gen.join_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "gen.cpu_us_per_op", Unit: "us/op", Better: "lower"},
	{Name: "gen.deliver_p99_run_ms", Unit: "ms", Better: "lower"},
	{Name: "gen.join_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "gen.join_snapshot_frac", Unit: "ratio", Better: "higher"},
	{Name: "gen.trace_overhead_frac", Unit: "ratio", Better: "lower"},
	// traced stage budget: mean of each stage over the chains whose
	// due→apply latency lies in the P40–P60 band; they sum to budget.sum_us
	{Name: "budget.late_us", Unit: "us", Better: "lower"},
	{Name: "budget.edit_us", Unit: "us", Better: "lower"},
	{Name: "budget.submit_us", Unit: "us", Better: "lower"},
	{Name: "budget.relay_us", Unit: "us", Better: "lower"},
	{Name: "budget.deliver_us", Unit: "us", Better: "lower"},
	{Name: "budget.sum_us", Unit: "us", Better: "lower"},
}

// workloadDef is one row of BENCHMARK.json's workloads.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"typing-fanout", "open loop, 4 docs x 8 replicas, 800 actions/s, no log: the keystroke path where engine, hub, wire and causal do nearly all the work"},
	{"typing-durable", "same fleet, seed and rate with every writer on an fsync-batched oplog: isolates internal/oplog on the blocking path"},
	{"bulk-replay", "closed loop, one writer replays a calibrated 100k-op history to 3 readers per round: throughput-bound doctree/ident/core and wire codec"},
	{"late-join", "closed loop, sequential fresh replicas catch up on a 20k-op document: the transport reading history (digest, retained log, replay, snapshot)"},
}

// metricSet is the values of one pass, keyed by catalogue name.
type metricSet map[string]float64
