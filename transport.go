package treedoc

import (
	"time"

	"github.com/treedoc/treedoc/internal/transport"
)

// This file re-exports the replication engine (internal/transport) under
// its production driver: an Engine replicates a live Doc — a TextBuffer is
// a Doc whose atoms are runes — across goroutines and sockets (Cluster steps the same engine over a
// simulated network instead): local edits are stamped and batched to
// peers, remote operations are applied in causal order, and a periodic
// anti-entropy exchange repairs anything lost to full queues, slow
// consumers, or late joiners.
//
// Typical wiring, one replica per process, all relayed by a hub
// (cmd/treedoc-serve):
//
//	buf, _ := treedoc.NewTextBuffer(treedoc.WithSite(site))
//	eng, _ := treedoc.NewEngine(site, buf)
//	link, _ := treedoc.DialDoc("hub-host:9707", "notes")
//	eng.Connect(link)
//
//	ops, _ := buf.Splice(off, del, text) // local edit, no latency
//	_ = eng.Broadcast(ops...)            // background replication
//
//	_ = eng.ProposeFlatten()             // compact via a flatten round
//
// A hub takes document-scoped connections only (DialDoc, or DialSession
// for several documents over shared connections); Dial is for direct
// engine-to-engine links, and an engine Dial-ed at a hub is disconnected.
//
// Each replica's local edits must be generated and broadcast in order
// (one writer goroutine per replica, or a lock around edit+Broadcast).
//
// Engine.ProposeFlatten and Engine.ProposeFlattenCold run a flatten round
// (Section 4.2.1) over the live links: the author's intent, its OpFlatten
// and its abort are operations in the causal stream, so every replica that
// applies the intent locks the region, acks, and applies the decision in
// causal order. A concurrent edit is flattened with the region; the
// OpFlatten orders before all post-flatten edits everywhere, lands in the
// durable log, and becomes the snapshot barrier late joiners catch up
// from. While a round is pending the region rejects local edits with
// ErrRegionLocked — retry after the round decides.

// Engine replicates one Doc (or TextBuffer) over real links. See
// internal/transport for the full contract.
type Engine = transport.Engine

// EngineOption configures an Engine.
type EngineOption = transport.Option

// FsyncMode selects when the durable log (WithLogDir) reaches stable
// storage: FsyncBatch (default) or FsyncAlways.
type FsyncMode = transport.FsyncMode

// Durable log fsync policies.
const (
	// FsyncBatch syncs once per flushed batch, before frames reach peers:
	// no peer can ever have seen a stamp the log could forget.
	FsyncBatch = transport.FsyncBatch
	// FsyncAlways syncs every append.
	FsyncAlways = transport.FsyncAlways
)

// Link is a frame pipe between two engines (or an engine and a hub).
type Link = transport.Link

// Doc satisfies the engine's replica contract, and so does TextBuffer,
// which embeds it: engines wrapping them apply remote runs in batches, compact their logs, serve
// snapshot catch-up, and take part in flatten rounds.
var (
	_ transport.Replica = (*Doc)(nil)
	_ transport.Replica = (*TextBuffer)(nil)
)

// Hub is the relay server behind cmd/treedoc-serve, embeddable for tests
// and in-process deployments. It relays within per-document groups: see
// DialDoc, Session and the kindHello handshake in docs/ARCHITECTURE.md.
type Hub = transport.Hub

// HubOption configures a Hub.
type HubOption = transport.HubOption

// HubDocStats is one document's relay counters on a Hub (see
// Hub.DocStats).
type HubDocStats = transport.DocStats

// HubStats is a point-in-time aggregate of every Hub counter, shaped for
// machine export (see Hub.Stats): cmd/treedoc-serve serves it as an
// expvar under -stats, and cmd/treedoc-load snapshots it into
// load-report.json.
type HubStats = transport.HubStats

// EngineStats is a point-in-time aggregate of one Engine's counters,
// including the delta anti-entropy telemetry (digests sent/suppressed,
// replay ops/bytes); cmd/treedoc-serve publishes one per archivist
// document under the "treedoc.engines" expvar (see Engine.Stats).
type EngineStats = transport.EngineStats

// Session multiplexes several document-scoped links over shared hub
// connections, following shard redirects transparently.
type Session = transport.Session

// NewEngine creates and starts a replication engine for site wrapping
// replica: a *Doc or a type embedding one, such as a *TextBuffer. Every
// engine applies in batches, compacts and serves snapshots, and takes part
// in flatten rounds, so the replica must do all three.
func NewEngine(site SiteID, replica transport.Replica, opts ...EngineOption) (*Engine, error) {
	return transport.NewEngine(site, replica, opts...)
}

// NewChanPair creates a connected pair of in-process links with the given
// queue depth per direction: the zero-copy transport for replicas sharing
// a process.
func NewChanPair(depth int) (Link, Link) {
	a, b := transport.ChanPair(depth)
	return a, b
}

// Dial connects to a listening peer engine over TCP and returns the
// framed link, for direct engine-to-engine replication. It is not how to
// reach a hub: hubs relay document-scoped frames only and close a
// connection that sends anything else — use DialDoc or DialSession.
func Dial(addr string) (Link, error) {
	return transport.Dial(addr)
}

// DialDoc connects to a hub and attaches to one named document: the
// returned link carries only that document's frames, and a shard redirect
// (the addressed hub does not own the document) is followed
// transparently.
func DialDoc(addr, doc string) (Link, error) {
	return transport.DialDoc(addr, doc)
}

// DialSession prepares a multi-document session against the hub at addr:
// each Attach returns an independent per-document link sharing the
// underlying connections.
func DialSession(addr string) *Session {
	return transport.DialSession(addr)
}

// ListenHub starts a relay hub on addr (see cmd/treedoc-serve for the
// standalone binary).
func ListenHub(addr string, opts ...HubOption) (*Hub, error) {
	return transport.ListenHub(addr, opts...)
}

// WithSyncInterval sets the anti-entropy period (default 200ms).
func WithSyncInterval(d time.Duration) EngineOption { return transport.WithSyncInterval(d) }

// WithQueueDepth sets the per-peer outbound queue depth (default 256);
// frames to a saturated peer are dropped and healed by anti-entropy.
func WithQueueDepth(n int) EngineOption { return transport.WithQueueDepth(n) }

// WithLogDir enables the durable operation log in dir: every stamped and
// delivered operation is appended to an append-only, CRC-checked segment
// store, and NewEngine replays the directory on start, so a restarted
// replica resumes exactly where it crashed and re-stamps nothing. The
// replica handed to NewEngine must be fresh; the engine rebuilds it from
// the stored snapshot and log suffix.
func WithLogDir(dir string) EngineOption { return transport.WithLogDir(dir) }

// WithFsync sets the durable log's fsync policy (default FsyncBatch).
func WithFsync(mode FsyncMode) EngineOption { return transport.WithFsync(mode) }

// WithCompactEvery sets how many retained operations accumulate before
// the engine snapshots the replica and truncates everything the snapshot
// covers — in memory always, on disk when WithLogDir is set (default
// 16384; 0 disables). This is what bounds a long-lived document's log.
func WithCompactEvery(n int) EngineOption { return transport.WithCompactEvery(n) }

// WithSnapshotThreshold sets how many operations behind a peer's
// anti-entropy digest must be before the engine serves a snapshot plus
// log suffix instead of a full op replay (default 8192; 0 disables
// threshold snapshots — peers below the compaction barrier still get
// them, since the ops below the barrier no longer exist).
func WithSnapshotThreshold(n int) EngineOption { return transport.WithSnapshotThreshold(n) }

// WithFlattenTimeout sets the flatten round's deadline: a round the engine
// authored that is not stable after this long is aborted. Default 2s (or
// five sync intervals when WithSyncInterval is longer).
func WithFlattenTimeout(d time.Duration) EngineOption { return transport.WithFlattenTimeout(d) }

// WithHubQueueDepth sets a hub's per-client outbound queue depth.
func WithHubQueueDepth(n int) HubOption { return transport.WithHubQueueDepth(n) }

// WithHubLogger directs a hub's connection logging and slow-client drop
// warnings.
func WithHubLogger(logf func(format string, args ...any)) HubOption {
	return transport.WithHubLogger(logf)
}

// WithHubShards makes the hub one of N cooperating processes splitting
// the document space by consistent hashing: peers is the full ring
// membership (advertised addresses, identical on every process), self
// this process's own advertised address. Attaches for documents owned by
// another peer are redirected there; DialDoc and Session follow
// redirects transparently. The ring is epoch-versioned and can be changed
// live — see Hub.ConfigureRing, Hub.Resign and WithHubOwnership for
// online resharding with document handoff.
func WithHubShards(self string, peers []string) HubOption {
	return transport.WithHubShards(self, peers)
}

// WithHubSelf records the hub's own advertised address without
// configuring a ring: the hub owns every document until a ring is
// adopted, but can already answer ring queries and be named by a joining
// hub.
func WithHubSelf(self string) HubOption {
	return transport.WithHubSelf(self)
}

// WithHubOwnership installs a callback invoked when the hub acquires a
// document (a handoff's Begin arrived, or an adopted ring made it the
// owner of a document it relays) or releases one (its clients were
// re-pointed to the new owner) through a live reshard — the archivist
// lifecycle hook behind cmd/treedoc-serve's dynamic ring membership.
func WithHubOwnership(fn func(doc string, epoch uint64, acquired bool)) HubOption {
	return transport.WithHubOwnership(fn)
}
