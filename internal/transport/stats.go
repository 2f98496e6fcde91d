package transport

// HubStats is a point-in-time aggregate of every counter a Hub exposes,
// shaped for machine export: cmd/treedoc-serve and cmd/treedoc-load
// publish it as an expvar (JSON over /debug/vars), and the load harness
// snapshots it before/after chaos events to assert envelopes ("forwards
// went to zero after heal"). All
// counters are cumulative since hub start; rates are the consumer's job.
type HubStats struct {
	// Clients is the number of currently connected conns (clients of every
	// document plus inbound mesh conns).
	Clients int
	// Docs is the number of documents with a live relay group.
	Docs int
	// RingEpoch is the live sharding ring's epoch (0 when unsharded).
	RingEpoch uint64
	// Relays counts frames fanned out, one per receiving client; Drops the
	// frames discarded because a client queue was full; Unrouted the frames
	// that named a document with no attached clients (envelopes that failed
	// to parse included) and bare data frames, each of which also cost its
	// sender the connection. All three are summed over every document.
	Relays, Drops, Unrouted uint64
	// Forwards counts frames wrapped in the hub-to-hub envelope and sent to
	// a document's owner shard on behalf of locally attached clients.
	Forwards uint64
	// HandoffsOut and HandoffsIn are the live-resharding counters:
	// documents handed to a new owner, and Begins accepted.
	HandoffsOut, HandoffsIn uint64
	// Always 0: digests are no longer batched; benchmark/layers.go reads them.
	SyncBatchFrames, SyncBatchEntries uint64
	// ReplayRoutes and ReplayFallbacks are the directed-answer counters:
	// anti-entropy answers (kindReplay) delivered to their addressed
	// requester alone instead of the group, and those delivered by group
	// broadcast because the requester was unknown or dead.
	ReplayRoutes, ReplayFallbacks uint64
	// PerDoc is Hub.DocStats: per-document clients/relays/drops.
	PerDoc map[string]DocStats
}

// Stats collects a consistent-enough snapshot of the hub's counters. The
// atomic counters are each read once; the per-document map is taken under
// the hub lock. Safe to call at any frequency — it allocates only the
// PerDoc map.
func (h *Hub) Stats() HubStats {
	s := HubStats{
		RingEpoch:       h.RingEpoch(),
		Relays:          h.relays.Load(),
		Drops:           h.drops.Load(),
		Unrouted:        h.unrouted.Load(),
		Forwards:        h.forwards.Load(),
		HandoffsOut:     h.handoffsOut.Load(),
		HandoffsIn:      h.handoffsIn.Load(),
		ReplayRoutes:    h.replayRoutes.Load(),
		ReplayFallbacks: h.replayFallbacks.Load(),
		PerDoc:          h.DocStats(),
	}
	h.mu.Lock()
	s.Clients = len(h.conns)
	s.Docs = len(h.shards)
	h.mu.Unlock()
	return s
}

// EngineStats is a point-in-time aggregate of one engine's counters,
// shaped for machine export the same way as HubStats: cmd/treedoc-serve
// publishes one per archivist document. The digest counters are the
// delta anti-entropy telemetry — a high Suppressed:Sent ratio is the
// healthy idle state, and ReplayOps/ReplayBytes say what digest answers
// actually cost on the wire.
type EngineStats struct {
	// Drops, WireErrs, EncodeErrs, Pruned and Applied are the engine's
	// delivery counters. Drops counts outbound frames discarded because a
	// peer queue was full: anti-entropy repairs the loss, and a steadily
	// climbing count means a peer is persistently slower than the local
	// edit rate. WireErrs counts malformed frames and messages discarded on
	// receive; EncodeErrs outbound frames that did not encode, the first of
	// which latches Engine.Err. Pruned counts wire-valid messages discarded
	// from the causal buffer to bound its undeliverable backlog (see
	// maxPending): load shedding, not corruption — anti-entropy redelivers
	// legitimate messages — so it is counted apart from WireErrs. Applied
	// counts remote operations applied to the replica, live delivery only:
	// a restart's replay from the durable log is not counted.
	Drops, WireErrs, EncodeErrs, Pruned, Applied uint64
	// SnapshotsSent counts catch-up snapshots served to peers, and
	// SnapshotsInstalled those installed into the replica.
	SnapshotsSent, SnapshotsInstalled uint64
	// DigestsSent counts anti-entropy digests sent to peers, and
	// DigestsSuppressed the sync ticks on which a peer's digest was skipped
	// because there was no persistent gap to pull against and the keepalive
	// had not elapsed. A high ratio of suppressed to sent is the healthy
	// state, hot or idle; see docs/ARCHITECTURE.md §13.
	DigestsSent, DigestsSuppressed uint64
	// ReplayOps and ReplayBytes are the retransmission counters: retained
	// operations queued in answer to peers' digests (each op counted once
	// per peer it was queued to), and the frame bytes carrying them.
	ReplayOps, ReplayBytes uint64
	// FrontierDrops counts members dropped from the stability frontier at
	// the cap (docs/ARCHITECTURE.md §6): one that was behind catches up by
	// snapshot, one whose keepalive came slower than compactions rejoins.
	FrontierDrops uint64
	// FlattensApplied, FlattensCommitted and FlattensAborted are the
	// flatten counters: flattens this replica applied, and the proposals
	// it coordinated to a commit or an abort (a janitor round waiting on a
	// silent member aborts at its deadline).
	FlattensApplied, FlattensCommitted, FlattensAborted uint64
}

// Stats collects a snapshot of the engine's counters; each atomic is
// read once and nothing is locked, so it is safe at any frequency.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Drops:              e.drops.Load(),
		WireErrs:           e.wireErrs.Load(),
		EncodeErrs:         e.encodeErrs.Load(),
		Pruned:             e.pruned.Load(),
		Applied:            e.applied.Load(),
		SnapshotsSent:      e.snapsSent.Load(),
		SnapshotsInstalled: e.snapsInstalled.Load(),
		DigestsSent:        e.digestsSent.Load(),
		DigestsSuppressed:  e.digestsSuppressed.Load(),
		ReplayOps:          e.replayOps.Load(),
		ReplayBytes:        e.replayBytes.Load(),
		FrontierDrops:      e.frontierDrops.Load(),
		FlattensApplied:    e.FlattensApplied(),
		FlattensCommitted:  e.flattensCommitted.Load(),
		FlattensAborted:    e.FlattensAborted(),
	}
}
