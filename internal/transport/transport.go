// Package transport is the replication engine: it carries Treedoc
// operations between replicas — over goroutines and sockets in production
// (NewEngine), or stepped one event at a time by a single-threaded driver
// (Stepper; the simulated Cluster runs it over internal/simnet). Both
// drivers run the same actor. The paper's deployment story — "common edit operations execute
// optimistically, with no latency; replicas synchronise only in the
// background" (Section 6) — maps onto three layers here:
//
//   - Engine owns one replica's distribution state (causal delivery buffer,
//     retained message log, outbound batch) behind an actor loop: a single
//     goroutine draining an inbox channel. The replica document itself stays
//     whatever the caller hands in (a Replica, e.g. the public Doc or
//     TextBuffer); the engine applies remote operations to it in causal
//     order, snapshots it, runs its flatten rounds, and stamps local
//     operations for broadcast.
//
//   - Link is the wire: a bidirectional, frame-oriented connection. Two
//     implementations share one binary protocol, whose operations are
//     framed by codec.msg over Op.AppendFields — ChanPair (in-process
//     channel pairs with bounded queues and backpressure, for tests and
//     co-located replicas) and TCPLink (length-prefixed framing over
//     net.Conn).
//
//   - Hub is a relay server (cmd/treedoc-serve): clients connect over TCP,
//     attach to one or more documents (DialDoc / Session — every hub
//     connection is doc-scoped; plain Dial is for direct engine-to-engine
//     links), and every inbound frame is fanned out within its document's
//     relay group only. The hub holds no replica; the causal buffers at
//     the edges deduplicate and order. N hubs can split the document space
//     by consistent hashing (shardmap), with attaches for foreign
//     documents redirected to their owner.
//
// Operation gossip is lossy by design: bounded queues drop frames under
// overload rather than stalling the actor, and a periodic anti-entropy
// exchange (a vector-clock digest, answered from the retained log)
// retransmits whatever a peer is missing, so delivery is eventual even
// across drops, slow consumers, or a peer that connected late.
//
// Concurrency contract: the engine may be fed from any number of
// goroutines, but each replica's local edits must be generated and
// broadcast in order (one writer goroutine per replica, or external
// serialisation), because causal delivery preserves per-site FIFO only if
// the stamps are issued in generation order.
package transport

// Link is a bidirectional frame pipe between two engines (or an engine and
// a hub). Send may block — that is the backpressure path — and must be safe
// for concurrent use; Recv is called from one reader goroutine. Close
// unblocks both directions.
type Link interface {
	// Send transmits one frame. It may block while the peer is slow; it
	// returns an error once the link is closed or broken.
	Send(frame []byte) error
	// Recv returns the next frame, blocking until one arrives. It returns
	// an error once the link is closed or broken.
	Recv() ([]byte, error)
	// Close tears the link down, unblocking pending Send and Recv calls.
	Close() error
}

// ReplayRouter is implemented by links whose far end can route a directed
// kindReplay frame to its addressed requester — a Session link through a
// hub. Engines answer anti-entropy pulls on such links with addressed
// frames, so a hot document's answers cost one delivery each instead of
// one per group member; on a direct engine-to-engine link the peer is the
// only possible requester and answers go unaddressed.
type ReplayRouter interface {
	RoutesReplay() bool
}
