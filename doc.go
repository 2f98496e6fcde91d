// Package treedoc implements Treedoc, the Commutative Replicated Data Type
// (CRDT) for cooperative text editing from Preguiça, Marquès, Shapiro and
// Leția, "A commutative replicated data type for cooperative editing",
// ICDCS 2009.
//
// A Treedoc document is a replicated sequence of atoms (characters, lines
// or paragraphs): a Doc. A TextBuffer is a Doc whose atoms are runes, with
// the rune-offset splices and reads a text editor calls. Each replica edits locally with no latency and no locks;
// edits become operations that are broadcast and replayed at other
// replicas. Because every pair of concurrent operations commutes, replicas
// that deliver operations in happened-before order converge automatically,
// with no operational transformation and no serialisation.
//
// # Quick start
//
//	alice, _ := treedoc.New(treedoc.WithSite(1))
//	bob, _ := treedoc.New(treedoc.WithSite(2))
//
//	op1, _ := alice.InsertAt(0, "hello")
//	op2, _ := alice.InsertAt(1, "world")
//	_ = bob.Apply(op1) // replay in happened-before order
//	_ = bob.Apply(op2)
//	fmt.Println(bob.ContentString()) // hello\nworld
//
// # Position identifiers
//
// Atoms are identified by paths in an extended binary tree (major nodes
// containing disambiguated mini-nodes). The identifier space is dense —
// between any two identifiers there is always room for a third — so an
// insert never displaces its neighbours. Two disambiguator schemes are
// provided (Section 3.3 of the paper): SDIS (bare site identifiers, deleted
// atoms leave tombstones) and UDIS (counter+site pairs, deleted atoms are
// discarded immediately).
//
// An operation carries its identifier packed (Op.ID is a Packed): an
// opaque value holding exactly the bytes the identifier takes on the wire,
// one bit per tree level and a disambiguator only where concurrency
// happened. Only the library makes one, so each is checked once, where it
// enters. Packed values compare with ==; ID.AppendPath expands one into
// the elements of a Path for callers that want to look inside.
//
// Allocation is balanced by default (Section 4.1): appends grow the tree by
// ⌈log2 h⌉+1 levels at once and subsequent inserts fill the reserved slots,
// avoiding the one-level-per-append degeneration of the naive algorithm.
//
// # Structural compaction
//
// Flatten (Section 4.2) rewrites a quiescent region as a plain atom array
// with zero metadata; in the best case a compacted document is just a
// sequential buffer. Within one process, Doc.Flatten and Doc.EndRevision
// (heuristic flatten of cold subtrees) are available directly; across
// replicas, flatten must never rename a region under a concurrent edit.
// Engine.ProposeFlatten / Engine.ProposeFlattenCold run a flatten round
// over the engine's links (Replica.ProposeFlatten calls the same method
// on a simulated network). The round's intent, its OpFlatten and its abort
// are operations in the causal stream: a replica that applies the intent
// refuses local edits in the region with ErrRegionLocked, acks once its
// earlier edits are stamped, and the author flattens once every member has
// acked and it holds their edits — so a concurrent edit is flattened, not
// lost, and the flatten orders before every post-flatten edit at every
// replica and becomes the snapshot barrier that bounds the durable log.
// Local edits in the region succeed again once the round decides.
//
// # Distribution: one engine, two drivers
//
// Engine (internal/transport) is the replication engine. Each Engine
// wraps a Doc, or a type embedding one such as TextBuffer, behind an
// actor, stamps and batches local edits to peers, applies remote
// operations in causal order, runs a periodic anti-entropy exchange that
// repairs losses from full queues, slow consumers or late joiners, and
// runs flatten rounds. Every engine does all of it: its replica applies
// in batches, snapshots and takes part in rounds, so every member can
// serve catch-up and every flatten round can commit. The actor is a
// step function — events in (local operations, a frame from a link, a
// tick at a time), effects out (frames per link, log appends) — and there
// are two ways to step it.
//
// NewEngine is the production driver: a goroutine runs the actor, reader
// and writer goroutines per link move frames over channels or TCP, and a
// wall-clock ticker paces anti-entropy.
//
// Cluster is the simulation driver: it steps the same engines, one event
// at a time in one goroutine, over a deterministic discrete-event network
// (internal/simnet) with seeded latency, loss, partitions and a virtual
// clock. The frames on the simulated wire are the ones the engine encodes
// for TCP. A seed therefore fixes the whole schedule — faults, crashes
// and restarts included — and a failure replays byte for byte; it is how
// integration tests, the schedule explorer and benchmarks exercise
// distributed behaviour.
//
// Links are in-process channel pairs (NewChanPair) or length-prefixed TCP
// framing: DialDoc attaches to one named document on a cmd/treedoc-serve
// hub (whose archivist can double as a flatten janitor with
// -flatten-every), a Session from DialSession multiplexes several
// documents' links over one connection (see ExampleDialSession), and
// Dial is for direct engine-to-engine links — hubs relay document-scoped
// connections only.
// Convergence under genuine parallelism is exercised by the race and soak
// tests in internal/transport; docs/ARCHITECTURE.md specifies the wire
// and on-disk formats.
//
// # Durability and snapshot catch-up
//
// WithLogDir gives an Engine a durable operation log (internal/oplog): an
// append-only, CRC-checked segment store that every stamped and delivered
// operation is written to, and that NewEngine replays on start. What
// survives a crash: the stored snapshot plus every log record synced
// before the crash — a torn tail record (a crash mid-append) is detected
// by its checksum and truncated on reopen. Under the default FsyncBatch
// policy the log is synced once per flushed batch, before frames fan out,
// so no peer can ever have seen a stamp the log could forget; a restarted
// replica therefore resumes its sequence exactly and re-stamps nothing.
//
// The log is bounded by compaction (WithCompactEvery): the engine
// periodically snapshots the replica — Doc.Snapshot captures state and an
// applied version vector atomically — and truncates, in memory and on
// disk, what the snapshot covers and every peer has acknowledged — the
// delivered clock each peer's digests carry — so live peers a moment
// behind are still served plain operations; a peer silent for a whole
// compaction stops counting. A peer whose digest falls below the
// truncation floor (typically a late joiner) is missing operations that
// no longer exist as messages; it receives the barrier snapshot as a
// chunk sequence plus the retained suffix, installs it if its version
// dominates local state (Doc.InstallSnapshot), and replays only the tail
// — never the full history. WithSnapshotThreshold serves snapshots to
// deeply-behind-but-servable peers too, trading one big transfer for a
// long op replay.
//
// The split is deliberate: the engine is debugged under the simulation
// driver, where failures replay deterministically, and deployed under the
// production driver, where the race detector and soak tests stand guard —
// and it is one engine, so what the first proves holds for the second.
package treedoc
