package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"github.com/treedoc/treedoc/internal/causal"
	"github.com/treedoc/treedoc/internal/core"
	"github.com/treedoc/treedoc/internal/ident"
	"github.com/treedoc/treedoc/internal/vclock"
)

// Frame kinds. A frame is one length-delimited unit on a Link: a kind byte
// followed by the kind-specific body.
const (
	// kindOps carries a batch of causally-stamped operations.
	kindOps = 0x01
	// kindSyncReq is an anti-entropy digest: the sender's delivered clock.
	// The receiver answers with kindOps frames of everything it retains
	// that the clock does not cover — preceded, when the sender is below the
	// receiver's compaction barrier or further behind than the snapshot
	// threshold, by the barrier snapshot as a kindSnapChunk sequence.
	kindSyncReq = 0x02
	// kindSnapReq asks the receiver for a snapshot: the sender has learned
	// (from a digest) that it is too far behind for op replay to be cheap.
	kindSnapReq = 0x03
	// 0x04 was the single-frame snapshot; it stays reserved and is never
	// reused, so a stray old frame decodes as an unknown kind.
	// kindFlatPropose opens a flatten commitment round (the Prepare of the
	// paper's Section 4.2.1 protocol): the coordinator names the subtree to
	// flatten and its delivered clock at proposal time. Every replica that
	// receives it votes. Commitment frames are addressed by site id and
	// relayed unmodified (a hub fans them out like any frame); unlike
	// operations they are not retained for anti-entropy — a lost frame is
	// healed by the protocol's timeout-and-resend paths, not retransmission.
	kindFlatPropose = 0x05
	// kindFlatVote answers a proposal: Yes (the region is unedited beyond
	// the coordinator's clock and now locked) or No. Participants re-send
	// Yes votes while a lock is in doubt; the coordinator answers re-sent
	// votes for decided transactions from its decision memory.
	kindFlatVote = 0x06
	// kindFlatDecision closes a round. Abort releases participant locks and
	// has no other effect ("causing no harm"). A commit decision frame only
	// announces the outcome: the flatten itself travels as a stamped
	// OpFlatten operation in the causal stream, so every replica applies it
	// after everything it causally follows and before everything that
	// causally follows it.
	kindFlatDecision = 0x07
	// kindSnapChunk is snapshot catch-up: one offset-addressed slice of a
	// replica state snapshot, plus the version vector of exactly the
	// operations the whole snapshot stands in for. The receiver reassembles
	// slices in offset order (a small snapshot is a one-chunk sequence),
	// installs the result if it dominates local state and advances its
	// causal clock; the log suffix above the version arrives as ordinary
	// kindOps frames.
	kindSnapChunk = 0x08
	// kindDocFrame is the doc-scoped envelope: a document ID followed by one
	// complete inner frame of any other kind. A sharded hub routes the
	// envelope to the document's relay group only; engines never see it —
	// the Session link wraps on Send and strips on Recv. A hub accepts
	// data frames only inside the envelope; bare data frames are for direct
	// engine-to-engine links.
	kindDocFrame = 0x09
	// kindHello is the attach handshake: a client names the documents it
	// wants to join. The hub answers with one kindHelloResp. A connection
	// is attached to nothing until it says hello.
	kindHello = 0x0a
	// kindHelloResp answers a kindHello per requested document: attached
	// (frames for that doc will now be relayed here) or a redirect naming
	// the hub process that owns the document's shard.
	kindHelloResp = 0x0b
	// kindDetach unsubscribes the connection from the named documents.
	kindDetach = 0x0c
	// kindRingAnnounce carries the shard ring membership: the epoch and the
	// full node list. Hubs exchange it over the peer mesh to propagate a
	// membership change (a receiver adopts any announce with a higher epoch
	// and hands off the documents that moved), and push it to attached
	// clients so their sessions learn the current epoch. The degenerate
	// frame with epoch 0 and no nodes is the ring *query*: the receiver
	// answers with its current ring.
	kindRingAnnounce = 0x0d
	// kindForward is the hub-to-hub envelope: a non-owner hub that serves a
	// document locally (because its clients cannot reach the owner shard)
	// wraps the document's inbound frames in kindForward and sends them to
	// the owner over the peer mesh. The owner relays the inner frame into
	// its relay group exactly as if a directly attached client had sent it.
	// A frame received as kindForward is never re-forwarded, so two hubs
	// with disagreeing rings cannot loop a frame between them.
	kindForward = 0x0e
	// kindHandoffBegin opens an online document handoff: the old owner
	// tells the new owner (by the announced ring epoch) that the document's
	// state is about to stream. The receiver prepares a consumer (e.g.
	// starts an archivist replica) before acknowledging nothing — the
	// stream itself is self-describing.
	kindHandoffBegin = 0x0f
	// kindHandoffState carries one slice of a migrating document's state: a
	// complete inner frame (kindSnapChunk or kindOps — the same machinery
	// as snapshot catch-up) scoped to the document being handed off. The
	// receiving hub relays the inner frame into the document's local relay
	// group, where the new archivist (and any already-attached client)
	// consumes it through the ordinary catch-up paths.
	kindHandoffState = 0x10
	// kindHandoffDone closes a handoff: the state streamed completely and
	// the old owner is about to re-point its clients.
	kindHandoffDone = 0x11
	// kindSyncBatch carries one anti-entropy digest per document — a
	// count-prefixed list of (doc, site, clock) entries — so a Session or
	// mesh peer sends one frame per link per sync tick instead of one
	// enveloped kindSyncReq per attached document. A hub splits the batch
	// into per-document relay groups and answers through the existing
	// per-doc path; engines never see the batch form. A batch may carry a
	// trailing forwarded flag: it already crossed the hub-to-hub mesh and
	// must only be relayed locally, mirroring kindForward's loop freedom.
	kindSyncBatch = 0x12
	// kindReplay is a directed anti-entropy answer: the requester's site id
	// followed by one complete answer frame (kindOps or kindSnapChunk).
	// Through a relay hub a broadcast answer costs the whole group one copy
	// each — quadratic on a hot document, where hundreds of concurrent
	// answers each fan to hundreds of members — so an engine whose link
	// routes replays (see ReplayRouter) addresses each answer instead. The
	// hub delivers the frame to the one connection that last sent a pull
	// for that site (learned as pulls pass through the relay); an unknown
	// or dead target falls back to the broadcast the wrapper replaced. An
	// engine receiving the wrapper processes the inner frame regardless of
	// the addressed site: replay is idempotent, so a stale route can only
	// heal the wrong replica, never corrupt one.
	kindReplay = 0x13
)

// Wire limits. Frames above the per-kind size limit are refused on read
// and write so a corrupt or hostile length prefix cannot force an
// arbitrary allocation.
const (
	// MaxFrameSize bounds one frame's encoded size for every kind except
	// kindSnapChunk.
	MaxFrameSize = 1 << 20
	// MaxSnapFrameSize bounds a kindSnapChunk frame: snapshots carry whole
	// documents, so they get a higher ceiling than op gossip.
	MaxSnapFrameSize = 1 << 26
	// maxBatch bounds the operations in one kindOps frame.
	maxBatch = 1 << 16
	// maxClockEntries bounds the sites in one encoded vector clock.
	maxClockEntries = 1 << 12
	// MaxSnapshotSize bounds a chunked snapshot's total reassembled size:
	// the ceiling a hostile kindSnapChunk total can make a receiver
	// allocate towards.
	MaxSnapshotSize = 1 << 31
	// MaxDocIDLen bounds a document identifier on the wire.
	MaxDocIDLen = 128
	// maxHelloDocs bounds the documents in one hello/hello-resp/detach
	// frame.
	maxHelloDocs = 1 << 10
	// docFrameOverhead is the worst-case envelope header: kind byte, doc ID
	// length uvarint, doc ID bytes. An envelope (kindDocFrame, kindForward,
	// kindHandoffState) may wrap any inner kind, so its ceiling is the
	// largest inner ceiling plus this overhead.
	docFrameOverhead = 1 + 2 + MaxDocIDLen
	// maxRingNodes bounds the membership in one ring announce frame.
	maxRingNodes = 1 << 10
	// maxSyncBatch bounds the digests in one kindSyncBatch frame — the
	// same ceiling as the documents one connection may attach to.
	maxSyncBatch = maxHelloDocs
	// replayOverhead is the worst-case kindReplay header: kind byte plus the
	// addressed site id uvarint. A replay may wrap any answer kind up to
	// kindSnapChunk, so its ceiling is the snapshot ceiling plus this
	// overhead.
	replayOverhead = 1 + 10
)

// frameSizeLimit returns the size ceiling for a frame of the given kind.
func frameSizeLimit(kind byte) int {
	switch kind {
	case kindSnapChunk:
		return MaxSnapFrameSize
	case kindReplay:
		return MaxSnapFrameSize + replayOverhead
	case kindDocFrame, kindForward, kindHandoffState:
		return MaxSnapFrameSize + replayOverhead + docFrameOverhead
	default:
		return MaxFrameSize
	}
}

// isEnvelopeKind reports whether kind is a doc-scoped envelope; envelopes
// never nest.
func isEnvelopeKind(kind byte) bool {
	return kind == kindDocFrame || kind == kindForward || kind == kindHandoffState
}

// OpsFrame is a decoded kindOps frame.
type OpsFrame struct {
	Msgs []causal.Message // every Payload is a core.Op
}

// SyncReqFrame is a decoded kindSyncReq frame.
type SyncReqFrame struct {
	From  ident.SiteID
	Clock vclock.VC
}

// SnapReqFrame is a decoded kindSnapReq frame: an explicit snapshot
// request carrying the requester's delivered clock.
type SnapReqFrame struct {
	From  ident.SiteID
	Clock vclock.VC
}

// SnapChunkFrame is a decoded kindSnapChunk frame: one offset-addressed
// slice of a replica snapshot. Version is the version vector of the
// operations the whole snapshot contains and identifies the snapshot
// being assembled; Total is its full size.
type SnapChunkFrame struct {
	From    ident.SiteID
	Version vclock.VC
	Total   uint64
	Offset  uint64
	Data    []byte
}

// DocFrame is a decoded kindDocFrame envelope: one complete inner frame
// scoped to document Doc. Inner aliases the envelope's backing array.
type DocFrame struct {
	Doc   string
	Inner []byte
}

// HelloFrame is a decoded kindHello frame: the documents a client asks to
// attach to. Forward asks the hub to serve the documents locally even if
// another shard owns them, relaying their frames over the hub-to-hub mesh
// — the fallback for clients that cannot reach every shard.
type HelloFrame struct {
	Docs    []string
	Forward bool
}

// HelloEntry is one per-document answer inside a kindHelloResp frame: the
// document was attached here, or (Redirect non-empty) is owned by the hub
// process at that address. Epoch is the answering hub's ring epoch, so a
// client chasing redirects can tell a stale ring view from a fresh one
// (zero when the hub has no ring configured). Hubs also send unsolicited
// redirect entries to re-point attached clients when a document is handed
// to a new owner mid-session.
type HelloEntry struct {
	Doc      string
	Redirect string
	Epoch    uint64
}

// RingFrame is a decoded kindRingAnnounce frame: an epoch-versioned ring
// membership, or (Epoch 0, no Nodes) a query for the receiver's ring.
type RingFrame struct {
	Epoch uint64
	Nodes []string
}

// IsQuery reports whether the frame is the ring query form.
func (r *RingFrame) IsQuery() bool { return r.Epoch == 0 && len(r.Nodes) == 0 }

// ForwardFrame is a decoded kindForward frame: one complete inner frame a
// non-owner hub forwards to the owner of Doc. Inner aliases the envelope's
// backing array.
type ForwardFrame struct {
	Doc   string
	Inner []byte
}

// HandoffBeginFrame is a decoded kindHandoffBegin frame: the sender is
// about to stream Doc's state, relocated by the ring at Epoch.
type HandoffBeginFrame struct {
	Doc   string
	Epoch uint64
}

// HandoffStateFrame is a decoded kindHandoffState frame: one inner frame
// of a migrating document's state. Inner aliases the envelope's backing
// array.
type HandoffStateFrame struct {
	Doc   string
	Inner []byte
}

// HandoffDoneFrame is a decoded kindHandoffDone frame: Doc's state
// streamed completely under the ring at Epoch.
type HandoffDoneFrame struct {
	Doc   string
	Epoch uint64
}

// HelloRespFrame is a decoded kindHelloResp frame.
type HelloRespFrame struct {
	Entries []HelloEntry
}

// ReplayFrame is a decoded kindReplay frame: a directed anti-entropy
// answer addressed to site To. Inner aliases the frame's backing array.
type ReplayFrame struct {
	To    ident.SiteID
	Inner []byte
}

// SyncBatchEntry is one document's anti-entropy digest inside a
// kindSyncBatch frame: site From's delivered clock for document Doc.
type SyncBatchEntry struct {
	Doc   string
	From  ident.SiteID
	Clock vclock.VC
}

// SyncBatchFrame is a decoded kindSyncBatch frame: the digests a link
// accumulated across its attached documents this sync tick. Forwarded
// marks a batch that already crossed the hub-to-hub mesh; the receiver
// splits it into local relay groups only and never forwards it onward.
type SyncBatchFrame struct {
	Entries   []SyncBatchEntry
	Forwarded bool
}

// DetachFrame is a decoded kindDetach frame: the documents a client is
// leaving.
type DetachFrame struct {
	Docs []string
}

// FlatProposeFrame is a decoded kindFlatPropose frame: the coordinator
// From asks every receiver to vote on flattening the subtree at Path, as
// transaction (From, N), given the coordinator's delivered clock Obs.
type FlatProposeFrame struct {
	From ident.SiteID
	N    uint64
	Path ident.Path
	Obs  vclock.VC
}

// FlatVoteFrame is a decoded kindFlatVote frame: participant From's vote
// on transaction (Coord, N). Receivers other than Coord ignore it.
type FlatVoteFrame struct {
	From  ident.SiteID
	Coord ident.SiteID
	N     uint64
	Yes   bool
}

// FlatDecisionFrame is a decoded kindFlatDecision frame: coordinator
// From's decision for transaction (From, N) over the subtree at Path.
// For a commit, Seq is the coordinator's sequence number of the OpFlatten
// that executes it: a participant holding a Yes-vote lock releases it
// once its clock covers (From, Seq) — whether the operation arrived as an
// op frame or was absorbed into an installed snapshot. Zero for aborts.
type FlatDecisionFrame struct {
	From   ident.SiteID
	N      uint64
	Commit bool
	Seq    uint64
	Path   ident.Path
}

// appendVC appends a vector clock in the canonical vclock encoding
// (uvarint entry count, then ascending (site, count) pairs).
func appendVC(dst []byte, vc vclock.VC) []byte {
	return vc.AppendBinary(dst)
}

// decodeVC decodes a vector clock from the front of buf, returning the
// bytes consumed; entry counts are bounded by maxClockEntries.
func decodeVC(buf []byte) (vclock.VC, int, error) {
	vc, n, err := vclock.DecodeBinary(buf, maxClockEntries)
	if err != nil {
		return nil, 0, fmt.Errorf("transport: %w", err)
	}
	return vc, n, nil
}

// appendMsg appends one stamped message — uvarint sender, vector clock,
// op bytes — the unit shared by kindOps frames and oplog record bodies.
func appendMsg(dst []byte, m causal.Message) ([]byte, error) {
	op, ok := m.Payload.(core.Op)
	if !ok {
		return nil, fmt.Errorf("transport: message payload %T is not an op", m.Payload)
	}
	dst = binary.AppendUvarint(dst, uint64(m.From))
	dst = appendVC(dst, m.TS)
	return op.AppendBinary(dst), nil
}

// decodeMsg decodes one stamped message from the front of buf, returning
// the bytes consumed. The message is validated: sender in range, clock
// well-formed, the op's own stamp present.
func decodeMsg(buf []byte) (causal.Message, int, error) {
	from, off := binary.Uvarint(buf)
	if off <= 0 {
		return causal.Message{}, 0, fmt.Errorf("transport: truncated op sender")
	}
	if from == 0 || ident.SiteID(from) > ident.MaxSiteID {
		return causal.Message{}, 0, fmt.Errorf("transport: op sender %d out of range", from)
	}
	vc, k, err := decodeVC(buf[off:])
	if err != nil {
		return causal.Message{}, 0, err
	}
	off += k
	if vc.Get(ident.SiteID(from)) == 0 {
		return causal.Message{}, 0, fmt.Errorf("transport: op from s%d without own stamp", from)
	}
	op, k, err := core.DecodeOp(buf[off:])
	if err != nil {
		return causal.Message{}, 0, err
	}
	off += k
	return causal.Message{From: ident.SiteID(from), TS: vc, Payload: op}, off, nil
}

// EncodeMsgBody encodes one stamped message as a durable log record body
// (the same layout as a message inside a kindOps frame).
func EncodeMsgBody(m causal.Message) ([]byte, error) {
	return appendMsg(nil, m)
}

// DecodeMsgBody decodes a durable log record body, requiring full
// consumption.
func DecodeMsgBody(body []byte) (causal.Message, error) {
	m, n, err := decodeMsg(body)
	if err != nil {
		return causal.Message{}, err
	}
	if n != len(body) {
		return causal.Message{}, fmt.Errorf("transport: %d trailing bytes after log record", len(body)-n)
	}
	return m, nil
}

// frameScratch pools the growth buffer EncodeOps serialises into: frame
// sizes are unknown up front, so building in reused scratch and copying
// once keeps the append-growth garbage off the batch fanout and
// anti-entropy retransmission paths. Pooled buffers never escape — callers
// receive an exact-size copy.
var frameScratch = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// EncodeOps encodes a batch of stamped operations as one kindOps frame.
// Every message payload must be a core.Op. The returned frame is exactly
// sized and owned by the caller.
//
//treedoc:noalloc
func EncodeOps(msgs []causal.Message) ([]byte, error) {
	if len(msgs) > maxBatch {
		return nil, fmt.Errorf("transport: batch of %d ops exceeds limit", len(msgs))
	}
	bp := frameScratch.Get().(*[]byte)
	buf := append((*bp)[:0], kindOps)
	buf = binary.AppendUvarint(buf, uint64(len(msgs)))
	var err error
	for _, m := range msgs {
		if buf, err = appendMsg(buf, m); err != nil {
			*bp = buf[:0]
			frameScratch.Put(bp)
			return nil, err
		}
	}
	n := len(buf)
	var out []byte
	if n <= MaxFrameSize {
		out = make([]byte, n) //treedoc:escape the exact-size frame copy is the function's one allocation
		copy(out, buf)
	}
	*bp = buf[:0]
	frameScratch.Put(bp)
	if out == nil {
		return nil, fmt.Errorf("transport: ops frame of %d bytes exceeds limit", n)
	}
	return out, nil
}

// IsLiveOps reports whether frame is a bare kindOps frame: live operation
// gossip, the one traffic class built to be lost. (A digest answer on a
// replay-routing link travels inside kindReplay, so it does not match.)
func IsLiveOps(frame []byte) bool { return len(frame) > 0 && frame[0] == kindOps }

// IsDigest reports whether frame is a kindSyncReq digest — the only frame
// an idle engine keeps sending (its keepalive), and so the one a driver
// must not mistake for work in progress.
func IsDigest(frame []byte) bool { return len(frame) > 0 && frame[0] == kindSyncReq }

// EncodeSyncReq encodes an anti-entropy digest frame.
func EncodeSyncReq(from ident.SiteID, clock vclock.VC) ([]byte, error) {
	buf := []byte{kindSyncReq}
	buf = binary.AppendUvarint(buf, uint64(from))
	buf = appendVC(buf, clock)
	if len(buf) > MaxFrameSize {
		return nil, fmt.Errorf("transport: sync frame of %d bytes exceeds limit", len(buf))
	}
	return buf, nil
}

// EncodeSnapReq encodes an explicit snapshot request frame.
func EncodeSnapReq(from ident.SiteID, clock vclock.VC) ([]byte, error) {
	buf := []byte{kindSnapReq}
	buf = binary.AppendUvarint(buf, uint64(from))
	buf = appendVC(buf, clock)
	if len(buf) > MaxFrameSize {
		return nil, fmt.Errorf("transport: snap request frame of %d bytes exceeds limit", len(buf))
	}
	return buf, nil
}

// EncodeReplay wraps one complete answer frame with the requester's site
// id, addressing it through replay-routing relays (see kindReplay).
func EncodeReplay(to ident.SiteID, inner []byte) ([]byte, error) {
	if len(inner) == 0 {
		return nil, fmt.Errorf("transport: empty replay inner frame")
	}
	if isEnvelopeKind(inner[0]) || inner[0] == kindReplay {
		return nil, fmt.Errorf("transport: replay cannot wrap frame kind %#x", inner[0])
	}
	if len(inner) > frameSizeLimit(inner[0]) {
		return nil, fmt.Errorf("transport: replay inner frame of %d bytes exceeds limit", len(inner))
	}
	buf := make([]byte, 0, replayOverhead+len(inner))
	buf = append(buf, kindReplay)
	buf = binary.AppendUvarint(buf, uint64(to))
	return append(buf, inner...), nil
}

// SplitReplay splits a directed answer into the addressed site and the
// inner frame (aliasing the frame's backing array), validating the inner
// kind and size without decoding its body — the hub routes replays
// without paying for a decode.
func SplitReplay(frame []byte) (ident.SiteID, []byte, error) {
	if len(frame) == 0 || frame[0] != kindReplay {
		return 0, nil, fmt.Errorf("transport: not a replay frame")
	}
	if len(frame) > frameSizeLimit(kindReplay) {
		return 0, nil, fmt.Errorf("transport: replay frame of %d bytes exceeds limit", len(frame))
	}
	to, off := binary.Uvarint(frame[1:])
	if off <= 0 {
		return 0, nil, fmt.Errorf("transport: truncated replay site id")
	}
	if to == 0 || ident.SiteID(to) > ident.MaxSiteID {
		return 0, nil, fmt.Errorf("transport: replay site id %d out of range", to)
	}
	inner := frame[1+off:]
	if len(inner) == 0 {
		return 0, nil, fmt.Errorf("transport: empty replay inner frame")
	}
	if isEnvelopeKind(inner[0]) || inner[0] == kindReplay {
		return 0, nil, fmt.Errorf("transport: replay cannot wrap frame kind %#x", inner[0])
	}
	if len(inner) > frameSizeLimit(inner[0]) {
		return 0, nil, fmt.Errorf("transport: replay inner frame of %d bytes exceeds limit", len(inner))
	}
	return ident.SiteID(to), inner, nil
}

// peekDigestFrom reads the requesting site id off the front of a
// kindSyncReq or kindSnapReq frame without decoding its clock: the hub
// learns site→connection reverse routes from passing pulls, and must do
// so at relay cost, not decode cost.
func peekDigestFrom(frame []byte) (ident.SiteID, bool) {
	if len(frame) < 2 {
		return 0, false
	}
	v, n := binary.Uvarint(frame[1:])
	if n <= 0 {
		return 0, false
	}
	return ident.SiteID(v), true
}

// EncodeSnapChunk encodes one slice of a snapshot. The caller slices data
// so every frame stays within MaxSnapFrameSize.
func EncodeSnapChunk(from ident.SiteID, version vclock.VC, total, offset uint64, data []byte) ([]byte, error) {
	buf := []byte{kindSnapChunk}
	buf = binary.AppendUvarint(buf, uint64(from))
	buf = appendVC(buf, version)
	buf = binary.AppendUvarint(buf, total)
	buf = binary.AppendUvarint(buf, offset)
	buf = append(buf, data...)
	if len(buf) > MaxSnapFrameSize {
		return nil, fmt.Errorf("transport: snap chunk frame of %d bytes exceeds limit", len(buf))
	}
	return buf, nil
}

// ValidateDocID checks a document identifier: 1..MaxDocIDLen bytes of
// [A-Za-z0-9._-], not starting with a dot. The character set is strict
// because doc IDs double as oplog subdirectory names on archivist hubs.
func ValidateDocID(doc string) error {
	if doc == "" {
		return fmt.Errorf("transport: empty doc id")
	}
	if len(doc) > MaxDocIDLen {
		return fmt.Errorf("transport: doc id of %d bytes exceeds limit", len(doc))
	}
	if doc[0] == '.' {
		return fmt.Errorf("transport: doc id %q starts with a dot", doc)
	}
	for i := 0; i < len(doc); i++ {
		c := doc[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("transport: doc id %q has invalid byte %#x", doc, c)
		}
	}
	return nil
}

// appendDoc appends one length-prefixed document ID.
func appendDoc(dst []byte, doc string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(doc)))
	return append(dst, doc...)
}

// decodeDoc decodes and validates one length-prefixed document ID from the
// front of buf, returning the bytes consumed.
func decodeDoc(buf []byte) (string, int, error) {
	n, off := binary.Uvarint(buf)
	if off <= 0 {
		return "", 0, fmt.Errorf("transport: truncated doc id length")
	}
	if n > MaxDocIDLen {
		return "", 0, fmt.Errorf("transport: doc id of %d bytes exceeds limit", n)
	}
	if n > uint64(len(buf)-off) {
		return "", 0, fmt.Errorf("transport: truncated doc id")
	}
	doc := string(buf[off : off+int(n)])
	if err := ValidateDocID(doc); err != nil {
		return "", 0, err
	}
	return doc, off + int(n), nil
}

// encodeEnvelope wraps one complete inner frame in a doc-scoped envelope
// of the given kind (kindDocFrame, kindForward or kindHandoffState).
func encodeEnvelope(kind byte, doc string, inner []byte) ([]byte, error) {
	if err := ValidateDocID(doc); err != nil {
		return nil, err
	}
	if len(inner) == 0 {
		return nil, fmt.Errorf("transport: empty inner frame")
	}
	if isEnvelopeKind(inner[0]) {
		return nil, fmt.Errorf("transport: nested doc envelope")
	}
	if len(inner) > frameSizeLimit(inner[0]) {
		return nil, fmt.Errorf("transport: inner frame of %d bytes exceeds limit", len(inner))
	}
	buf := make([]byte, 0, 1+2+len(doc)+len(inner))
	buf = append(buf, kind)
	buf = appendDoc(buf, doc)
	return append(buf, inner...), nil
}

// splitEnvelope splits a doc-scoped envelope of the given kind into the
// document ID and the inner frame (aliasing the envelope's backing array),
// validating the inner frame's kind and size but not decoding its body —
// the relay path routes envelopes without paying for a full decode.
func splitEnvelope(kind byte, frame []byte) (string, []byte, error) {
	if len(frame) == 0 || frame[0] != kind {
		return "", nil, fmt.Errorf("transport: not a doc envelope of kind %#x", kind)
	}
	if len(frame) > frameSizeLimit(kind) {
		return "", nil, fmt.Errorf("transport: doc envelope of %d bytes exceeds limit", len(frame))
	}
	doc, off, err := decodeDoc(frame[1:])
	if err != nil {
		return "", nil, err
	}
	inner := frame[1+off:]
	if len(inner) == 0 {
		return "", nil, fmt.Errorf("transport: empty inner frame")
	}
	if isEnvelopeKind(inner[0]) {
		return "", nil, fmt.Errorf("transport: nested doc envelope")
	}
	if len(inner) > frameSizeLimit(inner[0]) {
		return "", nil, fmt.Errorf("transport: inner frame of %d bytes exceeds limit", len(inner))
	}
	return doc, inner, nil
}

// EncodeDocFrame wraps one complete inner frame in the doc-scoped
// envelope.
func EncodeDocFrame(doc string, inner []byte) ([]byte, error) {
	return encodeEnvelope(kindDocFrame, doc, inner)
}

// SplitDocFrame splits a doc-scoped envelope into the document ID and the
// inner frame (aliasing the envelope's backing array).
func SplitDocFrame(frame []byte) (string, []byte, error) {
	return splitEnvelope(kindDocFrame, frame)
}

// EncodeForward wraps one complete inner frame in the hub-to-hub
// forwarding envelope.
func EncodeForward(doc string, inner []byte) ([]byte, error) {
	return encodeEnvelope(kindForward, doc, inner)
}

// EncodeHandoffState wraps one inner frame of a migrating document's
// state stream.
func EncodeHandoffState(doc string, inner []byte) ([]byte, error) {
	return encodeEnvelope(kindHandoffState, doc, inner)
}

// EncodeRingAnnounce encodes a ring membership announce — or, with epoch 0
// and no nodes, the ring query.
func EncodeRingAnnounce(epoch uint64, nodes []string) ([]byte, error) {
	if len(nodes) > maxRingNodes {
		return nil, fmt.Errorf("transport: ring of %d nodes exceeds limit", len(nodes))
	}
	buf := []byte{kindRingAnnounce}
	buf = binary.AppendUvarint(buf, epoch)
	buf = binary.AppendUvarint(buf, uint64(len(nodes)))
	for _, n := range nodes {
		if n == "" || len(n) > maxRedirectAddr {
			return nil, fmt.Errorf("transport: ring node address of %d bytes out of range", len(n))
		}
		buf = binary.AppendUvarint(buf, uint64(len(n)))
		buf = append(buf, n...)
	}
	if len(buf) > MaxFrameSize {
		return nil, fmt.Errorf("transport: ring frame of %d bytes exceeds limit", len(buf))
	}
	return buf, nil
}

// encodeHandoffMark encodes a kindHandoffBegin or kindHandoffDone frame.
func encodeHandoffMark(kind byte, doc string, epoch uint64) ([]byte, error) {
	if err := ValidateDocID(doc); err != nil {
		return nil, err
	}
	buf := []byte{kind}
	buf = appendDoc(buf, doc)
	buf = binary.AppendUvarint(buf, epoch)
	return buf, nil
}

// EncodeHandoffBegin encodes the frame opening a document handoff.
func EncodeHandoffBegin(doc string, epoch uint64) ([]byte, error) {
	return encodeHandoffMark(kindHandoffBegin, doc, epoch)
}

// EncodeHandoffDone encodes the frame closing a document handoff.
func EncodeHandoffDone(doc string, epoch uint64) ([]byte, error) {
	return encodeHandoffMark(kindHandoffDone, doc, epoch)
}

// helloFlagForward asks the hub to serve foreign documents locally via
// the hub-to-hub mesh instead of redirecting.
const helloFlagForward = 0x01

// encodeDocList encodes a kindHello or kindDetach frame body.
func encodeDocList(kind byte, docs []string) ([]byte, error) {
	if len(docs) == 0 || len(docs) > maxHelloDocs {
		return nil, fmt.Errorf("transport: %d docs out of range", len(docs))
	}
	buf := []byte{kind}
	buf = binary.AppendUvarint(buf, uint64(len(docs)))
	for _, d := range docs {
		if err := ValidateDocID(d); err != nil {
			return nil, err
		}
		buf = appendDoc(buf, d)
	}
	if len(buf) > MaxFrameSize {
		return nil, fmt.Errorf("transport: hello frame of %d bytes exceeds limit", len(buf))
	}
	return buf, nil
}

// EncodeHello encodes the attach handshake frame.
func EncodeHello(docs []string) ([]byte, error) {
	return encodeDocList(kindHello, docs)
}

// EncodeHelloForward encodes the attach handshake with the forward flag:
// the hub should attach the documents locally even when another shard owns
// them, relaying their frames over the hub-to-hub mesh.
func EncodeHelloForward(docs []string) ([]byte, error) {
	buf, err := encodeDocList(kindHello, docs)
	if err != nil {
		return nil, err
	}
	return append(buf, helloFlagForward), nil
}

// EncodeDetach encodes the unsubscribe frame.
func EncodeDetach(docs []string) ([]byte, error) {
	return encodeDocList(kindDetach, docs)
}

// syncBatchFlagForwarded marks a batched digest frame that already
// crossed the hub-to-hub mesh: the receiver answers it locally only.
const syncBatchFlagForwarded = 0x01

// EncodeSyncBatch encodes one batched multi-document digest frame. As
// with the hello flags byte, a zero flags value is encoded by omission so
// the encoding stays canonical.
func EncodeSyncBatch(entries []SyncBatchEntry, forwarded bool) ([]byte, error) {
	if len(entries) == 0 || len(entries) > maxSyncBatch {
		return nil, fmt.Errorf("transport: %d batched digests out of range", len(entries))
	}
	buf := []byte{kindSyncBatch}
	buf = binary.AppendUvarint(buf, uint64(len(entries)))
	for _, e := range entries {
		if err := ValidateDocID(e.Doc); err != nil {
			return nil, err
		}
		if e.From == 0 || e.From > ident.MaxSiteID {
			return nil, fmt.Errorf("transport: batched digest sender %d out of range", e.From)
		}
		buf = appendDoc(buf, e.Doc)
		buf = binary.AppendUvarint(buf, uint64(e.From))
		buf = appendVC(buf, e.Clock)
	}
	if forwarded {
		buf = append(buf, syncBatchFlagForwarded)
	}
	if len(buf) > MaxFrameSize {
		return nil, fmt.Errorf("transport: sync batch frame of %d bytes exceeds limit", len(buf))
	}
	return buf, nil
}

// maxRedirectAddr bounds a redirect address in a hello response.
const maxRedirectAddr = 256

// EncodeHelloResp encodes the hub's answer to an attach handshake. Each
// entry carries the answering hub's ring epoch.
func EncodeHelloResp(entries []HelloEntry) ([]byte, error) {
	if len(entries) == 0 || len(entries) > maxHelloDocs {
		return nil, fmt.Errorf("transport: %d hello entries out of range", len(entries))
	}
	buf := []byte{kindHelloResp}
	buf = binary.AppendUvarint(buf, uint64(len(entries)))
	for _, e := range entries {
		if err := ValidateDocID(e.Doc); err != nil {
			return nil, err
		}
		if len(e.Redirect) > maxRedirectAddr {
			return nil, fmt.Errorf("transport: redirect address of %d bytes exceeds limit", len(e.Redirect))
		}
		buf = appendDoc(buf, e.Doc)
		buf = binary.AppendUvarint(buf, uint64(len(e.Redirect)))
		buf = append(buf, e.Redirect...)
		buf = binary.AppendUvarint(buf, e.Epoch)
	}
	if len(buf) > MaxFrameSize {
		return nil, fmt.Errorf("transport: hello resp frame of %d bytes exceeds limit", len(buf))
	}
	return buf, nil
}

// decodeDocList decodes a kindHello or kindDetach body. A hello body may
// carry one trailing flags byte (zero flags are encoded by omission); a
// detach body may not.
func decodeDocList(body []byte, allowFlags bool) ([]string, byte, error) {
	n, off := binary.Uvarint(body)
	if off <= 0 {
		return nil, 0, fmt.Errorf("transport: truncated doc count")
	}
	if n == 0 || n > maxHelloDocs {
		return nil, 0, fmt.Errorf("transport: doc count %d out of range", n)
	}
	if n > uint64(len(body)-off) {
		return nil, 0, fmt.Errorf("transport: doc count %d exceeds frame", n)
	}
	docs := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		doc, k, err := decodeDoc(body[off:])
		if err != nil {
			return nil, 0, err
		}
		off += k
		docs = append(docs, doc)
	}
	var flags byte
	if allowFlags && off == len(body)-1 {
		flags = body[off]
		if flags == 0 || flags > helloFlagForward {
			// Zero flags must be encoded by omission, and unknown bits are
			// refused — both keep the encoding canonical for the fuzzer.
			return nil, 0, fmt.Errorf("transport: hello flags byte %#x out of range", flags)
		}
		off++
	}
	if off != len(body) {
		return nil, 0, fmt.Errorf("transport: %d trailing bytes after doc list", len(body)-off)
	}
	return docs, flags, nil
}

// EncodeFlatPropose encodes a flatten commitment proposal frame.
func EncodeFlatPropose(from ident.SiteID, n uint64, path ident.Path, obs vclock.VC) ([]byte, error) {
	buf := []byte{kindFlatPropose}
	buf = binary.AppendUvarint(buf, uint64(from))
	buf = binary.AppendUvarint(buf, n)
	buf = path.AppendBinary(buf)
	buf = appendVC(buf, obs)
	if len(buf) > MaxFrameSize {
		return nil, fmt.Errorf("transport: flatten propose frame of %d bytes exceeds limit", len(buf))
	}
	return buf, nil
}

// EncodeFlatVote encodes a flatten commitment vote frame.
func EncodeFlatVote(from, coord ident.SiteID, n uint64, yes bool) ([]byte, error) {
	buf := []byte{kindFlatVote}
	buf = binary.AppendUvarint(buf, uint64(from))
	buf = binary.AppendUvarint(buf, uint64(coord))
	buf = binary.AppendUvarint(buf, n)
	var y byte
	if yes {
		y = 1
	}
	buf = append(buf, y)
	return buf, nil
}

// EncodeFlatDecision encodes a flatten commitment decision frame. For
// commits, seq is the stamped OpFlatten's sequence number; zero for
// aborts.
func EncodeFlatDecision(from ident.SiteID, n uint64, commit bool, seq uint64, path ident.Path) ([]byte, error) {
	buf := []byte{kindFlatDecision}
	buf = binary.AppendUvarint(buf, uint64(from))
	buf = binary.AppendUvarint(buf, n)
	var c byte
	if commit {
		c = 1
	}
	buf = append(buf, c)
	buf = binary.AppendUvarint(buf, seq)
	buf = path.AppendBinary(buf)
	if len(buf) > MaxFrameSize {
		return nil, fmt.Errorf("transport: flatten decision frame of %d bytes exceeds limit", len(buf))
	}
	return buf, nil
}

// decodeSite decodes one uvarint site id from the front of buf, validating
// its range.
func decodeSite(buf []byte, what string) (ident.SiteID, int, error) {
	s, off := binary.Uvarint(buf)
	if off <= 0 {
		return 0, 0, fmt.Errorf("transport: truncated %s", what)
	}
	if s == 0 || ident.SiteID(s) > ident.MaxSiteID {
		return 0, 0, fmt.Errorf("transport: %s %d out of range", what, s)
	}
	return ident.SiteID(s), off, nil
}

// decodeStructuralPath decodes and validates a flatten subtree path.
func decodeStructuralPath(buf []byte) (ident.Path, int, error) {
	path, n, err := ident.DecodePath(buf)
	if err != nil {
		return nil, 0, fmt.Errorf("transport: flatten path: %w", err)
	}
	if err := path.ValidateStructural(); err != nil {
		return nil, 0, fmt.Errorf("transport: flatten path: %w", err)
	}
	return path, n, nil
}

// DecodeFrame parses one frame into its typed form (*OpsFrame,
// *SyncReqFrame, *SnapReqFrame, *SnapChunkFrame, the flatten commitment
// frames, the doc envelope/handshake frames, or the ring membership and
// handoff frames). Every decoded message is validated: sites in range,
// clocks well-formed, the op's own stamp present.
func DecodeFrame(frame []byte) (any, error) {
	if len(frame) == 0 {
		return nil, fmt.Errorf("transport: empty frame")
	}
	if len(frame) > frameSizeLimit(frame[0]) {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", len(frame))
	}
	body := frame[1:]
	switch frame[0] {
	case kindOps:
		n, off := binary.Uvarint(body)
		if off <= 0 {
			return nil, fmt.Errorf("transport: truncated ops count")
		}
		if n > maxBatch {
			return nil, fmt.Errorf("transport: ops frame with %d ops exceeds limit", n)
		}
		// Each op costs several bytes on the wire, so a count beyond the
		// remaining body is corrupt; checking before make() keeps a tiny
		// hostile frame from forcing a large allocation.
		if n > uint64(len(body)-off) {
			return nil, fmt.Errorf("transport: ops count %d exceeds frame", n)
		}
		f := &OpsFrame{Msgs: make([]causal.Message, 0, n)}
		for i := uint64(0); i < n; i++ {
			m, k, err := decodeMsg(body[off:])
			if err != nil {
				return nil, err
			}
			off += k
			f.Msgs = append(f.Msgs, m)
		}
		if off != len(body) {
			return nil, fmt.Errorf("transport: %d trailing bytes after ops frame", len(body)-off)
		}
		return f, nil
	case kindSyncReq, kindSnapReq:
		from, off := binary.Uvarint(body)
		if off <= 0 {
			return nil, fmt.Errorf("transport: truncated sync sender")
		}
		if from == 0 || ident.SiteID(from) > ident.MaxSiteID {
			return nil, fmt.Errorf("transport: sync sender %d out of range", from)
		}
		vc, k, err := decodeVC(body[off:])
		if err != nil {
			return nil, err
		}
		off += k
		if off != len(body) {
			return nil, fmt.Errorf("transport: %d trailing bytes after sync frame", len(body)-off)
		}
		if frame[0] == kindSnapReq {
			return &SnapReqFrame{From: ident.SiteID(from), Clock: vc}, nil
		}
		return &SyncReqFrame{From: ident.SiteID(from), Clock: vc}, nil
	case kindSnapChunk:
		from, off, err := decodeSite(body, "snap chunk sender")
		if err != nil {
			return nil, err
		}
		vc, k, err := decodeVC(body[off:])
		if err != nil {
			return nil, err
		}
		off += k
		if len(vc) == 0 {
			return nil, fmt.Errorf("transport: snap chunk frame with empty version")
		}
		total, k := binary.Uvarint(body[off:])
		if k <= 0 {
			return nil, fmt.Errorf("transport: truncated snap chunk total")
		}
		off += k
		offset, k := binary.Uvarint(body[off:])
		if k <= 0 {
			return nil, fmt.Errorf("transport: truncated snap chunk offset")
		}
		off += k
		data := body[off:]
		if total == 0 || total > MaxSnapshotSize {
			return nil, fmt.Errorf("transport: snap chunk total %d out of range", total)
		}
		if offset > total || uint64(len(data)) > total-offset {
			return nil, fmt.Errorf("transport: snap chunk [%d,+%d) outside total %d", offset, len(data), total)
		}
		return &SnapChunkFrame{From: from, Version: vc, Total: total, Offset: offset, Data: data}, nil
	case kindFlatPropose:
		from, off, err := decodeSite(body, "flatten proposer")
		if err != nil {
			return nil, err
		}
		n, k := binary.Uvarint(body[off:])
		if k <= 0 {
			return nil, fmt.Errorf("transport: truncated flatten tx number")
		}
		off += k
		path, k, err := decodeStructuralPath(body[off:])
		if err != nil {
			return nil, err
		}
		off += k
		obs, k, err := decodeVC(body[off:])
		if err != nil {
			return nil, err
		}
		off += k
		if off != len(body) {
			return nil, fmt.Errorf("transport: %d trailing bytes after flatten propose frame", len(body)-off)
		}
		return &FlatProposeFrame{From: from, N: n, Path: path, Obs: obs}, nil
	case kindFlatVote:
		from, off, err := decodeSite(body, "flatten voter")
		if err != nil {
			return nil, err
		}
		coord, k, err := decodeSite(body[off:], "flatten coordinator")
		if err != nil {
			return nil, err
		}
		off += k
		n, k := binary.Uvarint(body[off:])
		if k <= 0 {
			return nil, fmt.Errorf("transport: truncated flatten tx number")
		}
		off += k
		if off+1 != len(body) {
			return nil, fmt.Errorf("transport: flatten vote frame length %d", len(body))
		}
		if body[off] > 1 {
			return nil, fmt.Errorf("transport: flatten vote byte %d", body[off])
		}
		return &FlatVoteFrame{From: from, Coord: coord, N: n, Yes: body[off] == 1}, nil
	case kindFlatDecision:
		from, off, err := decodeSite(body, "flatten coordinator")
		if err != nil {
			return nil, err
		}
		n, k := binary.Uvarint(body[off:])
		if k <= 0 {
			return nil, fmt.Errorf("transport: truncated flatten tx number")
		}
		off += k
		if off >= len(body) {
			return nil, fmt.Errorf("transport: truncated flatten decision")
		}
		if body[off] > 1 {
			return nil, fmt.Errorf("transport: flatten decision byte %d", body[off])
		}
		commit := body[off] == 1
		off++
		seq, k := binary.Uvarint(body[off:])
		if k <= 0 {
			return nil, fmt.Errorf("transport: truncated flatten decision seq")
		}
		off += k
		path, k, err := decodeStructuralPath(body[off:])
		if err != nil {
			return nil, err
		}
		off += k
		if off != len(body) {
			return nil, fmt.Errorf("transport: %d trailing bytes after flatten decision frame", len(body)-off)
		}
		return &FlatDecisionFrame{From: from, N: n, Commit: commit, Seq: seq, Path: path}, nil
	case kindDocFrame:
		doc, inner, err := SplitDocFrame(frame)
		if err != nil {
			return nil, err
		}
		return &DocFrame{Doc: doc, Inner: inner}, nil
	case kindForward:
		doc, inner, err := splitEnvelope(kindForward, frame)
		if err != nil {
			return nil, err
		}
		return &ForwardFrame{Doc: doc, Inner: inner}, nil
	case kindHandoffState:
		doc, inner, err := splitEnvelope(kindHandoffState, frame)
		if err != nil {
			return nil, err
		}
		return &HandoffStateFrame{Doc: doc, Inner: inner}, nil
	case kindRingAnnounce:
		epoch, off := binary.Uvarint(body)
		if off <= 0 {
			return nil, fmt.Errorf("transport: truncated ring epoch")
		}
		n, k := binary.Uvarint(body[off:])
		if k <= 0 {
			return nil, fmt.Errorf("transport: truncated ring node count")
		}
		off += k
		if n > maxRingNodes {
			return nil, fmt.Errorf("transport: ring node count %d exceeds limit", n)
		}
		if n > uint64(len(body)-off) {
			return nil, fmt.Errorf("transport: ring node count %d exceeds frame", n)
		}
		var nodes []string
		for i := uint64(0); i < n; i++ {
			alen, k := binary.Uvarint(body[off:])
			if k <= 0 {
				return nil, fmt.Errorf("transport: truncated ring node length")
			}
			off += k
			if alen == 0 || alen > maxRedirectAddr {
				return nil, fmt.Errorf("transport: ring node address of %d bytes out of range", alen)
			}
			if alen > uint64(len(body)-off) {
				return nil, fmt.Errorf("transport: truncated ring node address")
			}
			nodes = append(nodes, string(body[off:off+int(alen)]))
			off += int(alen)
		}
		if off != len(body) {
			return nil, fmt.Errorf("transport: %d trailing bytes after ring frame", len(body)-off)
		}
		return &RingFrame{Epoch: epoch, Nodes: nodes}, nil
	case kindHandoffBegin, kindHandoffDone:
		doc, off, err := decodeDoc(body)
		if err != nil {
			return nil, err
		}
		epoch, k := binary.Uvarint(body[off:])
		if k <= 0 {
			return nil, fmt.Errorf("transport: truncated handoff epoch")
		}
		off += k
		if off != len(body) {
			return nil, fmt.Errorf("transport: %d trailing bytes after handoff frame", len(body)-off)
		}
		if frame[0] == kindHandoffBegin {
			return &HandoffBeginFrame{Doc: doc, Epoch: epoch}, nil
		}
		return &HandoffDoneFrame{Doc: doc, Epoch: epoch}, nil
	case kindSyncBatch:
		n, off := binary.Uvarint(body)
		if off <= 0 {
			return nil, fmt.Errorf("transport: truncated sync batch count")
		}
		if n == 0 || n > maxSyncBatch {
			return nil, fmt.Errorf("transport: sync batch count %d out of range", n)
		}
		if n > uint64(len(body)-off) {
			return nil, fmt.Errorf("transport: sync batch count %d exceeds frame", n)
		}
		entries := make([]SyncBatchEntry, 0, n)
		for i := uint64(0); i < n; i++ {
			doc, k, err := decodeDoc(body[off:])
			if err != nil {
				return nil, err
			}
			off += k
			from, k, err := decodeSite(body[off:], "batched digest sender")
			if err != nil {
				return nil, err
			}
			off += k
			vc, k, err := decodeVC(body[off:])
			if err != nil {
				return nil, err
			}
			off += k
			entries = append(entries, SyncBatchEntry{Doc: doc, From: from, Clock: vc})
		}
		forwarded := false
		if off == len(body)-1 {
			if body[off] != syncBatchFlagForwarded {
				// Zero flags must be encoded by omission, and unknown bits
				// are refused — both keep the encoding canonical for the
				// fuzzer.
				return nil, fmt.Errorf("transport: sync batch flags byte %#x out of range", body[off])
			}
			forwarded = true
			off++
		}
		if off != len(body) {
			return nil, fmt.Errorf("transport: %d trailing bytes after sync batch frame", len(body)-off)
		}
		return &SyncBatchFrame{Entries: entries, Forwarded: forwarded}, nil
	case kindReplay:
		to, inner, err := SplitReplay(frame)
		if err != nil {
			return nil, err
		}
		return &ReplayFrame{To: to, Inner: inner}, nil
	case kindHello:
		docs, flags, err := decodeDocList(body, true)
		if err != nil {
			return nil, err
		}
		return &HelloFrame{Docs: docs, Forward: flags&helloFlagForward != 0}, nil
	case kindDetach:
		docs, _, err := decodeDocList(body, false)
		if err != nil {
			return nil, err
		}
		return &DetachFrame{Docs: docs}, nil
	case kindHelloResp:
		n, off := binary.Uvarint(body)
		if off <= 0 {
			return nil, fmt.Errorf("transport: truncated hello entry count")
		}
		if n == 0 || n > maxHelloDocs {
			return nil, fmt.Errorf("transport: hello entry count %d out of range", n)
		}
		if n > uint64(len(body)-off) {
			return nil, fmt.Errorf("transport: hello entry count %d exceeds frame", n)
		}
		entries := make([]HelloEntry, 0, n)
		for i := uint64(0); i < n; i++ {
			doc, k, err := decodeDoc(body[off:])
			if err != nil {
				return nil, err
			}
			off += k
			alen, k := binary.Uvarint(body[off:])
			if k <= 0 {
				return nil, fmt.Errorf("transport: truncated redirect length")
			}
			off += k
			if alen > maxRedirectAddr {
				return nil, fmt.Errorf("transport: redirect address of %d bytes exceeds limit", alen)
			}
			if alen > uint64(len(body)-off) {
				return nil, fmt.Errorf("transport: truncated redirect address")
			}
			redirect := string(body[off : off+int(alen)])
			off += int(alen)
			epoch, k := binary.Uvarint(body[off:])
			if k <= 0 {
				return nil, fmt.Errorf("transport: truncated hello entry epoch")
			}
			off += k
			entries = append(entries, HelloEntry{Doc: doc, Redirect: redirect, Epoch: epoch})
		}
		if off != len(body) {
			return nil, fmt.Errorf("transport: %d trailing bytes after hello resp", len(body)-off)
		}
		return &HelloRespFrame{Entries: entries}, nil
	default:
		return nil, fmt.Errorf("transport: unknown frame kind %#x", frame[0])
	}
}

// WriteFrame writes one length-prefixed frame: a 4-byte big-endian length
// followed by the frame bytes. Callers serialise concurrent writers.
func WriteFrame(w io.Writer, frame []byte) error {
	if len(frame) == 0 || len(frame) > frameSizeLimit(frame[0]) {
		return fmt.Errorf("transport: frame size %d out of range", len(frame))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(frame)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(frame)
	return err
}

// ReadFrame reads one length-prefixed frame, refusing oversized lengths
// before allocating. Lengths above MaxFrameSize are tolerated only for
// kinds with a higher ceiling (kindSnapChunk, and the envelopes that may
// wrap it; checked against the kind byte before the body is read), so a
// hostile length prefix cannot force a large allocation by claiming any
// other kind.
func ReadFrame(r *bufio.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > MaxSnapFrameSize+docFrameOverhead {
		return nil, fmt.Errorf("transport: frame length %d out of range", n)
	}
	if n > MaxFrameSize {
		kind, err := r.ReadByte()
		if err != nil {
			return nil, err
		}
		if int(n) > frameSizeLimit(kind) {
			return nil, fmt.Errorf("transport: frame length %d out of range for kind %#x", n, kind)
		}
		frame := make([]byte, n)
		frame[0] = kind
		if _, err := io.ReadFull(r, frame[1:]); err != nil {
			return nil, err
		}
		return frame, nil
	}
	frame := make([]byte, n)
	if _, err := io.ReadFull(r, frame); err != nil {
		return nil, err
	}
	return frame, nil
}
