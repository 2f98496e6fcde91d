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
// followed by the kind-specific body. Each kind is one row of frameTable
// and one frame type below; the type's wire method is the only statement
// of its body layout.
const (
	// 0x01 was kindOps with one byte per identifier level, 0x03 the
	// explicit snapshot request, 0x04 the single-frame snapshot, 0x05–0x07
	// the flatten commitment's propose, vote and decision frames, 0x10 the
	// handoff-state envelope, 0x11 the handoff-done marker, and 0x12 and
	// 0x15 the multi-document digest batch (with and without a flags
	// byte); all stay reserved and are never reused, so a stray old frame
	// decodes as an unknown kind.
	kindSyncReq      = 0x02
	kindSnapChunk    = 0x08
	kindDocFrame     = 0x09
	kindHello        = 0x0a
	kindHelloResp    = 0x0b
	kindDetach       = 0x0c
	kindRingAnnounce = 0x0d
	kindForward      = 0x0e
	kindHandoffBegin = 0x0f
	kindReplay       = 0x13
	kindOps          = 0x14
	kindFlatAck      = 0x16
)

// Wire limits. Frames above the per-kind size limit are refused on read
// and write so a corrupt or hostile length prefix cannot force an
// arbitrary allocation.
const (
	// MaxFrameSize bounds one frame's encoded size for every kind that
	// cannot carry a snapshot.
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
	// length uvarint, doc ID bytes.
	docFrameOverhead = 1 + 2 + MaxDocIDLen
	// maxRingNodes bounds the membership in one ring announce frame.
	maxRingNodes = 1 << 10
	// maxRedirectAddr bounds a hub address: a hello-resp redirect or a
	// ring node.
	maxRedirectAddr = 256
	// replayOverhead is the worst-case kindReplay header: kind byte plus the
	// addressed site id uvarint.
	replayOverhead = 1 + 10
	// maxReplayFrame bounds a kindReplay frame: it may wrap any answer kind
	// up to kindSnapChunk, so its ceiling is the snapshot ceiling plus its
	// own header.
	maxReplayFrame = MaxSnapFrameSize + replayOverhead
	// maxEnvelopeFrame bounds the doc-scoped envelopes: they may wrap any
	// inner kind, a replay included, so their ceiling is the largest inner
	// ceiling plus the envelope header.
	maxEnvelopeFrame = maxReplayFrame + docFrameOverhead
)

// frame is one kind's typed form. wire states the body layout once, for
// both directions: run over an encoding codec it appends the fields, over
// a decoding codec it consumes and validates them.
type frame interface {
	wire(c *codec)
}

// frameRow is what the package knows about one kind besides its layout.
type frameRow struct {
	name     string       // the kind constant's name, as docs/ARCHITECTURE.md §4 lists it
	limit    int          // size ceiling of one encoded frame, kind byte included
	envelope bool         // doc-scoped envelope: wraps one inner frame, never nests
	new      func() frame // a zero value for DecodeFrame to fill; nil marks an unknown kind
}

// frameTable is indexed by the kind byte. DecodeFrame, frameSizeLimit,
// isEnvelopeKind and ReadFrame's global bound all read it, so a kind has
// one ceiling everywhere and cannot be encodable without being decodable.
var frameTable = [256]frameRow{
	kindOps:          {"kindOps", MaxFrameSize, false, func() frame { return new(OpsFrame) }},
	kindSyncReq:      {"kindSyncReq", MaxFrameSize, false, func() frame { return new(SyncReqFrame) }},
	kindFlatAck:      {"kindFlatAck", MaxFrameSize, false, func() frame { return new(FlatAckFrame) }},
	kindSnapChunk:    {"kindSnapChunk", MaxSnapFrameSize, false, func() frame { return new(SnapChunkFrame) }},
	kindHello:        {"kindHello", MaxFrameSize, false, func() frame { return new(HelloFrame) }},
	kindHelloResp:    {"kindHelloResp", MaxFrameSize, false, func() frame { return new(HelloRespFrame) }},
	kindDetach:       {"kindDetach", MaxFrameSize, false, func() frame { return new(DetachFrame) }},
	kindRingAnnounce: {"kindRingAnnounce", MaxFrameSize, false, func() frame { return new(RingFrame) }},
	kindHandoffBegin: {"kindHandoffBegin", MaxFrameSize, false, func() frame { return new(HandoffBeginFrame) }},
	kindReplay:       {"kindReplay", maxReplayFrame, false, func() frame { return new(ReplayFrame) }},
	kindDocFrame:     {"kindDocFrame", maxEnvelopeFrame, true, func() frame { return new(DocFrame) }},
	kindForward:      {"kindForward", maxEnvelopeFrame, true, func() frame { return new(ForwardFrame) }},
}

// maxFrameLimit is the largest per-kind ceiling: the bound ReadFrame
// applies to a length prefix before it knows the kind. Taking it from the
// table means a reader accepts every length a writer may produce.
var maxFrameLimit = func() int {
	m := MaxFrameSize
	for i := range frameTable {
		m = max(m, frameTable[i].limit)
	}
	return m
}()

// frameSizeLimit returns the size ceiling for a frame of the given kind.
// An unknown kind gets the small ceiling: it is read whole so the receiver
// can count and refuse it, never at snapshot size.
func frameSizeLimit(kind byte) int {
	return max(frameTable[kind].limit, MaxFrameSize)
}

// isEnvelopeKind reports whether kind is a doc-scoped envelope; envelopes
// never nest.
func isEnvelopeKind(kind byte) bool { return frameTable[kind].envelope }

// OpsFrame is a kindOps frame: a batch of causally-stamped operations.
type OpsFrame struct {
	Msgs []causal.Message // every Payload is a core.Op
}

func (f *OpsFrame) wire(c *codec) {
	n := c.count(len(f.Msgs), 0, maxBatch, "ops count")
	if c.dec {
		f.Msgs = make([]causal.Message, n)
	}
	var prev *causal.Message // nil for the first message, which is absolute
	for i := range f.Msgs[:n] {
		c.msg(&f.Msgs[i], prev)
		prev = &f.Msgs[i]
	}
}

// SyncReqFrame is a kindSyncReq frame, the anti-entropy digest and the one
// pull: the sender's delivered clock, asking for the state since it. The
// receiver alone decides the answer's shape: kindOps frames of everything
// it retains that the clock does not cover — preceded, when the sender is
// below the receiver's truncation floor or further behind than the
// receiver's snapshot threshold, by the barrier snapshot as a kindSnapChunk
// sequence.
type SyncReqFrame struct {
	From  ident.SiteID
	Clock vclock.VC
}

func (f *SyncReqFrame) wire(c *codec) { c.digest(&f.From, &f.Clock) }

// digest is kindSyncReq's layout. With a nil clock it stops after the
// sender: the hub learns site→connection reverse routes from passing pulls
// (peekDigestFrom), and must do so at relay cost, not decode cost.
func (c *codec) digest(from *ident.SiteID, clock *vclock.VC) {
	c.site(from, "sync sender")
	if clock != nil {
		c.vc(clock)
	}
}

// SnapChunkFrame is a kindSnapChunk frame, snapshot catch-up: one
// offset-addressed slice of a replica state snapshot. Version is the
// version vector of exactly the operations the whole snapshot stands in
// for and identifies the snapshot being assembled; Total is its full size.
// The receiver reassembles slices in offset order (a small snapshot is a
// one-chunk sequence), installs the result if it dominates local state and
// advances its causal clock; the log suffix above the version arrives as
// ordinary kindOps frames. Data aliases the frame's backing array; the
// sender slices it so every frame stays within MaxSnapFrameSize.
type SnapChunkFrame struct {
	From    ident.SiteID
	Version vclock.VC
	Total   uint64
	Offset  uint64
	Data    []byte
}

func (f *SnapChunkFrame) wire(c *codec) {
	c.site(&f.From, "snap chunk sender")
	c.vc(&f.Version)
	c.uvarint(&f.Total, "snap chunk total")
	c.uvarint(&f.Offset, "snap chunk offset")
	c.rest(&f.Data)
	switch {
	case len(f.Version) == 0:
		c.failf("snap chunk frame with empty version")
	case f.Total == 0 || f.Total > MaxSnapshotSize:
		c.failf("snap chunk total %d out of range", f.Total)
	case f.Offset > f.Total || uint64(len(f.Data)) > f.Total-f.Offset:
		c.failf("snap chunk [%d,+%d) outside total %d", f.Offset, len(f.Data), f.Total)
	}
}

// FlatAckFrame is a kindFlatAck frame: member From has applied the flatten
// intent Author stamped as its operation Intent, holds no local edit it has
// not stamped, and has delivered the operations Clock covers — its own and
// every other site's, including sites Author has never heard of. Only
// Author consumes it; the author's round is stable once it has every
// member's ack and its own delivered clock dominates each one's Clock.
// Members re-send it each tick while the intent is pending, so a lost ack
// costs a tick.
type FlatAckFrame struct {
	From   ident.SiteID
	Author ident.SiteID
	Intent uint64
	Clock  vclock.VC
}

func (f *FlatAckFrame) wire(c *codec) {
	c.site(&f.From, "flatten acker")
	c.site(&f.Author, "flatten author")
	c.uvarint(&f.Intent, "flatten intent seq")
	c.vc(&f.Clock)
}

// DocFrame is a kindDocFrame frame, the doc-scoped envelope: a document ID
// followed by one complete inner frame of any other kind. A sharded hub
// routes the envelope to the document's relay group only; engines never
// see it — the Session link wraps on Send and strips on Recv. A hub
// accepts data frames only inside the envelope; bare data frames are for
// direct engine-to-engine links. Inner aliases the envelope's backing
// array.
type DocFrame struct {
	Doc   string
	Inner []byte
}

func (f *DocFrame) wire(c *codec) { c.envelope(&f.Doc, &f.Inner) }

// ForwardFrame is a kindForward frame, the hub-to-hub envelope. A
// non-owner hub that serves Doc locally (because its clients cannot reach
// the owner shard) wraps the document's inbound frames in it and sends
// them to the owner over the peer mesh. The receiver relays the inner
// frame into its local relay group exactly as if a directly attached
// client had sent it. A frame received as kindForward is never
// re-forwarded, so two hubs with disagreeing rings cannot loop a frame
// between them. Inner aliases the envelope's backing array.
type ForwardFrame struct {
	Doc   string
	Inner []byte
}

func (f *ForwardFrame) wire(c *codec) { c.envelope(&f.Doc, &f.Inner) }

// envelope is the layout the two doc-scoped envelopes share: the document
// ID, then one complete inner frame that is not itself an envelope.
func (c *codec) envelope(doc *string, inner *[]byte) {
	c.doc(doc)
	c.inner(inner)
}

// ReplayFrame is a kindReplay frame, a directed anti-entropy answer: the
// requester's site id To followed by one complete answer frame (kindOps or
// kindSnapChunk). Through a relay hub a broadcast answer costs the whole
// group one copy each — quadratic on a hot document, where hundreds of
// concurrent answers each fan to hundreds of members — so an engine whose
// link routes replays (see ReplayRouter) addresses each answer instead.
// The hub delivers the frame to the one connection that last sent a pull
// for that site (learned as pulls pass through the relay); an unknown or
// dead target falls back to the broadcast the wrapper replaced. An engine
// receiving the wrapper processes the inner frame regardless of the
// addressed site: replay is idempotent, so a stale route can only heal the
// wrong replica, never corrupt one. Inner aliases the frame's backing
// array.
type ReplayFrame struct {
	To    ident.SiteID
	Inner []byte
}

func (f *ReplayFrame) wire(c *codec) { c.replay(&f.To, &f.Inner) }

// replay is the kindReplay layout: the addressed site, then one complete
// inner frame that is neither an envelope nor another replay.
func (c *codec) replay(to *ident.SiteID, inner *[]byte) {
	c.site(to, "replay site id")
	c.inner(inner)
	if c.err == nil && (*inner)[0] == kindReplay {
		c.failf("replay cannot wrap a replay")
	}
}

// HelloFrame is a kindHello frame, the attach handshake: a client names
// the documents it wants to join, and the hub answers with one
// kindHelloResp. A connection is attached to nothing until it says hello.
// Forward asks the hub to serve the documents locally even if another
// shard owns them, relaying their frames over the hub-to-hub mesh — the
// fallback for clients that cannot reach every shard.
type HelloFrame struct {
	Docs    []string
	Forward bool
}

func (f *HelloFrame) wire(c *codec) {
	c.docList(&f.Docs)
	c.trailingFlag(&f.Forward, "hello flags")
}

// DetachFrame is a kindDetach frame: it unsubscribes the connection from
// the named documents.
type DetachFrame struct {
	Docs []string
}

func (f *DetachFrame) wire(c *codec) { c.docList(&f.Docs) }

// docList is the count-prefixed document list kindHello and kindDetach
// share.
func (c *codec) docList(docs *[]string) {
	for i := range list(c, docs, 1, maxHelloDocs, "doc count") {
		c.doc(&(*docs)[i])
	}
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

// HelloRespFrame is a kindHelloResp frame: the hub's answer to a
// kindHello, one entry per requested document.
type HelloRespFrame struct {
	Entries []HelloEntry
}

func (f *HelloRespFrame) wire(c *codec) {
	for i := range list(c, &f.Entries, 1, maxHelloDocs, "hello entry count") {
		e := &f.Entries[i]
		c.doc(&e.Doc)
		c.str(&e.Redirect, 0, maxRedirectAddr, "redirect address")
		c.uvarint(&e.Epoch, "hello entry epoch")
	}
}

// RingFrame is a kindRingAnnounce frame: the shard ring membership — the
// epoch and the full node list. Hubs exchange it over the peer mesh to
// propagate a membership change (a receiver adopts any announce with a
// higher epoch and hands off the documents that moved), and push it to
// attached clients so their sessions learn the current epoch. The
// degenerate frame with epoch 0 and no nodes is the ring *query*: the
// receiver answers with its current ring.
type RingFrame struct {
	Epoch uint64
	Nodes []string
}

// IsQuery reports whether the frame is the ring query form.
func (f *RingFrame) IsQuery() bool { return f.Epoch == 0 && len(f.Nodes) == 0 }

func (f *RingFrame) wire(c *codec) {
	c.uvarint(&f.Epoch, "ring epoch")
	for i := range list(c, &f.Nodes, 0, maxRingNodes, "ring node count") {
		c.str(&f.Nodes[i], 1, maxRedirectAddr, "ring node address")
	}
}

// HandoffBeginFrame is a kindHandoffBegin frame: the old owner tells the
// new owner that the ring at Epoch relocated Doc to it. It carries no
// state and is never answered: the receiver starts a consumer (an
// archivist replica), which catches up by digest like any late joiner.
type HandoffBeginFrame struct {
	Doc   string
	Epoch uint64
}

func (f *HandoffBeginFrame) wire(c *codec) { c.handoffMark(&f.Doc, &f.Epoch) }

// handoffMark is kindHandoffBegin's layout.
func (c *codec) handoffMark(doc *string, epoch *uint64) {
	c.doc(doc)
	c.uvarint(epoch, "handoff epoch")
}

// codec is a cursor that runs a frame's layout in one of two directions.
// Encoding (dec false), each field method appends its value to buf;
// decoding, it consumes the value from buf at off. Both directions apply
// the same range and limit checks, so what a sender may encode is exactly
// what a receiver accepts. The first error sticks and turns every later
// field method into a no-op, which is what lets a wire method be a plain
// list of fields. The what arguments are constants that name the field in
// an error; nothing is formatted until a check fails.
type codec struct {
	buf   []byte
	off   int
	dec   bool
	err   error
	elems int // identifier elements, and 2 per elided clock entry, in the messages run so far
}

func (c *codec) failf(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("transport: %s", fmt.Sprintf(format, args...))
	}
}

// uvarint runs one unsigned varint.
func (c *codec) uvarint(v *uint64, what string) {
	switch {
	case c.err != nil:
	case !c.dec:
		c.buf = binary.AppendUvarint(c.buf, *v)
	default:
		u, n := binary.Uvarint(c.buf[c.off:])
		if n <= 0 {
			c.failf("truncated %s", what)
			return
		}
		*v, c.off = u, c.off+n
	}
}

// site runs one uvarint site id in 1..MaxSiteID.
func (c *codec) site(s *ident.SiteID, what string) {
	v := uint64(*s)
	c.uvarint(&v, what)
	if v == 0 || ident.SiteID(v) > ident.MaxSiteID {
		c.failf("%s %d out of range", what, v)
	}
	*s = ident.SiteID(v)
}

// trailingFlag runs an optional flags byte that ends a frame and has one
// bit defined. A zero value is encoded by omission and an explicit zero or
// an unknown bit is refused, so the encoding stays canonical: every
// accepted frame re-encodes to the same bytes.
func (c *codec) trailingFlag(b *bool, what string) {
	switch {
	case c.err != nil:
	case !c.dec && *b:
		c.buf = append(c.buf, 0x01)
	case !c.dec:
	case c.off == len(c.buf)-1 && c.buf[c.off] != 0x01:
		c.failf("%s byte %#x out of range", what, c.buf[c.off])
	case c.off == len(c.buf)-1:
		*b, c.off = true, c.off+1
	default:
		*b = false
	}
}

// vc runs one vector clock in the canonical vclock encoding (uvarint entry
// count, then ascending (site, count) pairs), at most maxClockEntries of
// them.
func (c *codec) vc(v *vclock.VC) {
	switch {
	case c.err != nil:
	case !c.dec:
		start := len(c.buf)
		c.buf = v.AppendBinary(c.buf)
		if n, _ := binary.Uvarint(c.buf[start:]); n > maxClockEntries {
			c.failf("clock with %d entries exceeds limit", n)
		}
	default:
		vc, n, err := vclock.DecodeBinary(c.buf[c.off:], maxClockEntries)
		if err != nil {
			c.err = fmt.Errorf("transport: %w", err)
			return
		}
		*v, c.off = vc, c.off+n
	}
}

// str runs one length-prefixed string of min..max bytes.
func (c *codec) str(s *string, min, max int, what string) {
	n := uint64(len(*s))
	c.uvarint(&n, what)
	switch {
	case c.err != nil:
	case n < uint64(min) || n > uint64(max):
		c.failf("%s of %d bytes out of range", what, n)
	case !c.dec:
		c.buf = append(c.buf, *s...)
	case n > uint64(len(c.buf)-c.off):
		c.failf("truncated %s", what)
	default:
		*s, c.off = string(c.buf[c.off:c.off+int(n)]), c.off+int(n)
	}
}

// doc runs one length-prefixed, validated document ID.
func (c *codec) doc(d *string) {
	c.str(d, 0, MaxDocIDLen, "doc id")
	if c.err == nil {
		c.err = ValidateDocID(*d)
	}
}

// count runs a list's length prefix for a list of have elements and
// returns how many follow (0 once an error has stuck). A decoded count is
// bounded by min..max and by the bytes left — every element costs at least
// one — so checking before the caller's make() keeps a tiny hostile frame
// from forcing a large allocation.
func (c *codec) count(have, min, max int, what string) int {
	n := uint64(have)
	c.uvarint(&n, what)
	switch {
	case c.err != nil:
	case n < uint64(min) || n > uint64(max):
		c.failf("%s %d out of range", what, n)
	case c.dec && n > uint64(len(c.buf)-c.off):
		c.failf("%s %d exceeds frame", what, n)
	default:
		return int(n)
	}
	return 0
}

// list runs the length prefix of *s and returns the elements for the
// caller to run one by one, freshly allocated when decoding.
func list[T any](c *codec, s *[]T, min, max int, what string) []T {
	n := c.count(len(*s), min, max, what)
	if c.dec && n > 0 {
		*s = make([]T, n)
	}
	return (*s)[:n]
}

// rest runs the remainder of the frame as opaque bytes; decoded, they
// alias the frame.
func (c *codec) rest(b *[]byte) {
	switch {
	case c.err != nil:
	case !c.dec:
		c.buf = append(c.buf, *b...)
	default:
		*b, c.off = c.buf[c.off:], len(c.buf)
	}
}

// inner runs the complete frame an envelope or replay wraps, as the rest
// of the outer frame: its kind and size are validated but its body is not
// decoded — the relay path routes wrapped frames without paying for that.
func (c *codec) inner(b *[]byte) {
	c.rest(b)
	switch in := *b; {
	case c.err != nil:
	case len(in) == 0:
		c.failf("empty inner frame")
	case isEnvelopeKind(in[0]):
		c.failf("nested doc envelope")
	case len(in) > frameSizeLimit(in[0]):
		c.failf("inner frame of %d bytes exceeds limit", len(in))
	}
}

// msg runs one stamped message — the op's head byte with its elision bits,
// sender and vector clock unless core.HeadRun, then the op's fields
// (core.Op.AppendFields) — the unit shared by kindOps frames and oplog
// record bodies. prev is the message before it in the frame; a frame's
// first message and a log record have none and are absolute, so any
// sub-slice of a batch encodes to a self-contained frame. The sender must
// hold its own stamp in the clock. One frame has MaxFrameSize units to spend,
// one per identifier element and two per clock entry the decoder clones for
// a run message — the bytes each took spelled out — so a frame can make a
// receiver allocate no more than when it paid for them on the wire.
func (c *codec) msg(m, prev *causal.Message) {
	op, isOp := m.Payload.(core.Op)
	var head uint64
	if !c.dec {
		head = uint64(op.Kind.Head())
		if !isOp || op.Validate() != nil {
			c.failf("message payload %T is not a valid op", m.Payload)
		}
		if prev != nil && prev.From == m.From && m.TS.IsTick(prev.TS, m.From) {
			head |= core.HeadRun
		}
		if op.Site == m.From && op.Seq == m.TS.Get(m.From) {
			head |= core.HeadStamped
		}
	}
	c.uvarint(&head, "op head")
	if head&^(core.HeadKind|core.HeadRun|core.HeadStamped) != 0 || head&core.HeadRun != 0 && prev == nil {
		c.failf("op head %#x", head)
	}
	if head&core.HeadRun == 0 {
		c.site(&m.From, "op sender")
		c.vc(&m.TS)
	} else if c.err == nil {
		if c.elems += 2 * len(prev.TS); c.dec && c.elems <= MaxFrameSize {
			m.From, m.TS = prev.From, prev.TS.Ticked(prev.From)
		}
	}
	seq := m.TS.Get(m.From)
	switch {
	case c.err != nil || c.elems > MaxFrameSize:
	case seq == 0:
		c.failf("op from s%d without own stamp", m.From)
	case c.dec:
		var n int
		if op, n, c.err = core.DecodeFields(core.KindOf(byte(head)), head&core.HeadStamped == 0, c.buf[c.off:]); c.err != nil {
			c.err = fmt.Errorf("transport: %w", c.err)
			return
		}
		if head&core.HeadStamped != 0 {
			op.Site, op.Seq = m.From, seq
		}
		m.Payload, c.off = op, c.off+n
	default:
		c.buf = op.AppendFields(c.buf, head&core.HeadStamped == 0)
	}
	if c.elems += op.ID.Len(); c.elems > MaxFrameSize || op.ID.Len() > ident.MaxPathLen {
		c.failf("identifiers and elided clocks of %d units exceed the frame's budget", c.elems)
	}
}

// finish closes the run: a decoded frame must have been consumed whole, an
// encoded one must fit its kind's ceiling.
func (c *codec) finish() error {
	switch {
	case c.err != nil:
	case c.dec && c.off != len(c.buf):
		c.failf("%d trailing bytes", len(c.buf)-c.off)
	case !c.dec && len(c.buf) > frameSizeLimit(c.buf[0]):
		c.failf("%s frame of %d bytes exceeds limit", frameTable[c.buf[0]].name, len(c.buf))
	}
	return c.err
}

// encoder starts a frame of the given kind in a buffer of capacity size.
func encoder(kind byte, size int) codec {
	return codec{buf: append(make([]byte, 0, size), kind)}
}

// decoder opens frame, which must be non-empty, of the given kind and
// within that kind's ceiling, with the cursor on its body.
func decoder(kind byte, frame []byte) codec {
	c := codec{buf: frame, off: 1, dec: true}
	switch {
	case len(frame) == 0:
		c.failf("empty frame")
	case frame[0] != kind:
		c.failf("frame kind %#x is not %s", frame[0], frameTable[kind].name)
	case len(frame) > frameSizeLimit(kind):
		c.failf("frame of %d bytes exceeds limit", len(frame))
	}
	return c
}

// decoders recycles DecodeFrame's cursor: wire is called through the frame
// interface, so a cursor on the stack would escape — one allocation per
// received frame, per receiving replica.
var decoders = sync.Pool{New: func() any { return new(codec) }}

// DecodeFrame parses one frame into its typed form, a pointer to the frame
// type of its kind (*OpsFrame, *SyncReqFrame, ...). Every decoded field is
// validated: sites in range, clocks well-formed, the op's own stamp
// present.
func DecodeFrame(frame []byte) (any, error) {
	if len(frame) == 0 {
		return nil, fmt.Errorf("transport: empty frame")
	}
	row := &frameTable[frame[0]]
	if row.new == nil {
		return nil, fmt.Errorf("transport: unknown frame kind %#x", frame[0])
	}
	f := row.new()
	c := decoders.Get().(*codec)
	*c = decoder(frame[0], frame)
	f.wire(c)
	err := c.finish()
	*c = codec{} // a pooled cursor must not pin the frame
	decoders.Put(c)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// encodeFrame encodes f, the typed form of the given kind. The paths that
// run per operation or per relayed frame (EncodeOps, encodeEnvelope,
// encodeReplay) run the same layouts over a pre-sized or pooled buffer
// instead.
func encodeFrame(kind byte, f frame) ([]byte, error) {
	c := encoder(kind, 64)
	f.wire(&c)
	return c.bytes()
}

// bytes returns the finished encoding.
func (c *codec) bytes() ([]byte, error) {
	if err := c.finish(); err != nil {
		return nil, err
	}
	return c.buf, nil
}

// EncodeMsgBody encodes one stamped message as a durable log record body
// (the same layout as a message inside a kindOps frame).
func EncodeMsgBody(m causal.Message) ([]byte, error) {
	var c codec
	c.msg(&m, nil)
	if c.err != nil {
		return nil, c.err
	}
	return c.buf, nil
}

// DecodeMsgBody decodes a durable log record body, requiring full
// consumption.
func DecodeMsgBody(body []byte) (causal.Message, error) {
	c := codec{buf: body, dec: true}
	var m causal.Message
	c.msg(&m, nil)
	if err := c.finish(); err != nil {
		return causal.Message{}, err
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
	bp := frameScratch.Get().(*[]byte)
	c := codec{buf: append((*bp)[:0], kindOps)}
	f := OpsFrame{Msgs: msgs}
	f.wire(&c)
	var out []byte
	err := c.finish()
	if err == nil {
		out = make([]byte, len(c.buf)) //treedoc:escape the exact-size frame copy is the function's one allocation
		copy(out, c.buf)
	}
	*bp = c.buf[:0]
	frameScratch.Put(bp)
	return out, err
}

// IsLiveOps reports whether frame is a bare kindOps frame: live operation
// gossip, the one traffic class built to be lost. (A digest answer on a
// replay-routing link travels inside kindReplay, so it does not match.)
func IsLiveOps(frame []byte) bool { return len(frame) > 0 && frame[0] == kindOps }

// IsRecurring reports whether frame is one an engine repeats while nothing
// changes — a digest (its keepalive) or a flatten ack (re-sent each tick
// while the intent is pending) — and so one a driver must not mistake for
// work in progress.
func IsRecurring(frame []byte) bool {
	return len(frame) > 0 && (frame[0] == kindSyncReq || frame[0] == kindFlatAck)
}

// EncodeSyncReq encodes an anti-entropy digest frame.
func EncodeSyncReq(from ident.SiteID, clock vclock.VC) ([]byte, error) {
	c := encoder(kindSyncReq, 64)
	c.digest(&from, &clock)
	return c.bytes()
}

// EncodeDocFrame wraps one complete inner frame in the doc-scoped
// envelope.
func EncodeDocFrame(doc string, inner []byte) ([]byte, error) {
	return encodeEnvelope(kindDocFrame, doc, inner)
}

// encodeEnvelope wraps one complete inner frame in a doc-scoped envelope
// of the given kind (kindDocFrame or kindForward), pre-sized so the
// envelope is the call's one allocation.
func encodeEnvelope(kind byte, doc string, inner []byte) ([]byte, error) {
	c := encoder(kind, 1+2+len(doc)+len(inner))
	c.envelope(&doc, &inner)
	return c.bytes()
}

// splitEnvelope splits a doc-scoped envelope of either kind into the
// document ID and the inner frame (aliasing the envelope's backing array)
// without decoding the inner body.
func splitEnvelope(frame []byte) (doc string, inner []byte, err error) {
	if len(frame) == 0 || !isEnvelopeKind(frame[0]) {
		return "", nil, fmt.Errorf("transport: not a doc envelope")
	}
	c := decoder(frame[0], frame)
	c.envelope(&doc, &inner)
	return doc, inner, c.finish()
}

// SplitDocFrame splits a kindDocFrame envelope into the document ID and
// the inner frame (aliasing the envelope's backing array).
func SplitDocFrame(frame []byte) (doc string, inner []byte, err error) {
	c := decoder(kindDocFrame, frame)
	c.envelope(&doc, &inner)
	return doc, inner, c.finish()
}

// encodeReplay wraps one complete answer frame with the requester's site
// id, addressing it through replay-routing relays (see ReplayFrame).
func encodeReplay(to ident.SiteID, inner []byte) ([]byte, error) {
	c := encoder(kindReplay, replayOverhead+len(inner))
	c.replay(&to, &inner)
	return c.bytes()
}

// SplitReplay splits a directed answer into the addressed site and the
// inner frame (aliasing the frame's backing array), validating the inner
// kind and size without decoding its body — the hub routes replays
// without paying for a decode.
func SplitReplay(frame []byte) (to ident.SiteID, inner []byte, err error) {
	c := decoder(kindReplay, frame)
	c.replay(&to, &inner)
	return to, inner, c.finish()
}

// peekDigestFrom reads the requesting site id off the front of a
// kindSyncReq frame without decoding its clock.
func peekDigestFrom(frame []byte) (from ident.SiteID, ok bool) {
	if len(frame) == 0 {
		return 0, false
	}
	c := decoder(frame[0], frame)
	c.digest(&from, nil)
	return from, c.err == nil
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
// kinds whose table row sets a higher ceiling (kindSnapChunk and the
// wrappers that may carry it; checked against the kind byte before the
// body is read), so a hostile length prefix cannot force a large
// allocation by claiming any other kind.
func ReadFrame(r *bufio.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || int64(n) > int64(maxFrameLimit) {
		return nil, fmt.Errorf("transport: frame length %d out of range", n)
	}
	if n > MaxFrameSize {
		kind, err := r.Peek(1)
		if err != nil {
			return nil, err
		}
		if int(n) > frameSizeLimit(kind[0]) {
			return nil, fmt.Errorf("transport: frame length %d out of range for kind %#x", n, kind[0])
		}
	}
	frame := make([]byte, n)
	if _, err := io.ReadFull(r, frame); err != nil {
		return nil, err
	}
	return frame, nil
}
