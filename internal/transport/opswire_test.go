package transport

import (
	"encoding/binary"
	"encoding/hex"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/treedoc/treedoc/internal/causal"
	"github.com/treedoc/treedoc/internal/core"
	"github.com/treedoc/treedoc/internal/ident"
	"github.com/treedoc/treedoc/internal/vclock"
)

// randomBatch builds a multi-writer batch the way a relaying replica's
// retained log sees one: a few senders interleaved in bursts, clocks that
// learn a foreign entry mid-burst (a delivery between two sends), ops
// relayed under another site's stamp, and the occasional committed flatten.
func randomBatch(rng *rand.Rand, n int) []causal.Message {
	sites := []ident.SiteID{3, 7, ident.MaxSiteID}
	clocks := map[ident.SiteID]vclock.VC{}
	for _, s := range sites {
		clocks[s] = vclock.New()
	}
	path := func(atom bool) ident.Path {
		p := make(ident.Path, 0, 40)
		for i := rng.Intn(40); i > 0; i-- {
			switch rng.Intn(12) {
			case 0:
				p = append(p, ident.M(uint8(rng.Intn(2)), ident.Canonical))
			case 1:
				p = append(p, ident.M(uint8(rng.Intn(2)), ident.Dis{Counter: rng.Uint32() >> uint(rng.Intn(32)), Site: sites[rng.Intn(3)]}))
			default:
				p = append(p, ident.J(uint8(rng.Intn(2))))
			}
		}
		if atom {
			return append(p, ident.M(uint8(rng.Intn(2)), ident.Dis{Site: sites[rng.Intn(3)]}))
		}
		if len(p) > 0 {
			p[len(p)-1] = ident.J(p[len(p)-1].Bit) // structural: ends at a major node
		}
		return p
	}
	msgs := make([]causal.Message, 0, n)
	from := sites[0]
	for len(msgs) < n {
		if rng.Intn(4) == 0 {
			from = sites[rng.Intn(3)] // the burst ends
		}
		clock := clocks[from]
		if rng.Intn(6) == 0 {
			clock.Merge(clocks[sites[rng.Intn(3)]]) // a delivery between two sends
		}
		op := core.Op{Site: from, Seq: clock.Tick(from)}
		switch k := rng.Intn(10); {
		case k < 5:
			op.Kind, op.ID, op.Atom = core.OpInsert, ident.Pack(path(true)), strings.Repeat("é", rng.Intn(4))
		case k < 9:
			op.Kind, op.ID = core.OpDelete, ident.Pack(path(true))
		default:
			op.Kind, op.ID = core.OpFlatten, ident.Pack(path(false))
		}
		if rng.Intn(8) == 0 {
			op.Site, op.Seq = sites[rng.Intn(3)], uint64(rng.Intn(1000)) // relayed: not the sender's own
		}
		msgs = append(msgs, causal.Message{From: from, TS: clock.Clone(), Payload: op})
	}
	return msgs
}

// TestOpsBatchProperty: run-relative encoding is lossless on any batch, and
// stays so under the re-slicing the engine does — stateFrames encodes
// arbitrary sub-slices of the retained log as digest answers, and each must
// stand alone: decodable with no neighbour, its first message absolute.
func TestOpsBatchProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	var runs, stamped, total int
	for round := 0; round < 300; round++ {
		msgs := randomBatch(rng, 1+rng.Intn(100))
		for cut := 0; cut < 4; cut++ {
			lo := rng.Intn(len(msgs))
			hi := lo + 1 + rng.Intn(len(msgs)-lo)
			if cut == 0 {
				lo, hi = 0, len(msgs)
			}
			frame, err := EncodeOps(msgs[lo:hi])
			if err != nil {
				t.Fatalf("round %d [%d:%d]: %v", round, lo, hi, err)
			}
			decoded, err := DecodeFrame(frame)
			if err != nil {
				t.Fatalf("round %d [%d:%d]: own frame refused: %v", round, lo, hi, err)
			}
			if got := decoded.(*OpsFrame).Msgs; !reflect.DeepEqual(got, msgs[lo:hi]) {
				t.Fatalf("round %d [%d:%d] round trip:\n got %v\nwant %v", round, lo, hi, got, msgs[lo:hi])
			}
			_, n := binary.Uvarint(frame[1:])
			if head := frame[1+n]; head&core.HeadRun != 0 {
				t.Fatalf("round %d [%d:%d]: first message encoded run-relative (head %#x)", round, lo, hi, head)
			}
			// The same messages one frame each — what a lossy link or the
			// per-op fallback of stateFrames leaves — say the same thing.
			for i := lo; i < hi && cut == 1; i++ {
				one, err := EncodeOps(msgs[i : i+1])
				if err != nil {
					t.Fatal(err)
				}
				if d, err := DecodeFrame(one); err != nil || !reflect.DeepEqual(d.(*OpsFrame).Msgs[0], msgs[i]) {
					t.Fatalf("round %d message %d alone: %v (%v)", round, i, d, err)
				}
			}
		}
		// Count what the bits bought, so a generator that never exercises
		// them fails the test instead of passing it vacuously.
		for i, m := range msgs {
			op := m.Payload.(core.Op)
			if i > 0 && msgs[i-1].From == m.From && m.TS.IsTick(msgs[i-1].TS, m.From) {
				runs++
			}
			if op.Site == m.From && op.Seq == m.TS.Get(m.From) {
				stamped++
			}
			total++
		}
	}
	if runs < total/4 || runs > total*9/10 || stamped < total/2 || stamped == total {
		t.Errorf("generator is lopsided: %d run and %d stamped of %d messages", runs, stamped, total)
	}
}

// TestOpsFrameRefusesDanglingRun: the first message of a frame has no
// predecessor to be relative to, and a log record never has one.
func TestOpsFrameRefusesDanglingRun(t *testing.T) {
	msgs := mixedMsgs()[:2] // the second is a run of the first
	both, err := EncodeOps(msgs)
	if err != nil {
		t.Fatal(err)
	}
	first, err := EncodeOps(msgs[:1])
	if err != nil {
		t.Fatal(err)
	}
	second, err := EncodeOps(msgs[1:])
	if err != nil {
		t.Fatal(err)
	}
	// Cut the first message out of the two-message frame: what is left
	// opens with the run-relative second message.
	dangling := append([]byte{kindOps, 1}, both[len(first):]...)
	if dangling[2]&core.HeadRun == 0 {
		t.Fatalf("test frame %x does not open with a run message", dangling)
	}
	if _, err := DecodeFrame(dangling); err == nil || !strings.Contains(err.Error(), "op head") {
		t.Errorf("frame opening with a run message: %v", err)
	}
	if _, err := DecodeMsgBody(dangling[2:]); err == nil {
		t.Error("log record with a run message accepted")
	}
	for _, head := range []byte{0x10, 0x20, 0x40, 0x80, 0x00} {
		bad := append([]byte{}, second...)
		bad[2] = bad[2]&0x0f | head
		if head == 0 {
			bad[2] &^= 3 // kind 0
		}
		if _, err := DecodeFrame(bad); err == nil {
			t.Errorf("head byte %#x accepted", bad[2])
		}
	}
}

// TestRetiredOpsKindIsUnknown pins 0x01 (kindOps with one byte per
// identifier level) as reserved: the frame the parent of the packed layout
// recorded for the two sample messages decodes as an unknown kind, under
// its old kind byte and — relabelled — under the new one.
func TestRetiredOpsKindIsUnknown(t *testing.T) {
	old, _ := hex.DecodeString("0102070202090703010703020104040702c3a907020209070402070401050002")
	if _, err := DecodeFrame(old); err == nil || !strings.Contains(err.Error(), "unknown frame kind") {
		t.Fatalf("retired ops frame: err = %v, want unknown frame kind", err)
	}
	if err := WriteFrame(io.Discard, old); err != nil {
		t.Errorf("a relay must still carry a frame it cannot read: %v", err)
	}
	old[0] = kindOps
	if decoded, err := DecodeFrame(old); err == nil {
		t.Errorf("old layout under the new kind decoded to %+v", decoded)
	}
}

// hostileFrameAllocCeiling is what refusing any one kindOps frame may cost:
// the frame's budget of MaxFrameSize units spent on identifier elements,
// one more path that ran over it, both at the in-memory 24 bytes per
// element, and slack for the messages themselves. Spent on cloned clock
// entries instead, at two units each, it buys less (measured: 22.6 MB for
// the cloned clocks, 25.2 MB for the paths).
const hostileFrameAllocCeiling = (MaxFrameSize+ident.MaxPathLen)*24 + 1<<20

// TestOpsFrameIdentifierBudget: eight identifier elements fit a wire byte,
// so a 1 MiB frame could claim 8Mi of them (200 MB decoded). The frame
// budget keeps the worst case where one byte per element had it.
func TestOpsFrameIdentifierBudget(t *testing.T) {
	deep := make(ident.Path, ident.MaxPathLen-1)
	for i := range deep {
		deep[i] = ident.J(1)
	}
	deep[len(deep)-1] = ident.M(0, ident.Dis{Site: 1})
	op := core.Op{Kind: core.OpDelete, ID: ident.Pack(deep)}
	body := op.AppendFields(nil, false)
	repeated := []byte{kindOps, 0}
	count := 0
	for len(repeated)+len(body)+8 < MaxFrameSize {
		if count++; count == 1 {
			repeated = append(repeated, byte(core.OpDelete)|core.HeadStamped, 1, 1, 1, 1) // sender 1, clock {1:1}
		} else {
			repeated = append(repeated, byte(core.OpDelete)|core.HeadStamped|core.HeadRun)
		}
		repeated = append(repeated, body...)
	}
	repeated[1] = byte(count) // 127 messages of 65,535 elements: 8.3M elements in 1 MiB
	if count < 100 || count > 127 {
		t.Fatalf("frame holds %d messages; the test assumes a one-byte count", count)
	}
	hugeN := []byte{kindOps, 1, byte(core.OpDelete) | core.HeadStamped, 1, 1, 1, 1, 0xff, 0xff, 0xff, 0xff, 0x0f}
	hugeK := []byte{kindOps, 1, byte(core.OpDelete) | core.HeadStamped, 1, 1, 1, 1, 0x08, 0xff, 0xff, 0xff, 0xff, 0xff, 0x0f, 0, 0, 0, 0, 0, 0, 0, 0}
	// The other elision: a run message is 7 wire bytes and makes the decoder
	// clone the clock before it. One 4096-entry clock and maxBatch-1 runs
	// fit 460 KiB and would clone 268M map entries.
	wide := make(vclock.VC, maxClockEntries)
	for s := ident.SiteID(1); s <= maxClockEntries; s++ {
		wide[s] = 1
	}
	clones := append([]byte{kindOps, 0xff, 0xff, 0x03, byte(core.OpDelete) | core.HeadStamped, 1}, wide.AppendBinary(nil)...)
	shallow := core.Op{Kind: core.OpDelete, ID: ident.Pack(deep[len(deep)-1:])}.AppendFields(nil, false)
	clones = append(clones, shallow...)
	for i := 1; i < maxBatch-1; i++ {
		clones = append(append(clones, byte(core.OpDelete)|core.HeadStamped|core.HeadRun), shallow...)
	}
	for name, tc := range map[string]struct {
		frame []byte
		why   string
	}{
		"a path just under the cap, repeated to the frame limit": {repeated, "exceed the frame's budget"},
		"a wide clock cloned by a frame of run messages":         {clones, "exceed the frame's budget"},
		"a path length of 2^32":                                  {hugeN, "exceeds limit or buffer"},
		"a mini count of 2^32":                                   {hugeK, "mini elements in a path of 8"},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		decoded, err := DecodeFrame(tc.frame)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decoded %d messages", name, len(decoded.(*OpsFrame).Msgs))
		} else if !strings.Contains(err.Error(), tc.why) {
			t.Errorf("%s: refused for another reason: %v", name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > hostileFrameAllocCeiling {
			t.Errorf("%s: refusing the frame allocated %d bytes, ceiling %d", name, got, hostileFrameAllocCeiling)
		}
	}
	// Within the budget the same shape is fine, and the sender holds itself
	// to the same two bounds.
	ok := append([]byte{}, repeated[:2+5+len(body)]...)
	ok[1] = 1
	if _, err := DecodeFrame(ok); err != nil {
		t.Errorf("one deep path refused: %v", err)
	}
	stamp := func(seq uint64, id ident.Path) causal.Message {
		return causal.Message{From: 1, TS: vclock.VC{1: seq}, Payload: core.Op{Kind: core.OpDelete, Site: 1, Seq: seq, ID: ident.Pack(id)}}
	}
	var over []causal.Message
	for seq, units := uint64(1), -2; units <= MaxFrameSize; seq++ {
		over = append(over, stamp(seq, deep))
		units += len(deep) + 2 // the path, and the one-entry clock every message but the first elides
	}
	if _, err := EncodeOps(over); err == nil {
		t.Error("EncodeOps exceeded the identifier budget")
	}
	if _, err := EncodeOps(over[:len(over)-1]); err != nil {
		t.Errorf("EncodeOps refused a batch within the budget: %v", err)
	}
	tooDeep := append(append(ident.Path{}, deep...), deep[len(deep)-1], deep[len(deep)-1])
	if _, err := EncodeOps([]causal.Message{stamp(1, tooDeep)}); err == nil {
		t.Error("EncodeOps accepted a path beyond ident.MaxPathLen")
	}
}
