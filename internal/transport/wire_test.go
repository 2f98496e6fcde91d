package transport

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"github.com/treedoc/treedoc/internal/causal"
	"github.com/treedoc/treedoc/internal/core"
	"github.com/treedoc/treedoc/internal/ident"
	"github.com/treedoc/treedoc/internal/vclock"
)

// testMsgs builds a small batch of stamped operations from a real document
// so the paths and disambiguators are valid.
func testMsgs(t testing.TB) []causal.Message {
	t.Helper()
	doc, err := core.NewDocument(core.Config{Site: 7})
	if err != nil {
		t.Fatal(err)
	}
	buf := causal.NewBuffer(7)
	var msgs []causal.Message
	for i, atom := range []string{"a", "b", "c"} {
		op, err := doc.InsertAt(i, atom)
		if err != nil {
			t.Fatal(err)
		}
		msgs = append(msgs, buf.Stamp(op))
	}
	del, err := doc.DeleteAt(1)
	if err != nil {
		t.Fatal(err)
	}
	msgs = append(msgs, buf.Stamp(del))
	return msgs
}

// TestGoldenFrames pins the wire: every sample encodes to the bytes the
// hand-written encoders produced before the frame table replaced them,
// those bytes decode to the sample, and no kind goes unsampled.
func TestGoldenFrames(t *testing.T) {
	sampled := make(map[byte]bool)
	for _, s := range frameSamples(t) {
		sampled[s.kind] = true
		if got := hex.EncodeToString(mustEncode(t, s.kind, s.f)); got != s.hex {
			t.Errorf("%s encodes to\n  %s, recorded\n  %s", s.name, got, s.hex)
		}
		golden, err := hex.DecodeString(s.hex)
		if err != nil {
			t.Fatalf("%s: bad golden hex: %v", s.name, err)
		}
		if decoded, err := DecodeFrame(golden); err != nil || !reflect.DeepEqual(decoded, s.f) {
			t.Errorf("%s: recorded bytes decode to %+v (%v), want %+v", s.name, decoded, err, s.f)
		}
	}
	for k, row := range frameTable {
		if (row.new != nil) != sampled[byte(k)] {
			t.Errorf("kind %#x (%s): in table %v, sampled %v", k, row.name, row.new != nil, sampled[byte(k)])
		}
	}
}

// roundTrip is the one round-trip harness: each sample of the given kinds
// encodes, decodes to an equal value, agrees with the alias-only splitters
// the relay path uses, and — for kinds whose layout is not open-ended —
// is refused under every truncation and every appended byte, which is what
// keeps the encoding canonical.
func roundTrip(t *testing.T, kinds ...byte) {
	t.Helper()
	roundTripSamples(t, samplesOf(t, kinds...))
}

// roundTripNamed is roundTrip over the named samples.
func roundTripNamed(t *testing.T, names ...string) {
	t.Helper()
	var samples []frameSample
	for _, s := range frameSamples(t) {
		if slices.Contains(names, s.name) {
			samples = append(samples, s)
		}
	}
	roundTripSamples(t, samples)
}

func roundTripSamples(t *testing.T, samples []frameSample) {
	t.Helper()
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	for _, s := range samples {
		frame := mustEncode(t, s.kind, s.f)
		decoded, err := DecodeFrame(frame)
		if err != nil {
			t.Errorf("%s: encoded frame refused: %v", s.name, err)
			continue
		}
		if !reflect.DeepEqual(decoded, s.f) {
			t.Errorf("%s round trip:\n got %+v\nwant %+v", s.name, decoded, s.f)
		}
		var doc string
		var inner []byte
		var puller ident.SiteID
		switch f := s.f.(type) {
		case *SyncReqFrame:
			puller = f.From
		case *DocFrame:
			doc, inner = f.Doc, f.Inner
			if d, in, err := SplitDocFrame(frame); err != nil || d != doc || !bytes.Equal(in, inner) {
				t.Errorf("%s: SplitDocFrame = (%q, %x, %v)", s.name, d, in, err)
			}
		case *ForwardFrame:
			doc, inner = f.Doc, f.Inner
		case *ReplayFrame:
			inner = f.Inner
			if to, in, err := SplitReplay(frame); err != nil || to != f.To || !bytes.Equal(in, inner) {
				t.Errorf("%s: SplitReplay = (%d, %x, %v)", s.name, to, in, err)
			}
			if _, _, err := SplitDocFrame(frame); err == nil {
				t.Errorf("%s: split as a doc envelope", s.name)
			}
		}
		if from, ok := peekDigestFrom(frame); puller != 0 && (!ok || from != puller) {
			t.Errorf("%s: peekDigestFrom = (%d, %v), want %d", s.name, from, ok, puller)
		}
		if isEnvelopeKind(frame[0]) {
			if d, in, err := splitEnvelope(frame); err != nil || d != doc || !bytes.Equal(in, inner) {
				t.Errorf("%s: splitEnvelope = (%q, %x, %v)", s.name, d, in, err)
			}
			if _, _, err := SplitReplay(frame); err == nil {
				t.Errorf("%s: split as a replay", s.name)
			}
		}
		if inner != nil {
			// The wrapped frame decodes independently; the rest of its
			// outer frame is opaque, so truncations are not refused here.
			if _, err := DecodeFrame(inner); err != nil {
				t.Errorf("%s: inner frame refused: %v", s.name, err)
			}
			continue
		}
		if frame[0] == kindSnapChunk {
			continue // ends in opaque chunk bytes
		}
		hello, _ := s.f.(*HelloFrame)
		flagged := hello != nil && hello.Forward
		for cut := 1; cut < len(frame); cut++ {
			if flagged && cut == len(frame)-1 {
				continue // the same frame with its flag off
			}
			if _, err := DecodeFrame(frame[:cut]); err == nil {
				t.Errorf("%s truncated to %d bytes decoded", s.name, cut)
			}
		}
		// 0x00: trailing garbage, or a flags byte that must be encoded by
		// omission. 0x02: an unknown flag bit.
		for _, extra := range []byte{0x00, 0x01, 0x02} {
			if extra == 0x01 && hello != nil && !flagged {
				continue // the same frame with its flag on
			}
			if _, err := DecodeFrame(append(append([]byte{}, frame...), extra)); err == nil {
				t.Errorf("%s with trailing byte %#x decoded", s.name, extra)
			}
		}
	}
}

// The per-kind round-trip and fuzz names are the ones the suite has always
// printed, and the test floor tracks them by name; each is now the shared
// harness over its kinds' rows of frameSamples.
func TestOpsFrameRoundTrip(t *testing.T)     { roundTrip(t, kindOps) }
func TestSyncReqRoundTrip(t *testing.T)      { roundTrip(t, kindSyncReq) }
func TestSnapReqRoundTrip(t *testing.T)      { retired(t, 0x01, 0x03, 0x04, 0x11) }
func TestDocFrameRoundTrip(t *testing.T)     { roundTrip(t, kindDocFrame) }
func TestHelloRoundTrip(t *testing.T)        { roundTrip(t, kindHello) }
func TestHelloForwardRoundTrip(t *testing.T) { roundTrip(t, kindHello) }
func TestDetachRoundTrip(t *testing.T)       { roundTrip(t, kindDetach) }
func TestHelloRespRoundTrip(t *testing.T)    { roundTrip(t, kindHelloResp) }
func TestHelloRespCarriesEpoch(t *testing.T) { roundTrip(t, kindHelloResp) }
func TestFlatProposeRoundTrip(t *testing.T)  { roundTripNamed(t, "ops-intent"); retired(t, 0x05) }
func TestFlatVoteRoundTrip(t *testing.T)     { roundTrip(t, kindFlatAck); retired(t, 0x06) }
func TestFlatDecisionRoundTrip(t *testing.T) {
	roundTripNamed(t, "ops-intent", "ops-abort")
	retired(t, 0x07)
}
func TestSnapChunkRoundTrip(t *testing.T)    { roundTrip(t, kindSnapChunk) }
func TestRingAnnounceRoundTrip(t *testing.T) { roundTrip(t, kindRingAnnounce) }
func TestHandoffMarkRoundTrip(t *testing.T)  { roundTrip(t, kindHandoffBegin) }
func TestSyncBatchRoundTrip(t *testing.T)    { retired(t, 0x12, 0x15) }
func TestReplayFrameRoundTrip(t *testing.T)  { roundTrip(t, kindReplay) }
func TestForwardAndHandoffStateEnvelopes(t *testing.T) {
	roundTrip(t, kindForward)
	retired(t, 0x10)
}

// retiredFrames are frames of retired kinds as the last build that spoke
// each one encoded them. A retired kind byte stays reserved, never reused
// (docs/ARCHITECTURE.md §4), so each decodes as an unknown kind; its body
// seeds the fuzz targets of the kinds that absorbed it.
var retiredFrames = []string{
	// kindOps with one byte per identifier level: the "ops" sample.
	"0102070202090703010703020104040702c3a907020209070402070401050002",
	"03040201050902", // kindSnapReq, folded into kindSyncReq
	"0402010164",     // the single-frame snapshot
	"10056e6f746573080201020840106368756e6b2d6279746573", // kindHandoffState, folded into kindForward
	"11056e6f74657304", // kindHandoffDone
	// The flatten commitment's frames, retired when a round's proposal and
	// decision became stamped operations and its vote became kindFlatAck.
	"05030c0201000203290907",         // kindFlatPropose
	"0605030c01",                     // kindFlatVote
	"07030c014d020100",               // kindFlatDecision
	"1201056e6f74657303020105030901", // kindSyncBatch with its forwarded flags byte
	// kindSyncBatch, retired when every digest got its own kindDocFrame:
	// both of its samples, three documents and one wide clock.
	"1503056e6f74657303020105030904746f646f0701070105612d622e630102018080808080200202",
	"150101780103010102020303",
}

// retiredBody returns the body of kind's frame in retiredFrames.
func retiredBody(t testing.TB, kind byte) []byte {
	for _, h := range retiredFrames {
		if frame, err := hex.DecodeString(h); err == nil && frame[0] == kind {
			return frame[1:]
		}
	}
	t.Fatalf("no retired frame of kind %#x", kind)
	return nil
}

// retired asserts that each retired kind has no table row and that its
// last frame decodes as an unknown kind.
func retired(t *testing.T, kinds ...byte) {
	t.Helper()
	for _, k := range kinds {
		_, err := DecodeFrame(append([]byte{k}, retiredBody(t, k)...))
		if frameTable[k].new != nil || err == nil || !strings.Contains(err.Error(), "unknown frame kind") {
			t.Errorf("retired kind %#x: in table %v, DecodeFrame error %v", k, frameTable[k].new != nil, err)
		}
	}
}

// TestEncodeImpliesDecode: validation lives in the field methods both
// directions share, so a value the receiver would refuse is refused at the
// sender, and every valid value survives the round trip.
func TestEncodeImpliesDecode(t *testing.T) {
	for _, s := range frameSamples(t) {
		if decoded, err := DecodeFrame(mustEncode(t, s.kind, s.f)); err != nil || !reflect.DeepEqual(decoded, s.f) {
			t.Errorf("%s: encode → decode = %+v (%v), want %+v", s.name, decoded, err, s.f)
		}
	}

	ok := vclock.VC{3: 9}
	digest := mustEncode(t, kindSyncReq, &SyncReqFrame{From: 7, Clock: vclock.VC{7: 4}})
	docEnv := mustEncode(t, kindDocFrame, &DocFrame{Doc: "notes", Inner: digest})
	fwdEnv := mustEncode(t, kindForward, &ForwardFrame{Doc: "notes", Inner: digest})
	replay := mustEncode(t, kindReplay, &ReplayFrame{To: 42, Inner: digest})
	long := strings.Repeat("a", maxRedirectAddr+1)
	atomPath := ident.Path{ident.M(1, ident.Dis{Site: 4})}
	wideClock := make(vclock.VC)
	for s := ident.SiteID(1); s <= maxClockEntries+1; s++ {
		wideClock[s] = 1
	}
	deepPath := make(ident.Path, ident.MaxPathLen+1)
	for i := range deepPath {
		deepPath[i] = ident.J(1)
	}
	manyDocs := make([]string, maxHelloDocs+1)
	manyAnswers := make([]HelloEntry, maxHelloDocs+1)
	manyNodes := make([]string, maxRingNodes+1)
	for i := range manyDocs {
		manyDocs[i], manyNodes[i] = "d", "h:1"
		manyAnswers[i] = HelloEntry{Doc: "d"}
	}
	msg := sampleMsgs()[0]
	for _, tc := range []struct {
		name string
		kind byte
		f    frame
	}{
		{"ops: sender zero", kindOps, &OpsFrame{Msgs: []causal.Message{{From: 0, TS: msg.TS, Payload: msg.Payload}}}},
		{"ops: sender beyond 48 bits", kindOps, &OpsFrame{Msgs: []causal.Message{{From: ident.MaxSiteID + 1, TS: vclock.VC{ident.MaxSiteID + 1: 1}, Payload: msg.Payload}}}},
		{"ops: sender without own stamp", kindOps, &OpsFrame{Msgs: []causal.Message{{From: 7, TS: vclock.VC{2: 9}, Payload: msg.Payload}}}},
		{"ops: payload is not an op", kindOps, &OpsFrame{Msgs: []causal.Message{{From: 7, TS: msg.TS, Payload: "text"}}}},
		{"ops: op kind zero", kindOps, &OpsFrame{Msgs: []causal.Message{{From: 7, TS: msg.TS, Payload: core.Op{Site: 7, Seq: 3, ID: ident.Pack(atomPath)}}}}},
		{"ops: op kind beyond abort", kindOps, &OpsFrame{Msgs: []causal.Message{{From: 7, TS: msg.TS, Payload: core.Op{Kind: core.OpAbort + 1, Site: 7, Seq: 3, ID: ident.Pack(atomPath)}}}}},
		{"ops: abort at an atom", kindOps, &OpsFrame{Msgs: []causal.Message{{From: 7, TS: msg.TS, Payload: core.Op{Kind: core.OpAbort, Site: 7, Seq: 3, ID: ident.Pack(atomPath)}}}}},
		{"ops: batch beyond maxBatch", kindOps, &OpsFrame{Msgs: make([]causal.Message, maxBatch+1)}},
		{"syncreq: site zero", kindSyncReq, &SyncReqFrame{From: 0, Clock: ok}},
		{"syncreq: site beyond 48 bits", kindSyncReq, &SyncReqFrame{From: ident.MaxSiteID + 1, Clock: ok}},
		{"syncreq: clock beyond maxClockEntries", kindSyncReq, &SyncReqFrame{From: 3, Clock: wideClock}},
		{"ops: intent at an atom", kindOps, &OpsFrame{Msgs: []causal.Message{{From: 7, TS: msg.TS, Payload: core.Op{Kind: core.OpIntent, Site: 7, Seq: 3, ID: ident.Pack(atomPath)}}}}},
		{"ops: intent beyond ident.MaxPathLen", kindOps, &OpsFrame{Msgs: []causal.Message{{From: 7, TS: msg.TS, Payload: core.Op{Kind: core.OpIntent, Site: 7, Seq: 3, ID: ident.Pack(deepPath)}}}}},
		{"flatack: acker zero", kindFlatAck, &FlatAckFrame{From: 0, Author: 3, Intent: 1}},
		{"flatack: author beyond 48 bits", kindFlatAck, &FlatAckFrame{From: 5, Author: ident.MaxSiteID + 1, Intent: 1}},
		{"snapchunk: site zero", kindSnapChunk, &SnapChunkFrame{From: 0, Version: ok, Total: 10, Data: []byte("x")}},
		{"snapchunk: empty version", kindSnapChunk, &SnapChunkFrame{From: 2, Version: vclock.New(), Total: 100}},
		{"snapchunk: zero total", kindSnapChunk, &SnapChunkFrame{From: 2, Version: ok}},
		{"snapchunk: total beyond MaxSnapshotSize", kindSnapChunk, &SnapChunkFrame{From: 2, Version: ok, Total: MaxSnapshotSize + 1}},
		{"snapchunk: slice outside total", kindSnapChunk, &SnapChunkFrame{From: 2, Version: ok, Total: 100, Offset: 90, Data: make([]byte, 20)}},
		{"snapchunk: offset beyond total", kindSnapChunk, &SnapChunkFrame{From: 2, Version: ok, Total: 100, Offset: 101}},
		{"docframe: bad doc id", kindDocFrame, &DocFrame{Doc: "bad/doc", Inner: digest}},
		{"docframe: empty inner", kindDocFrame, &DocFrame{Doc: "notes"}},
		{"docframe: nested doc envelope", kindDocFrame, &DocFrame{Doc: "notes", Inner: docEnv}},
		{"docframe: nested forward", kindDocFrame, &DocFrame{Doc: "notes", Inner: fwdEnv}},
		{"docframe: inner beyond its kind's ceiling", kindDocFrame, &DocFrame{Doc: "notes", Inner: append([]byte{kindOps}, make([]byte, MaxFrameSize)...)}},
		{"forward: nested doc envelope", kindForward, &ForwardFrame{Doc: "notes", Inner: docEnv}},
		{"forward: nested forward", kindForward, &ForwardFrame{Doc: "notes", Inner: fwdEnv}},
		{"forward: empty doc id", kindForward, &ForwardFrame{Inner: digest}},
		{"replay: site zero", kindReplay, &ReplayFrame{To: 0, Inner: digest}},
		{"replay: site beyond 48 bits", kindReplay, &ReplayFrame{To: ident.MaxSiteID + 1, Inner: digest}},
		{"replay: empty inner", kindReplay, &ReplayFrame{To: 42}},
		{"replay: envelope inner", kindReplay, &ReplayFrame{To: 42, Inner: docEnv}},
		{"replay: replay in replay", kindReplay, &ReplayFrame{To: 42, Inner: replay}},
		{"hello: no docs", kindHello, &HelloFrame{}},
		{"hello: bad doc id", kindHello, &HelloFrame{Docs: []string{"bad doc"}}},
		{"hello: docs beyond maxHelloDocs", kindHello, &HelloFrame{Docs: manyDocs}},
		{"detach: no docs", kindDetach, &DetachFrame{}},
		{"detach: bad doc id", kindDetach, &DetachFrame{Docs: []string{".hidden"}}},
		{"helloresp: no entries", kindHelloResp, &HelloRespFrame{}},
		{"helloresp: bad doc id", kindHelloResp, &HelloRespFrame{Entries: []HelloEntry{{Doc: ""}}}},
		{"helloresp: over-long redirect", kindHelloResp, &HelloRespFrame{Entries: []HelloEntry{{Doc: "x", Redirect: long}}}},
		{"helloresp: entries beyond maxHelloDocs", kindHelloResp, &HelloRespFrame{Entries: manyAnswers}},
		{"ring: empty node address", kindRingAnnounce, &RingFrame{Epoch: 1, Nodes: []string{""}}},
		{"ring: over-long node address", kindRingAnnounce, &RingFrame{Epoch: 1, Nodes: []string{long}}},
		{"ring: nodes beyond maxRingNodes", kindRingAnnounce, &RingFrame{Epoch: 1, Nodes: manyNodes}},
		{"handoffbegin: bad doc id", kindHandoffBegin, &HandoffBeginFrame{Doc: "a/b", Epoch: 1}},
	} {
		if b, err := encodeFrame(tc.kind, tc.f); err == nil {
			_, derr := DecodeFrame(b)
			t.Errorf("%s: encoded to %d bytes (DecodeFrame says: %v)", tc.name, len(b), derr)
		}
	}
}

func TestDecodeFrameRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0x00},
		{0xff, 1, 2, 3},
		{kindOps},                    // missing count
		{kindOps, 0x01},              // promised one op, empty body
		{kindSyncReq, 0x00},          // zero sender
		{kindSyncReq, 0x05, 1, 1, 0}, // zero clock count
	}
	for _, c := range cases {
		if _, err := DecodeFrame(c); err == nil {
			t.Errorf("DecodeFrame(%v) accepted garbage", c)
		}
	}
}

func TestFrameIO(t *testing.T) {
	msgs := testMsgs(t)
	f1, err := EncodeOps(msgs)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := EncodeSyncReq(7, vclock.VC{7: 4})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := WriteFrame(&b, f1); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&b, f2); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(&b)
	for _, want := range [][]byte{f1, f2} {
		got, err := ReadFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame corrupted in transit")
		}
	}
	if _, err := ReadFrame(r); err == nil {
		t.Fatal("expected error at stream end")
	}
}

func TestReadFrameRejectsOversizedLength(t *testing.T) {
	r := bufio.NewReader(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff, 0}))
	if _, err := ReadFrame(r); err == nil {
		t.Fatal("oversized length prefix accepted")
	}
}

// TestReadAcceptsWhatWriteAccepts: the reader's bound on a length prefix is
// the largest ceiling in the frame table, so a frame of exactly its kind's
// ceiling crosses a link and one byte more is refused on both sides.
func TestReadAcceptsWhatWriteAccepts(t *testing.T) {
	for _, kind := range []byte{kindDocFrame, kindOps} {
		frame := make([]byte, frameSizeLimit(kind)+1)
		frame[0] = kind
		atLimit := frame[:len(frame)-1]
		var link bytes.Buffer
		if err := WriteFrame(&link, atLimit); err != nil {
			t.Fatalf("%s: WriteFrame refused a frame of its ceiling: %v", frameTable[kind].name, err)
		}
		got, err := ReadFrame(bufio.NewReader(&link))
		if err != nil {
			t.Fatalf("%s: ReadFrame refused what WriteFrame wrote: %v", frameTable[kind].name, err)
		}
		if !bytes.Equal(got, atLimit) {
			t.Fatalf("%s: frame corrupted in transit", frameTable[kind].name)
		}
		if err := WriteFrame(&link, frame); err == nil {
			t.Fatalf("%s: WriteFrame accepted ceiling+1", frameTable[kind].name)
		}
		hdr := []byte{byte(len(frame) >> 24), byte(len(frame) >> 16), byte(len(frame) >> 8), byte(len(frame)), kind}
		if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(hdr))); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("%s: ReadFrame on a ceiling+1 length prefix: %v", frameTable[kind].name, err)
		}
	}
}

// TestFrameTableMatchesDocs keeps docs/ARCHITECTURE.md §4 and the frame
// table the same list: every row's code and name is a §4 row, and §4 names
// nothing the table lacks (the reserved, retired kinds excepted).
func TestFrameTableMatchesDocs(t *testing.T) {
	md, err := os.ReadFile("../../docs/ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	section := string(md)
	section = section[strings.Index(section, "\n## 4. Frame kinds"):]
	section = section[:strings.Index(section, "\n### 4.1")]
	documented := make(map[string]string)
	for _, m := range regexp.MustCompile("(?m)^\\| (0x[0-9a-f]{2}) \\| (?:`(kind\\w+)`|—) \\|").FindAllStringSubmatch(section, -1) {
		documented[m[1]] = m[2]
	}
	for _, reserved := range []string{"0x01", "0x03", "0x04", "0x05", "0x06", "0x07", "0x10", "0x11", "0x12", "0x15"} {
		if name, ok := documented[reserved]; !ok || name != "" {
			t.Errorf("§4 must list %s as reserved and unnamed, has %q (%v)", reserved, name, ok)
		}
		delete(documented, reserved)
	}
	for k, row := range frameTable {
		code := fmt.Sprintf("0x%02x", k)
		if row.new == nil {
			if name, ok := documented[code]; ok {
				t.Errorf("§4 lists %s %s, which is not in the frame table", code, name)
			}
			continue
		}
		if documented[code] != row.name {
			t.Errorf("frame table has %s %s; §4 has %q", code, row.name, documented[code])
		}
		delete(documented, code)
	}
	if len(documented) != 0 {
		t.Errorf("§4 rows without a frame table row: %v", documented)
	}
}

func TestMsgBodyRoundTrip(t *testing.T) {
	for _, m := range testMsgs(t) {
		body, err := EncodeMsgBody(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeMsgBody(body)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("log record round trip:\n got %v\nwant %v", got, m)
		}
		if _, err := DecodeMsgBody(append(body, 0x00)); err == nil {
			t.Fatal("trailing bytes accepted in log record")
		}
	}
}

// checkAccepted is the fuzz property: whatever DecodeFrame accepts must
// re-encode, and the re-encoding must decode to an equal value. (Byte
// equality with the input is too strict: Uvarint tolerates non-minimal
// encodings on input.)
func checkAccepted(t *testing.T, kind byte, body []byte) {
	decoded, err := DecodeFrame(append([]byte{kind}, body...))
	if err != nil {
		return
	}
	re, err := encodeFrame(kind, decoded.(frame))
	if err != nil {
		t.Fatalf("accepted %T does not re-encode: %v", decoded, err)
	}
	again, err := DecodeFrame(re)
	if err != nil {
		t.Fatalf("re-encoded %T does not decode: %v", decoded, err)
	}
	if !reflect.DeepEqual(again, decoded) {
		t.Fatalf("%T not stable under re-encoding:\n got %+v\nwant %+v", decoded, again, decoded)
	}
}

// FuzzDecodeFrame fuzzes every kind's decoder through the one entry point:
// arbitrary bodies behind any kind byte decode cleanly or fail cleanly,
// never panic, and whatever is accepted satisfies checkAccepted. Seeded
// from the sample table; testdata/fuzz holds the regression corpus.
func FuzzDecodeFrame(f *testing.F) {
	for _, s := range frameSamples(f) {
		frame := mustEncode(f, s.kind, s.f)
		f.Add(frame[0], frame[1:])
	}
	f.Add(byte(kindOps), []byte{})
	for _, h := range retiredFrames {
		frame, _ := hex.DecodeString(h)
		f.Add(frame[0], frame[1:])
	}
	f.Fuzz(checkAccepted)
}

// fuzzBodies is FuzzDecodeFrame narrowed to a few kinds, every one tried
// on each input body.
func fuzzBodies(f *testing.F, kinds ...byte) {
	for _, s := range samplesOf(f, kinds...) {
		f.Add(mustEncode(f, s.kind, s.f)[1:])
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF})
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, kind := range kinds {
			checkAccepted(t, kind, body)
		}
	})
}

func FuzzSnapFrame(f *testing.F) {
	f.Add(retiredBody(f, 0x03))
	fuzzBodies(f, kindSnapChunk)
}
func FuzzDocFrame(f *testing.F) {
	f.Add(retiredBody(f, 0x12))
	f.Add(retiredBody(f, 0x15))
	fuzzBodies(f, kindDocFrame, kindHello, kindHelloResp, kindDetach)
}
func FuzzFlattenFrame(f *testing.F) {
	fuzzBodies(f, kindFlatAck, kindOps, kindSnapChunk)
}
func FuzzReplayFrame(f *testing.F) { fuzzBodies(f, kindReplay) }
func FuzzRingFrame(f *testing.F) {
	f.Add(retiredBody(f, 0x10))
	fuzzBodies(f, kindRingAnnounce, kindHandoffBegin, kindForward, kindHello)
}
