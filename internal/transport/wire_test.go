package transport

import (
	"bufio"
	"bytes"
	"reflect"
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

func TestOpsFrameRoundTrip(t *testing.T) {
	msgs := testMsgs(t)
	frame, err := EncodeOps(msgs)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	f, ok := decoded.(*OpsFrame)
	if !ok {
		t.Fatalf("decoded %T, want *OpsFrame", decoded)
	}
	if !reflect.DeepEqual(f.Msgs, msgs) {
		t.Fatalf("round trip mismatch:\n got %v\nwant %v", f.Msgs, msgs)
	}
}

func TestSyncReqRoundTrip(t *testing.T) {
	clock := vclock.VC{1: 5, 9: 2, ident.MaxSiteID: 7}
	frame, err := EncodeSyncReq(3, clock)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	f, ok := decoded.(*SyncReqFrame)
	if !ok {
		t.Fatalf("decoded %T, want *SyncReqFrame", decoded)
	}
	if f.From != 3 || !reflect.DeepEqual(f.Clock, clock) {
		t.Fatalf("round trip mismatch: %v %v", f.From, f.Clock)
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

// FuzzDecodeFrame asserts the wire decoder never panics and that anything
// it accepts re-encodes to an equivalent frame.
func FuzzDecodeFrame(f *testing.F) {
	msgs := testMsgs(f)
	if frame, err := EncodeOps(msgs); err == nil {
		f.Add(frame)
	}
	if frame, err := EncodeSyncReq(3, vclock.VC{1: 5, 9: 2}); err == nil {
		f.Add(frame)
	}
	f.Add([]byte{kindOps, 0x00})
	f.Add([]byte{kindSyncReq, 0x01, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		decoded, err := DecodeFrame(data)
		if err != nil {
			return
		}
		switch d := decoded.(type) {
		case *OpsFrame:
			re, err := EncodeOps(d.Msgs)
			if err != nil {
				t.Fatalf("accepted ops frame failed to re-encode: %v", err)
			}
			again, err := DecodeFrame(re)
			if err != nil {
				t.Fatalf("re-encoded ops frame rejected: %v", err)
			}
			if !reflect.DeepEqual(again, decoded) {
				t.Fatalf("ops frame not stable under re-encoding")
			}
		case *SyncReqFrame:
			re, err := EncodeSyncReq(d.From, d.Clock)
			if err != nil {
				t.Fatalf("accepted sync frame failed to re-encode: %v", err)
			}
			again, err := DecodeFrame(re)
			if err != nil {
				t.Fatalf("re-encoded sync frame rejected: %v", err)
			}
			if !reflect.DeepEqual(again, decoded) {
				t.Fatalf("sync frame not stable under re-encoding")
			}
		}
	})
}

func TestSnapReqRoundTrip(t *testing.T) {
	clock := vclock.VC{1: 5, 9: 2}
	frame, err := EncodeSnapReq(4, clock)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	f, ok := decoded.(*SnapReqFrame)
	if !ok {
		t.Fatalf("decoded %T, want *SnapReqFrame", decoded)
	}
	if f.From != 4 || !reflect.DeepEqual(f.Clock, clock) {
		t.Fatalf("round trip: %+v", f)
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

// FuzzSnapFrame fuzzes the snapshot catch-up frame kinds specifically:
// arbitrary bodies behind kindSnapReq and kindSnapChunk bytes must decode
// cleanly or fail cleanly, never panic, and valid frames must survive
// re-encoding.
func FuzzSnapFrame(f *testing.F) {
	if fr, err := EncodeSnapReq(4, vclock.VC{1: 5, 9: 2}); err == nil {
		f.Add(fr[1:])
	}
	// A whole small snapshot is a one-chunk sequence.
	snap := []byte("snapshot-bytes")
	if fr, err := EncodeSnapChunk(2, vclock.VC{1: 100}, uint64(len(snap)), 0, snap); err == nil {
		f.Add(fr[1:])
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF})
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, kind := range []byte{kindSnapReq, kindSnapChunk} {
			frame := append([]byte{kind}, body...)
			decoded, err := DecodeFrame(frame)
			if err != nil {
				continue
			}
			// Whatever decodes must semantically round-trip: re-encoding and
			// re-decoding yields the same frame (byte equality is too strict,
			// since Uvarint tolerates non-minimal encodings on input).
			var re []byte
			switch fr := decoded.(type) {
			case *SnapReqFrame:
				re, err = EncodeSnapReq(fr.From, fr.Clock)
			case *SnapChunkFrame:
				re, err = EncodeSnapChunk(fr.From, fr.Version, fr.Total, fr.Offset, fr.Data)
			default:
				t.Fatalf("kind %#x decoded to %T", kind, decoded)
			}
			if err != nil {
				t.Fatalf("decoded %T does not re-encode: %v", decoded, err)
			}
			again, err := DecodeFrame(re)
			if err != nil {
				t.Fatalf("re-encoded %T does not decode: %v", decoded, err)
			}
			if !reflect.DeepEqual(again, decoded) {
				t.Fatalf("snapshot frame round trip:\n got %+v\nwant %+v", again, decoded)
			}
		}
	})
}
