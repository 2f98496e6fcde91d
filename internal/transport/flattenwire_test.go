package transport

// Wire tests for the flatten round's ack frame and operations, and the
// chunked snapshot frames this package's engine drives.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"github.com/treedoc/treedoc/internal/causal"
	"github.com/treedoc/treedoc/internal/core"
	"github.com/treedoc/treedoc/internal/ident"
	"github.com/treedoc/treedoc/internal/vclock"
)

// TestFlatFramesRejectMalformed: a round's operations name a region, so an
// intent or abort whose identifier is an atom's is refused inside a kindOps
// frame, and an ack is refused under every truncation and with a trailing
// byte.
func TestFlatFramesRejectMalformed(t *testing.T) {
	atom := ident.Pack(ident.Path{{Bit: 1, Kind: ident.Mini, Dis: ident.Dis{Site: 4}}})
	for _, kind := range []core.OpKind{core.OpIntent, core.OpAbort} {
		good := core.Op{Kind: kind, ID: ident.Pack(structuralPath()), Site: 3, Seq: 1}
		frame := mustEncode(t, kindOps, &OpsFrame{Msgs: []causal.Message{{From: 3, TS: vclock.VC{3: 1}, Payload: good}}})
		// The identifier is the op's last field: swap in the atom's bytes.
		bad := append(frame[:len(frame)-len(good.ID.AppendBinary(nil))], atom.AppendBinary(nil)...)
		if _, err := DecodeFrame(bad); err == nil {
			t.Errorf("%s at an atom decoded", kind)
		}
	}
	ack := mustEncode(t, kindFlatAck, &FlatAckFrame{From: 5, Author: 3, Intent: 1, Clock: vclock.VC{3: 1, 5: 9}})
	for cut := 1; cut < len(ack); cut++ {
		if _, err := DecodeFrame(ack[:cut]); err == nil {
			t.Fatalf("truncated ack (%d bytes) decoded", cut)
		}
	}
	if _, err := DecodeFrame(append(append([]byte(nil), ack...), 0xff)); err == nil {
		t.Fatal("ack with trailing bytes decoded")
	}
}

// rawSnapChunk lays a kindSnapChunk frame out by hand, unvalidated:
// encodeFrame refuses the malformed values the decoder must also refuse.
func rawSnapChunk(from ident.SiteID, version vclock.VC, total, offset uint64, data []byte) []byte {
	buf := binary.AppendUvarint([]byte{kindSnapChunk}, uint64(from))
	buf = version.AppendBinary(buf)
	buf = binary.AppendUvarint(buf, total)
	buf = binary.AppendUvarint(buf, offset)
	return append(buf, data...)
}

func TestSnapChunkRejectsMalformed(t *testing.T) {
	version := vclock.VC{2: 9}
	if _, err := DecodeFrame(rawSnapChunk(2, version, 100, 10, bytes.Repeat([]byte{1}, 20))); err != nil {
		t.Fatalf("well-formed raw chunk refused: %v", err)
	}
	// Slice outside the claimed total.
	if _, err := DecodeFrame(rawSnapChunk(2, version, 100, 90, bytes.Repeat([]byte{1}, 20))); err == nil {
		t.Fatal("chunk outside total decoded")
	}
	// Zero total.
	if _, err := DecodeFrame(rawSnapChunk(2, version, 0, 0, nil)); err == nil {
		t.Fatal("zero-total chunk decoded")
	}
	// Total beyond the reassembly ceiling.
	if _, err := DecodeFrame(rawSnapChunk(2, version, MaxSnapshotSize+1, 0, nil)); err == nil {
		t.Fatal("over-ceiling total decoded")
	}
	// Empty version.
	if _, err := DecodeFrame(rawSnapChunk(2, vclock.New(), 100, 0, nil)); err == nil {
		t.Fatal("empty-version chunk decoded")
	}
}

// TestSnapChunkFrameSizeLimit verifies a chunk frame may exceed
// MaxFrameSize (up to MaxSnapFrameSize) through encode, decode and the
// length-prefixed reader, while every other kind at that length — the
// retired single-frame snapshot kind 0x04 included — is refused before
// allocation.
func TestSnapChunkFrameSizeLimit(t *testing.T) {
	version := vclock.VC{2: 1}
	big := make([]byte, MaxFrameSize+1024)
	frame, err := encodeFrame(kindSnapChunk, &SnapChunkFrame{From: 2, Version: version, Total: uint64(len(big)), Data: big})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeFrame(frame); err != nil {
		t.Fatalf("big chunk frame rejected on decode: %v", err)
	}
	var wire bytes.Buffer
	if err := WriteFrame(&wire, frame); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(bufio.NewReader(bytes.NewReader(wire.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, frame) {
		t.Fatal("chunk frame corrupted through frame IO")
	}
	for _, kind := range []byte{kindOps, 0x04} {
		var hostile bytes.Buffer
		hostile.Write([]byte{0, 32, 0, 0}) // length 2MiB
		hostile.WriteByte(kind)
		hostile.Write(make([]byte, 64))
		if _, err := ReadFrame(bufio.NewReader(&hostile)); err == nil {
			t.Fatalf("oversized frame of kind %#x accepted", kind)
		}
	}
	// And beyond MaxSnapFrameSize nothing goes.
	if _, err := encodeFrame(kindSnapChunk, &SnapChunkFrame{From: 2, Version: version, Total: MaxSnapFrameSize, Data: make([]byte, MaxSnapFrameSize)}); err == nil {
		t.Fatal("chunk frame beyond MaxSnapFrameSize accepted")
	}
}

// TestRetiredSnapKindIsUnknown pins 0x04 (the single-frame snapshot) as
// reserved: a well-formed frame of the old layout decodes as an unknown
// kind, never as something else.
func TestRetiredSnapKindIsUnknown(t *testing.T) {
	old := []byte{0x04, 0x02}
	old = vclock.VC{1: 100}.AppendBinary(old)
	old = append(old, "snapshot-bytes"...)
	if _, err := DecodeFrame(old); err == nil || !strings.Contains(err.Error(), "unknown frame kind") {
		t.Fatalf("retired snapshot frame: err = %v, want unknown frame kind", err)
	}
}

// TestRetiredHandoffDoneKindIsUnknown pins 0x11 (kindHandoffDone, whose
// only effect at the receiver was a log line) the same way.
func TestRetiredHandoffDoneKindIsUnknown(t *testing.T) {
	old := []byte{0x11, 0x05, 'n', 'o', 't', 'e', 's', 0x04}
	if _, err := DecodeFrame(old); err == nil || !strings.Contains(err.Error(), "unknown frame kind") {
		t.Fatalf("retired handoff-done frame: err = %v, want unknown frame kind", err)
	}
}
