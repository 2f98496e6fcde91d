package transport

// Wire tests for the flatten commitment frames and the chunked snapshot
// frames this package's engine drives.

import (
	"bufio"
	"bytes"
	"reflect"
	"strings"
	"testing"

	"github.com/treedoc/treedoc/internal/ident"
	"github.com/treedoc/treedoc/internal/vclock"
)

// structuralPath builds a valid flatten subtree path: walk right, then
// left, ending at a major node.
func structuralPath() ident.Path {
	return ident.Path{
		{Bit: 1, Kind: ident.Major},
		{Bit: 0, Kind: ident.Major},
	}
}

func TestFlatProposeRoundTrip(t *testing.T) {
	for _, path := range []ident.Path{nil, structuralPath()} {
		obs := vclock.VC{3: 41, 9: 7}
		frame, err := EncodeFlatPropose(3, 12, path, obs)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := DecodeFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		f, ok := decoded.(*FlatProposeFrame)
		if !ok {
			t.Fatalf("decoded %T, want *FlatProposeFrame", decoded)
		}
		if f.From != 3 || f.N != 12 || !reflect.DeepEqual(f.Obs, obs) {
			t.Fatalf("round trip mismatch: %+v", f)
		}
		if len(f.Path) != len(path) {
			t.Fatalf("path mismatch: got %v want %v", f.Path, path)
		}
		for i := range path {
			if f.Path[i] != path[i] {
				t.Fatalf("path mismatch: got %v want %v", f.Path, path)
			}
		}
	}
}

func TestFlatVoteRoundTrip(t *testing.T) {
	for _, yes := range []bool{true, false} {
		frame, err := EncodeFlatVote(5, 3, 12, yes)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := DecodeFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		f, ok := decoded.(*FlatVoteFrame)
		if !ok {
			t.Fatalf("decoded %T, want *FlatVoteFrame", decoded)
		}
		if f.From != 5 || f.Coord != 3 || f.N != 12 || f.Yes != yes {
			t.Fatalf("round trip mismatch: %+v", f)
		}
	}
}

func TestFlatDecisionRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		commit bool
		seq    uint64
	}{{true, 77}, {false, 0}} {
		frame, err := EncodeFlatDecision(3, 12, tc.commit, tc.seq, structuralPath())
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := DecodeFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		f, ok := decoded.(*FlatDecisionFrame)
		if !ok {
			t.Fatalf("decoded %T, want *FlatDecisionFrame", decoded)
		}
		if f.From != 3 || f.N != 12 || f.Commit != tc.commit || f.Seq != tc.seq || len(f.Path) != 2 {
			t.Fatalf("round trip mismatch: %+v", f)
		}
	}
}

func TestFlatFramesRejectMalformed(t *testing.T) {
	// An atom identifier (ending in a mini element) is not a flatten
	// subtree path.
	atomPath := ident.Path{{Bit: 1, Kind: ident.Mini, Dis: ident.Dis{Site: 4}}}
	if frame, err := EncodeFlatPropose(3, 1, atomPath, vclock.New()); err == nil {
		if _, err := DecodeFrame(frame); err == nil {
			t.Fatal("propose with an atom path decoded")
		}
	}

	vote, err := EncodeFlatVote(5, 3, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), vote...)
	bad[len(bad)-1] = 2 // vote byte must be 0 or 1
	if _, err := DecodeFrame(bad); err == nil {
		t.Fatal("vote byte 2 decoded")
	}
	if _, err := DecodeFrame(vote[:len(vote)-1]); err == nil {
		t.Fatal("truncated vote decoded")
	}

	prop, err := EncodeFlatPropose(3, 1, structuralPath(), vclock.VC{3: 9})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(prop); cut++ {
		if _, err := DecodeFrame(prop[:cut]); err == nil {
			t.Fatalf("truncated propose (%d bytes) decoded", cut)
		}
	}
	if _, err := DecodeFrame(append(append([]byte(nil), prop...), 0xff)); err == nil {
		t.Fatal("propose with trailing bytes decoded")
	}
}

func TestSnapChunkRoundTrip(t *testing.T) {
	version := vclock.VC{2: 9, 4: 1}
	data := bytes.Repeat([]byte{0xab}, 1000)
	frame, err := EncodeSnapChunk(2, version, 5000, 2000, data)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	f, ok := decoded.(*SnapChunkFrame)
	if !ok {
		t.Fatalf("decoded %T, want *SnapChunkFrame", decoded)
	}
	if f.From != 2 || f.Total != 5000 || f.Offset != 2000 ||
		!reflect.DeepEqual(f.Version, version) || !bytes.Equal(f.Data, data) {
		t.Fatalf("round trip mismatch: %+v", f)
	}
}

func TestSnapChunkRejectsMalformed(t *testing.T) {
	version := vclock.VC{2: 9}
	// Slice outside the claimed total.
	frame, err := EncodeSnapChunk(2, version, 100, 90, bytes.Repeat([]byte{1}, 20))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeFrame(frame); err == nil {
		t.Fatal("chunk outside total decoded")
	}
	// Zero total.
	frame, err = EncodeSnapChunk(2, version, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeFrame(frame); err == nil {
		t.Fatal("zero-total chunk decoded")
	}
	// Total beyond the reassembly ceiling.
	frame, err = EncodeSnapChunk(2, version, MaxSnapshotSize+1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeFrame(frame); err == nil {
		t.Fatal("over-ceiling total decoded")
	}
	// Empty version.
	frame, err = EncodeSnapChunk(2, vclock.New(), 100, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeFrame(frame); err == nil {
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
	frame, err := EncodeSnapChunk(2, version, uint64(len(big)), 0, big)
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
	if _, err := EncodeSnapChunk(2, version, MaxSnapFrameSize, 0, make([]byte, MaxSnapFrameSize)); err == nil {
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

// FuzzFlattenFrame fuzzes the flatten commitment frames (kindFlatPropose,
// kindFlatVote, kindFlatDecision) and the chunked snapshot frame
// (kindSnapChunk): arbitrary bodies behind those kind bytes must decode
// cleanly or fail cleanly, never panic, and whatever decodes must
// semantically round-trip through its encoder.
func FuzzFlattenFrame(f *testing.F) {
	if fr, err := EncodeFlatPropose(3, 12, structuralPath(), vclock.VC{3: 41, 9: 7}); err == nil {
		f.Add(fr)
	}
	if fr, err := EncodeFlatVote(4, 3, 12, true); err == nil {
		f.Add(fr)
	}
	if fr, err := EncodeFlatDecision(3, 12, true, 99, structuralPath()); err == nil {
		f.Add(fr)
	}
	if fr, err := EncodeSnapChunk(2, vclock.VC{2: 8}, 64, 16, []byte("chunk-bytes")); err == nil {
		f.Add(fr)
	}
	f.Add([]byte{kindFlatPropose, 0xFF})
	f.Add([]byte{kindFlatVote})
	f.Add([]byte{kindFlatDecision, 0x00, 0x01})
	f.Add([]byte{kindSnapChunk, 0x80})
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, kind := range []byte{kindFlatPropose, kindFlatVote, kindFlatDecision, kindSnapChunk} {
			frame := append([]byte{kind}, body...)
			decoded, err := DecodeFrame(frame)
			if err != nil {
				continue
			}
			// Re-encoding and re-decoding must yield the same frame (byte
			// equality is too strict, since Uvarint tolerates non-minimal
			// encodings on input).
			var re []byte
			switch fr := decoded.(type) {
			case *FlatProposeFrame:
				re, err = EncodeFlatPropose(fr.From, fr.N, fr.Path, fr.Obs)
			case *FlatVoteFrame:
				re, err = EncodeFlatVote(fr.From, fr.Coord, fr.N, fr.Yes)
			case *FlatDecisionFrame:
				re, err = EncodeFlatDecision(fr.From, fr.N, fr.Commit, fr.Seq, fr.Path)
			case *SnapChunkFrame:
				re, err = EncodeSnapChunk(fr.From, fr.Version, fr.Total, fr.Offset, fr.Data)
			default:
				t.Fatalf("kind %#x decoded to %T", kind, decoded)
			}
			if err != nil {
				t.Fatalf("decoded kind %#x frame does not re-encode: %v", kind, err)
			}
			again, err := DecodeFrame(re)
			if err != nil {
				t.Fatalf("re-encoded kind %#x frame does not decode: %v", kind, err)
			}
			if !reflect.DeepEqual(again, decoded) {
				t.Fatalf("kind %#x round trip:\n got %+v\nwant %+v", kind, again, decoded)
			}
		}
	})
}
