package transport

import (
	"bufio"
	"bytes"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/treedoc/treedoc/internal/vclock"
)

func TestValidateDocID(t *testing.T) {
	for _, ok := range []string{"default", "a", "notes-2026", "a.b_c-D9", strings.Repeat("x", MaxDocIDLen)} {
		if err := ValidateDocID(ok); err != nil {
			t.Errorf("ValidateDocID(%q) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []string{"", ".", "..", ".hidden", "a/b", "a b", "a\x00b", "ä", strings.Repeat("x", MaxDocIDLen+1)} {
		if err := ValidateDocID(bad); err == nil {
			t.Errorf("ValidateDocID(%q) accepted", bad)
		}
	}
}

func TestDocFrameRejects(t *testing.T) {
	inner, err := EncodeSyncReq(7, vclock.VC{7: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EncodeDocFrame("bad/doc", inner); err == nil {
		t.Fatal("invalid doc id accepted")
	}
	if _, err := EncodeDocFrame("notes", nil); err == nil {
		t.Fatal("empty inner frame accepted")
	}
	env, err := EncodeDocFrame("notes", inner)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EncodeDocFrame("notes", env); err == nil {
		t.Fatal("nested envelope accepted")
	}
	if _, _, err := SplitDocFrame(inner); err == nil {
		t.Fatal("non-envelope frame split")
	}
	// A truncated envelope (doc id length pointing past the end).
	if _, _, err := SplitDocFrame([]byte{kindDocFrame, 0x20, 'a'}); err == nil {
		t.Fatal("truncated envelope split")
	}
}

func TestDocFrameCarriesSnapshots(t *testing.T) {
	// The envelope must admit a full-size snapshot frame: its ceiling is
	// the snap ceiling plus the envelope overhead, and WriteFrame/ReadFrame
	// must round-trip it.
	data := bytes.Repeat([]byte{0xAB}, MaxSnapFrameSize-1024)
	inner, err := encodeFrame(kindSnapChunk, &SnapChunkFrame{From: 3, Version: vclock.VC{3: 9}, Total: uint64(len(data)), Data: data})
	if err != nil {
		t.Fatal(err)
	}
	env, err := EncodeDocFrame("big", inner)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, env); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, env) {
		t.Fatal("oversized envelope corrupted in transit")
	}
}

// TestHubClosesBareFrameClient: every hub connection is doc-scoped, so a
// client sending a bare data frame (an engine wired with Dial instead of
// DialDoc) must fail loudly — the frame mints no relay group, reaches no
// attached client, is counted in Unrouted, and the connection is closed.
func TestHubClosesBareFrameClient(t *testing.T) {
	hub, err := ListenHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	addr := hub.Addr().String()
	attached, err := DialDoc(addr, "scoped")
	if err != nil {
		t.Fatal(err)
	}
	defer attached.Close()

	raw, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	frame, err := EncodeOps(testMsgs(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := raw.Send(frame); err != nil {
		t.Fatal(err)
	}
	if err := raw.conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if f, err := raw.Recv(); err == nil {
		t.Fatalf("bare-frame client was sent a %d-byte frame instead of being closed", len(f))
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("bare-frame client was not disconnected")
	}
	if n := hub.Stats().Unrouted; n != 1 {
		t.Fatalf("Unrouted = %d, want 1", n)
	}
	stats := hub.DocStats()
	if st, ok := stats["scoped"]; len(stats) != 1 || !ok || st.Clients != 1 || st.Relays != 0 {
		t.Fatalf("bare frame minted a relay group or reached an attached client: %+v", stats)
	}
}
