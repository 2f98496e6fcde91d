package transport

import (
	"bufio"
	"bytes"
	"net"
	"reflect"
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

func TestDocFrameRoundTrip(t *testing.T) {
	inner, err := EncodeSyncReq(7, vclock.VC{7: 4})
	if err != nil {
		t.Fatal(err)
	}
	env, err := EncodeDocFrame("notes", inner)
	if err != nil {
		t.Fatal(err)
	}
	doc, got, err := SplitDocFrame(env)
	if err != nil {
		t.Fatal(err)
	}
	if doc != "notes" || !bytes.Equal(got, inner) {
		t.Fatalf("split (%q, %x), want (notes, %x)", doc, got, inner)
	}
	decoded, err := DecodeFrame(env)
	if err != nil {
		t.Fatal(err)
	}
	df, ok := decoded.(*DocFrame)
	if !ok {
		t.Fatalf("decoded %T, want *DocFrame", decoded)
	}
	if df.Doc != "notes" || !bytes.Equal(df.Inner, inner) {
		t.Fatalf("decoded %+v", df)
	}
	// The inner frame decodes independently.
	if _, err := DecodeFrame(df.Inner); err != nil {
		t.Fatalf("inner frame rejected: %v", err)
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
	inner, err := EncodeSnapChunk(3, vclock.VC{3: 9}, uint64(len(data)), 0, data)
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

func TestHelloRoundTrip(t *testing.T) {
	docs := []string{"notes", "design", "default"}
	frame, err := EncodeHello(docs)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	hf, ok := decoded.(*HelloFrame)
	if !ok {
		t.Fatalf("decoded %T, want *HelloFrame", decoded)
	}
	if !reflect.DeepEqual(hf.Docs, docs) {
		t.Fatalf("round trip: %v", hf.Docs)
	}
	if _, err := EncodeHello(nil); err == nil {
		t.Fatal("empty doc list accepted")
	}
	if _, err := EncodeHello([]string{"bad doc"}); err == nil {
		t.Fatal("invalid doc id accepted")
	}
}

func TestDetachRoundTrip(t *testing.T) {
	frame, err := EncodeDetach([]string{"notes"})
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	df, ok := decoded.(*DetachFrame)
	if !ok {
		t.Fatalf("decoded %T, want *DetachFrame", decoded)
	}
	if !reflect.DeepEqual(df.Docs, []string{"notes"}) {
		t.Fatalf("round trip: %v", df.Docs)
	}
}

func TestHelloRespRoundTrip(t *testing.T) {
	entries := []HelloEntry{
		{Doc: "notes"},
		{Doc: "design", Redirect: "10.0.0.2:9707"},
	}
	frame, err := EncodeHelloResp(entries)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	hr, ok := decoded.(*HelloRespFrame)
	if !ok {
		t.Fatalf("decoded %T, want *HelloRespFrame", decoded)
	}
	if !reflect.DeepEqual(hr.Entries, entries) {
		t.Fatalf("round trip: %+v", hr.Entries)
	}
	if _, err := EncodeHelloResp([]HelloEntry{{Doc: "x", Redirect: strings.Repeat("a", maxRedirectAddr+1)}}); err == nil {
		t.Fatal("oversized redirect accepted")
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
	if n := hub.Unrouted(); n != 1 {
		t.Fatalf("Unrouted = %d, want 1", n)
	}
	stats := hub.DocStats()
	if st, ok := stats["scoped"]; len(stats) != 1 || !ok || st.Clients != 1 || st.Relays != 0 {
		t.Fatalf("bare frame minted a relay group or reached an attached client: %+v", stats)
	}
}

// FuzzDocFrame fuzzes the doc-scoped envelope and handshake decoders: the
// decoder must never panic, and anything it accepts must re-encode to an
// equivalent frame.
func FuzzDocFrame(f *testing.F) {
	if inner, err := EncodeSyncReq(3, vclock.VC{1: 5}); err == nil {
		if env, err := EncodeDocFrame("notes", inner); err == nil {
			f.Add(env)
		}
	}
	if frame, err := EncodeHello([]string{"a", "b"}); err == nil {
		f.Add(frame)
	}
	if frame, err := EncodeHelloResp([]HelloEntry{{Doc: "a"}, {Doc: "b", Redirect: "h:1"}}); err == nil {
		f.Add(frame)
	}
	if frame, err := EncodeDetach([]string{"a"}); err == nil {
		f.Add(frame)
	}
	f.Add([]byte{kindDocFrame, 0x01, 'a', kindSyncReq})
	f.Add([]byte{kindHello, 0x01, 0x01, 'a'})
	f.Fuzz(func(t *testing.T, data []byte) {
		decoded, err := DecodeFrame(data)
		if err != nil {
			return
		}
		switch d := decoded.(type) {
		case *DocFrame:
			re, err := EncodeDocFrame(d.Doc, d.Inner)
			if err != nil {
				t.Fatalf("accepted doc frame failed to re-encode: %v", err)
			}
			doc, inner, err := SplitDocFrame(re)
			if err != nil {
				t.Fatalf("re-encoded doc frame rejected: %v", err)
			}
			if doc != d.Doc || !bytes.Equal(inner, d.Inner) {
				t.Fatal("doc frame not stable under re-encoding")
			}
		case *HelloFrame:
			enc := EncodeHello
			if d.Forward {
				enc = EncodeHelloForward
			}
			re, err := enc(d.Docs)
			if err != nil {
				t.Fatalf("accepted hello failed to re-encode: %v", err)
			}
			again, err := DecodeFrame(re)
			if err != nil || !reflect.DeepEqual(again, decoded) {
				t.Fatalf("hello not stable under re-encoding: %v", err)
			}
		case *HelloRespFrame:
			re, err := EncodeHelloResp(d.Entries)
			if err != nil {
				t.Fatalf("accepted hello resp failed to re-encode: %v", err)
			}
			again, err := DecodeFrame(re)
			if err != nil || !reflect.DeepEqual(again, decoded) {
				t.Fatalf("hello resp not stable under re-encoding: %v", err)
			}
		case *DetachFrame:
			re, err := EncodeDetach(d.Docs)
			if err != nil {
				t.Fatalf("accepted detach failed to re-encode: %v", err)
			}
			again, err := DecodeFrame(re)
			if err != nil || !reflect.DeepEqual(again, decoded) {
				t.Fatalf("detach not stable under re-encoding: %v", err)
			}
		}
	})
}
