package transport

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/treedoc/treedoc/internal/causal"
	"github.com/treedoc/treedoc/internal/core"
	"github.com/treedoc/treedoc/internal/vclock"
)

// blobReplica is a test replica whose snapshot is an opaque blob of any
// size — the transport never looks inside snapshot bytes, so the table
// below can pick sizes around the chunk boundary freely. It installs
// exactly the snapshot it was told to expect, and records it.
type blobReplica struct {
	*testReplica
	wantSnap    []byte
	wantVersion vclock.VC
	installed   []byte
}

func (r *blobReplica) InstallSnapshot(data []byte) (vclock.VC, error) {
	if !bytes.Equal(data, r.wantSnap) {
		return nil, fmt.Errorf("blobReplica: reassembled %d bytes, want the %d-byte source snapshot", len(data), len(r.wantSnap))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.installed = data
	return r.wantVersion.Clone(), nil
}

func (r *blobReplica) state() ([]byte, string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.installed, r.doc.ContentString()
}

// TestStateFramesReproduceSource is the contract of the one state-transfer
// encoder: for every snapshot size around the chunk boundary and every
// suffix shape, feeding the emitted frames in order to a fresh engine
// reproduces the source's clock and content — once addressed as a directed
// digest answer (the engine answer path) and once inside the hub-to-hub
// envelope through a hub (the handoff path: an old archivist left behind
// in forward mode answers its successor's digest that way).
func TestStateFramesReproduceSource(t *testing.T) {
	defer func(pay int) { snapChunkPayload = pay }(snapChunkPayload)
	const chunk = 64
	snapChunkPayload = chunk
	const covered = 5 // ops the snapshot stands in for
	fat := strings.Repeat("x", 600<<10)
	many := make([]string, syncChunk+1)
	for i := range many {
		many[i] = fmt.Sprintf("m%d ", i)
	}
	suffixes := []struct {
		name      string
		atoms     []string
		opsFrames int
	}{
		{"none", nil, 0},
		{"one", []string{"solo"}, 1},
		{"chunk+1", many, 2},
		// Two fat atoms cannot share a frame, so the chunk falls back to
		// one frame per op.
		{"fat", []string{"a", fat, fat, "b"}, 4},
	}

	hub, err := ListenHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()

	for _, size := range []int{0, 1, chunk - 1, chunk, chunk + 1, 3 * chunk} {
		for si, sfx := range suffixes {
			// The source: a snapshot of `size` opaque bytes standing in for
			// the first ops of site 1, then the suffix stamped above it.
			var snap []byte
			var version vclock.VC
			doc, err := core.NewDocument(core.Config{Site: 1})
			if err != nil {
				t.Fatal(err)
			}
			stamper := causal.NewBuffer(1)
			if size > 0 {
				snap = bytes.Repeat([]byte{byte(size)}, size)
				for i := 0; i < covered; i++ {
					op, err := doc.InsertAt(i, "s")
					if err != nil {
						t.Fatal(err)
					}
					stamper.Stamp(op)
				}
				version = stamper.Clock()
			}
			var suffix []causal.Message
			for _, atom := range sfx.atoms {
				op, err := doc.InsertAt(doc.Len(), atom)
				if err != nil {
					t.Fatal(err)
				}
				suffix = append(suffix, stamper.Stamp(op))
			}
			wantClock := stamper.Clock()

			var frames [][]byte
			skipped, err := stateFrames(1, snap, version, suffix, func(f []byte) error {
				frames = append(frames, f)
				return nil
			})
			if err != nil || skipped != 0 {
				t.Fatalf("snap %d, suffix %s: stateFrames skipped %d, err %v", size, sfx.name, skipped, err)
			}
			if want := (size+chunk-1)/chunk + sfx.opsFrames; len(frames) != want {
				t.Fatalf("snap %d, suffix %s: %d frames, want %d", size, sfx.name, len(frames), want)
			}
			if len(frames) == 0 {
				continue
			}

			for _, path := range []string{"answer", "handoff"} {
				t.Run(fmt.Sprintf("snap%d/%s/%s", size, sfx.name, path), func(t *testing.T) {
					rep := &blobReplica{testReplica: newTestReplica(t, 9), wantSnap: snap, wantVersion: version}
					eng, err := NewEngine(9, rep, WithSyncInterval(10*time.Millisecond))
					if err != nil {
						t.Fatal(err)
					}
					defer eng.Stop()
					var send func(frame []byte) error
					if path == "answer" {
						a, b := ChanPair(16)
						eng.Connect(b)
						send = func(frame []byte) error {
							f, err := encodeReplay(9, frame)
							if err != nil {
								return err
							}
							return a.Send(f)
						}
					} else {
						docID := fmt.Sprintf("moved-%d-%d", size, si)
						link, err := DialDoc(hub.Addr().String(), docID)
						if err != nil {
							t.Fatal(err)
						}
						eng.Connect(link)
						mesh, err := Dial(hub.Addr().String())
						if err != nil {
							t.Fatal(err)
						}
						defer mesh.Close()
						send = func(frame []byte) error {
							f, err := encodeEnvelope(kindForward, docID, frame)
							if err != nil {
								return err
							}
							return mesh.Send(f)
						}
					}
					for _, f := range frames {
						if err := send(f); err != nil {
							t.Fatal(err)
						}
					}
					deadline := time.Now().Add(10 * time.Second)
					for !vcEqual(eng.Clock(), wantClock) {
						if time.Now().After(deadline) {
							t.Fatalf("clock %v, want %v (wire errs %d)", eng.Clock(), wantClock, eng.Stats().WireErrs)
						}
						time.Sleep(2 * time.Millisecond)
					}
					installed, content := rep.state()
					if !bytes.Equal(installed, snap) {
						t.Fatalf("installed %d snapshot bytes, want %d", len(installed), len(snap))
					}
					if want := strings.Join(sfx.atoms, "\n"); content != want {
						t.Fatalf("applied %d bytes of suffix atoms, want the %d in source order", len(content), len(want))
					}
					if err := eng.Err(); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}
