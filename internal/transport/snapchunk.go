package transport

// State transfer: snapshot catch-up, digest answers and the live batch
// fanout are one operation at different distances — ship what lies
// between the receiver's clock and the sender's — so they share one
// encoder (stateFrames) and one install path (handleSnapChunk). A
// snapshot travels as kindSnapChunk frames and is reassembled at the
// receiver.
// Chunks are consumed strictly in offset order — links deliver frames in
// order, and a chunk lost to a full queue voids the reassembly, which
// restarts when the sender re-offers the snapshot after snapResendAfter.

import (
	"time"

	"github.com/treedoc/treedoc/internal/causal"
	"github.com/treedoc/treedoc/internal/ident"
	"github.com/treedoc/treedoc/internal/vclock"
)

// snapChunkPayload is the data carried per chunk frame. A variable rather
// than a constant so multi-chunk sequences are testable without 64 MiB
// documents; the production value never changes.
var snapChunkPayload = 32 << 20

// stateFrames encodes "the state since a clock" and hands the frames to
// emit in the order a receiver must see them: the snapshot (none when
// snap is empty) as kindSnapChunk frames of at most snapChunkPayload
// bytes, then the suffix as kindOps frames of at most syncChunk
// operations. A chunk of large atoms that will not fit one frame falls
// back to one frame per op, so one fat chunk cannot starve the rest of
// the stream and leave the receiver permanently behind; an op that will
// not fit a frame even alone is skipped and counted. An emit error stops
// the stream and is returned; a stream that ends with ops skipped returns
// the first one's encode error.
func stateFrames(site ident.SiteID, snap []byte, version vclock.VC, suffix []causal.Message, emit func(frame []byte) error) (skipped int, failed error) {
	total := uint64(len(snap))
	for off := uint64(0); off < total; off += uint64(snapChunkPayload) {
		end := min(off+uint64(snapChunkPayload), total)
		frame, err := encodeFrame(kindSnapChunk, &SnapChunkFrame{From: site, Version: version, Total: total, Offset: off, Data: snap[off:end]})
		if err != nil {
			return 0, err
		}
		if err := emit(frame); err != nil {
			return 0, err
		}
	}
	for len(suffix) > 0 {
		chunk := suffix[:min(len(suffix), syncChunk)]
		suffix = suffix[len(chunk):]
		if frame, err := EncodeOps(chunk); err == nil {
			if err := emit(frame); err != nil {
				return skipped, err
			}
			continue
		}
		for i := range chunk {
			frame, err := EncodeOps(chunk[i : i+1])
			if err != nil {
				if skipped++; skipped == 1 {
					failed = err
				}
				continue
			}
			if err := emit(frame); err != nil {
				return skipped, err
			}
		}
	}
	return skipped, failed
}

// snapAssembly is one in-progress snapshot reassembly.
type snapAssembly struct {
	version vclock.VC
	total   uint64
	buf     []byte
	// lastChunk is refreshed on every accepted chunk: the GC must void
	// stalled assemblies, not slow ones — a multi-gigabyte transfer may
	// legitimately take far longer than the TTL end to end.
	lastChunk time.Time
}

// handleSnapChunk consumes one chunk and installs the snapshot once the
// last one arrives. Out-of-sequence chunks (a different snapshot version,
// a mismatched total, or a gap from a dropped frame) void the assembly;
// only a chunk at offset 0 starts a new one. The buffer grows with the
// data actually received, so a hostile total cannot force a large
// allocation up front. Stale or duplicate snapshots are ignored —
// through a relay hub, one digest can draw snapshots from several peers
// at once.
func (e *Engine) handleSnapChunk(f *SnapChunkFrame) {
	if f.From == e.site {
		return
	}
	if e.buf.Clock().Dominates(f.Version) {
		delete(e.snapAsm, f.From) // already covered: duplicate or stale
		return
	}
	asm := e.snapAsm[f.From]
	if asm == nil || !vcEqual(asm.version, f.Version) || asm.total != f.Total || uint64(len(asm.buf)) != f.Offset {
		delete(e.snapAsm, f.From)
		if f.Offset != 0 {
			return
		}
		if e.snapAsm == nil {
			e.snapAsm = make(map[ident.SiteID]*snapAssembly)
		}
		asm = &snapAssembly{version: f.Version.Clone(), total: f.Total}
		e.snapAsm[f.From] = asm
	}
	asm.buf = append(asm.buf, f.Data...)
	asm.lastChunk = e.now()
	if uint64(len(asm.buf)) >= asm.total {
		delete(e.snapAsm, f.From)
		e.installSnapshot(asm.buf)
	}
}

// gcSnapAssemblies drops reassemblies that stalled (their sender stopped,
// or a chunk was lost and no re-offer arrived), bounding the memory
// partial snapshots can pin.
func (e *Engine) gcSnapAssemblies() {
	for s, asm := range e.snapAsm {
		if e.now().Sub(asm.lastChunk) > snapAssemblyTTL {
			delete(e.snapAsm, s)
		}
	}
}
