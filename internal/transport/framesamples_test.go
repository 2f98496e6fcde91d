package transport

import (
	"testing"

	"github.com/treedoc/treedoc/internal/causal"
	"github.com/treedoc/treedoc/internal/core"
	"github.com/treedoc/treedoc/internal/ident"
	"github.com/treedoc/treedoc/internal/vclock"
)

// frameSample is one valid frame value with its recorded bytes. All but the
// rows that carry operations or acks date from the commit before the frame
// table existed (4d74ac7): the proof that the table-driven codec did
// not move a byte on the wire. The ops, ops-mixed, ops-empty and
// docframe-replay-ops rows were re-recorded when identifiers became
// bit-packed and kindOps moved to 0x14; what the identifiers *are* is
// pinned apart from their encoding by TestGoldenIdentifiers. The flatack,
// ops-intent and ops-abort rows came with the flatten round's operations. Every test that needs "a frame of kind K" takes
// it from frameSamples.
type frameSample struct {
	name string
	kind byte
	f    frame
	hex  string
}

// structuralPath builds a valid flatten subtree path: walk right, then
// left, ending at a major node.
func structuralPath() ident.Path {
	return ident.Path{
		{Bit: 1, Kind: ident.Major},
		{Bit: 0, Kind: ident.Major},
	}
}

// sampleMsgs is a hand-built insert and delete, so the golden bytes depend
// on the wire layout alone and not on how a document allocates
// identifiers.
func sampleMsgs() []causal.Message {
	return []causal.Message{
		{From: 7, TS: vclock.VC{2: 9, 7: 3}, Payload: core.Op{
			Kind: core.OpInsert, Site: 7, Seq: 3, Atom: "é",
			ID: ident.Pack(ident.Path{{Bit: 1, Kind: ident.Major}, ident.M(0, ident.Dis{Counter: 4, Site: 7})}),
		}},
		{From: 7, TS: vclock.VC{2: 9, 7: 4}, Payload: core.Op{
			Kind: core.OpDelete, Site: 7, Seq: 4,
			ID: ident.Pack(ident.Path{ident.M(1, ident.Dis{Site: 2})}),
		}},
	}
}

// mixedMsgs is a batch no elision bit fits twice in a row: two senders
// interleaved, a clock that learns a foreign entry mid-run, an op issued by
// another site than the one relaying it, and a committed flatten.
func mixedMsgs() []causal.Message {
	p := ident.Path{ident.J(0), ident.J(1), ident.M(1, ident.Canonical), ident.M(0, ident.Dis{Site: ident.MaxSiteID})}
	id, id3 := ident.Pack(p), ident.Pack(p[:3])
	return []causal.Message{
		{From: 7, TS: vclock.VC{7: 1}, Payload: core.Op{Kind: core.OpInsert, Site: 7, Seq: 1, Atom: "a", ID: id}},
		{From: 7, TS: vclock.VC{7: 2}, Payload: core.Op{Kind: core.OpDelete, Site: 7, Seq: 2, ID: id}},
		{From: 9, TS: vclock.VC{7: 2, 9: 1}, Payload: core.Op{Kind: core.OpInsert, Site: 9, Seq: 1, ID: id3}},
		{From: 7, TS: vclock.VC{7: 3}, Payload: core.Op{Kind: core.OpFlatten, Site: 7, Seq: 3, ID: ident.Pack(structuralPath())}},
		{From: 7, TS: vclock.VC{7: 4, 9: 1}, Payload: core.Op{Kind: core.OpDelete, Site: 7, Seq: 4, ID: id3}},
		{From: 7, TS: vclock.VC{7: 5, 9: 1}, Payload: core.Op{Kind: core.OpDelete, Site: 3, Seq: 8, ID: id3}},
	}
}

// mustEncode encodes a frame the caller knows to be valid.
func mustEncode(t testing.TB, kind byte, f frame) []byte {
	t.Helper()
	b, err := encodeFrame(kind, f)
	if err != nil {
		t.Fatalf("encode %T: %v", f, err)
	}
	return b
}

// roundMsgs is a flatten round's intent at the whole document and at a
// subtree, from its author, relayed by another site, and its kind of
// decision: OpAbort or OpFlatten.
func roundMsgs(decision core.OpKind) []causal.Message {
	root, sub := ident.Pack(ident.Path{}), ident.Pack(structuralPath())
	return []causal.Message{
		{From: 3, TS: vclock.VC{3: 5}, Payload: core.Op{Kind: core.OpIntent, Site: 3, Seq: 5, ID: root}},
		{From: 3, TS: vclock.VC{3: 6}, Payload: core.Op{Kind: core.OpIntent, Site: 3, Seq: 6, ID: sub}},
		{From: 9, TS: vclock.VC{3: 6, 9: 1}, Payload: core.Op{Kind: decision, Site: 3, Seq: 7, ID: sub}},
	}
}

// frameSamples returns one or more valid values per kind: both flag states
// of the flagged kind, the ring query, a round's intents with either
// decision, and an envelope around a replay around ops.
func frameSamples(t testing.TB) []frameSample {
	digest := mustEncode(t, kindSyncReq, &SyncReqFrame{From: 7, Clock: vclock.VC{7: 4}})
	ops := mustEncode(t, kindOps, &OpsFrame{Msgs: sampleMsgs()})
	chunk := mustEncode(t, kindSnapChunk, &SnapChunkFrame{From: 2, Version: vclock.VC{2: 8}, Total: 64, Offset: 16, Data: []byte("chunk-bytes")})
	return []frameSample{
		{"ops", kindOps, &OpsFrame{Msgs: sampleMsgs()}, "14020907020209070302010103040702c3a90e010101010002"},
		{"ops-empty", kindOps, &OpsFrame{Msgs: []causal.Message{}}, "1400"},
		{"syncreq", kindSyncReq, &SyncReqFrame{From: 3, Clock: vclock.VC{1: 5, 9: 2, ident.MaxSiteID: 7}}, "02030301050902ffffffffffff3f07"},
		{"flatack", kindFlatAck, &FlatAckFrame{From: 5, Author: 3, Intent: 12, Clock: vclock.VC{3: 12, 5: 300}}, "1605030c02030c05ac02"},
		{"ops-intent", kindOps, &OpsFrame{Msgs: roundMsgs(core.OpFlatten)}, "1403180301030500001c020100030902030609010307020100"},
		{"ops-abort", kindOps, &OpsFrame{Msgs: roundMsgs(core.OpAbort)}, "1403180301030500001c020100110902030609010307020100"},
		{"snapchunk", kindSnapChunk, &SnapChunkFrame{From: 2, Version: vclock.VC{2: 9, 4: 1}, Total: 5000, Offset: 2000, Data: []byte("0123456789abcdef")}, "080202020904018827d00f30313233343536373839616263646566"},
		{"docframe", kindDocFrame, &DocFrame{Doc: "notes", Inner: digest}, "09056e6f7465730207010704"},
		{"docframe-replay-ops", kindDocFrame, &DocFrame{Doc: "a-b.c", Inner: mustEncode(t, kindReplay, &ReplayFrame{To: 42, Inner: ops})}, "0905612d622e63132a14020907020209070302010103040702c3a90e010101010002"},
		{"hello", kindHello, &HelloFrame{Docs: []string{"notes", "design", "default"}}, "0a03056e6f7465730664657369676e0764656661756c74"},
		{"hello-forward", kindHello, &HelloFrame{Docs: []string{"notes"}, Forward: true}, "0a01056e6f74657301"},
		{"helloresp", kindHelloResp, &HelloRespFrame{Entries: []HelloEntry{{Doc: "notes"}, {Doc: "design", Redirect: "10.0.0.2:9707"}}}, "0b02056e6f74657300000664657369676e0d31302e302e302e323a3937303700"},
		{"helloresp-epoch", kindHelloResp, &HelloRespFrame{Entries: []HelloEntry{{Doc: "notes", Epoch: 3}, {Doc: "design", Redirect: "10.0.0.2:9707", Epoch: 3}}}, "0b02056e6f74657300030664657369676e0d31302e302e302e323a3937303703"},
		{"detach", kindDetach, &DetachFrame{Docs: []string{"notes"}}, "0c01056e6f746573"},
		{"ring", kindRingAnnounce, &RingFrame{Epoch: 9, Nodes: []string{"10.0.0.1:9707", "10.0.0.2:9707"}}, "0d09020d31302e302e302e313a393730370d31302e302e302e323a39373037"},
		{"ring-query", kindRingAnnounce, &RingFrame{}, "0d0000"},
		{"forward", kindForward, &ForwardFrame{Doc: "notes", Inner: digest}, "0e056e6f7465730207010704"},
		{"handoffbegin", kindHandoffBegin, &HandoffBeginFrame{Doc: "notes", Epoch: 4}, "0f056e6f74657304"},
		{"replay", kindReplay, &ReplayFrame{To: 42, Inner: digest}, "132a0207010704"},
		{"ops-mixed", kindOps, &OpsFrame{Msgs: mixedMsgs()}, "14060907010701040602040100ffffffffffff3f01610e040602040100ffffffffffff3f0909020702090103060104000b070107030201000a0702070409010306010406030803060104"},
		{"replay-chunk", kindReplay, &ReplayFrame{To: ident.MaxSiteID, Inner: chunk}, "13ffffffffffff3f080201020840106368756e6b2d6279746573"},
	}
}

// samplesOf returns the samples of the given kinds.
func samplesOf(t testing.TB, kinds ...byte) []frameSample {
	var out []frameSample
	for _, s := range frameSamples(t) {
		for _, k := range kinds {
			if s.kind == k {
				out = append(out, s)
			}
		}
	}
	return out
}
