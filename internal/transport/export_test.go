package transport

import "github.com/treedoc/treedoc/internal/ident"

// EncodeHelloForward gives the external test package the one frame it
// sends by hand: a forward-flagged attach from a client that ignores
// redirects.
func EncodeHelloForward(docs []string) ([]byte, error) {
	return encodeFrame(kindHello, &HelloFrame{Docs: docs, Forward: true})
}

// EncodeRingAnnounce gives the external test package a ring announce to
// send by hand, as a hub behind on the epoch would.
func EncodeRingAnnounce(epoch uint64, nodes []string) ([]byte, error) {
	return encodeFrame(kindRingAnnounce, &RingFrame{Epoch: epoch, Nodes: nodes})
}

// EncodeFlatVote gives the external test package a vote to send by hand,
// for a participant whose engine the test stands in for.
func EncodeFlatVote(from, coord ident.SiteID, n uint64, yes bool) ([]byte, error) {
	return encodeFrame(kindFlatVote, &FlatVoteFrame{From: from, Coord: coord, N: n, Yes: yes})
}
