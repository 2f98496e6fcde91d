package transport

import (
	"github.com/treedoc/treedoc/internal/ident"
	"github.com/treedoc/treedoc/internal/vclock"
)

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

// EncodeFlatAck gives the external test package an ack to send by hand,
// for a member whose engine the test stands in for.
func EncodeFlatAck(from, author ident.SiteID, intent uint64, clock vclock.VC) ([]byte, error) {
	return encodeFrame(kindFlatAck, &FlatAckFrame{From: from, Author: author, Intent: intent, Clock: clock})
}
