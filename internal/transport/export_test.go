package transport

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
