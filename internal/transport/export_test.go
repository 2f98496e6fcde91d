package transport

// EncodeHelloForward gives the external test package the one frame it
// sends by hand: a forward-flagged attach from a client that ignores
// redirects.
func EncodeHelloForward(docs []string) ([]byte, error) {
	return encodeFrame(kindHello, &HelloFrame{Docs: docs, Forward: true})
}
