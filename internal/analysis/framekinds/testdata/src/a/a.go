// Package a models a miniature wire protocol for the framekinds
// analyzer: two fully wired kinds, a kind that keys no table row, a row
// whose constructor returns a type without a wire method, a row with no
// constructor at all, and an encodeFrame call that pairs a kind with
// another kind's frame type.
package a

const (
	kindPing   = 0x01
	kindPong   = 0x02
	kindOrphan = 0x03 // want `kindOrphan keys 0 rows of frameTable, want exactly 1`
	kindMute   = 0x04
	kindEmpty  = 0x05
	maxKinds   = 8 // not a kind constant: no diagnostic
)

type codec struct{ buf []byte }

type ping struct{}

func (*ping) wire(c *codec) {}

type pong struct{}

func (*pong) wire(c *codec) {}

// mute has no wire method, so no layout.
type mute struct{}

type row struct {
	name string
	new  func() any
}

var frameTable = [maxKinds]row{
	kindPing:  {"kindPing", func() any { return new(ping) }},
	kindPong:  {"kindPong", func() any { return new(pong) }},
	kindMute:  {"kindMute", func() any { return new(mute) }}, // want `frameTable\[kindMute\] constructs \*mute, which has no wire method`
	kindEmpty: {name: "kindEmpty"},                           // want `frameTable\[kindEmpty\] has no constructor`
	6:         {name: "six"},                                 // want `frameTable row is not keyed by a kind constant`
}

func encodeFrame(kind byte, f any) []byte { return []byte{kind} }

// relay forwards its kind parameter; its callers' calls are the checked ones.
func relay(kind byte, f any) []byte { return encodeFrame(kind, f) }

var (
	_ = encodeFrame(kindPing, &ping{})
	_ = encodeFrame(kindPong, &ping{}) // want `encodeFrame\(kindPong, \*ping\): frameTable\[kindPong\] constructs \*pong`
	_ = relay(kindPong, &pong{})
)
