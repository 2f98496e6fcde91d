package core_test

import (
	"reflect"
	"testing"

	"github.com/treedoc/treedoc/internal/core"
	"github.com/treedoc/treedoc/internal/ident"
)

// seedOps builds operations from a live document so the corpus contains
// realistic paths, disambiguators and atoms (including multi-byte UTF-8).
func seedOps(f *testing.F) []core.Op {
	doc, err := core.NewDocument(core.Config{Site: 42})
	if err != nil {
		f.Fatal(err)
	}
	var ops []core.Op
	for i, atom := range []string{"a", "hello world", "αβγ∂", ""} {
		op, err := doc.InsertAt(i, atom)
		if err != nil {
			f.Fatal(err)
		}
		ops = append(ops, op)
	}
	del, err := doc.DeleteAt(2)
	if err != nil {
		f.Fatal(err)
	}
	ops = append(ops, del)
	return ops
}

// FuzzOpUnmarshalBinary is the wire-boundary fuzz target: arbitrary bytes
// must never panic the decoder, and any accepted operation must survive a
// marshal/unmarshal round trip unchanged.
func FuzzOpUnmarshalBinary(f *testing.F) {
	for _, op := range seedOps(f) {
		data, err := op.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add([]byte{0x02, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		var op core.Op
		if err := op.UnmarshalBinary(data); err != nil {
			return
		}
		if err := op.Validate(); err != nil {
			t.Fatalf("decoder accepted invalid op %v: %v", op, err)
		}
		re, err := op.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted op %v failed to re-marshal: %v", op, err)
		}
		var again core.Op
		if err := again.UnmarshalBinary(re); err != nil {
			t.Fatalf("re-marshalled op rejected: %v", err)
		}
		if !reflect.DeepEqual(op, again) {
			t.Fatalf("op not stable under round trip:\n got %v\nwant %v", again, op)
		}
	})
}

// FuzzDecodeOp covers the stream-decoding entry point (prefix decode with
// consumed length), which the batched wire frames use directly. The tree
// walks check nothing, so the decoder and Op.Validate are all that stands
// between the wire and the tree: every operation they accept applies to a
// fresh document without a panic and leaves it consistent.
func FuzzDecodeOp(f *testing.F) {
	for _, op := range seedOps(f) {
		f.Add(op.AppendBinary(nil))
	}
	for _, kind := range []core.OpKind{core.OpFlatten, core.OpIntent, core.OpAbort} {
		for _, p := range []string{"[]", "[10]"} {
			f.Add(core.Op{Kind: kind, ID: ident.Pack(ident.MustParsePath(p)), Site: 3, Seq: 1}.AppendBinary(nil))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		op, n, err := core.DecodeOp(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("DecodeOp consumed %d of %d bytes", n, len(data))
		}
		if err := op.Validate(); err != nil {
			t.Fatalf("DecodeOp accepted invalid op: %v", err)
		}
		doc, err := core.NewDocument(core.Config{Site: 1})
		if err != nil {
			t.Fatal(err)
		}
		_ = doc.Apply(op) // an op the empty document cannot take may be refused; none may panic
		if err := doc.Check(); err != nil {
			t.Fatalf("applying %v: %v", op, err)
		}
	})
}
