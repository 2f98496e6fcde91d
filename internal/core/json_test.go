package core

import (
	"encoding/json"
	"testing"

	"github.com/treedoc/treedoc/internal/ident"
)

func TestOpJSONRoundTrip(t *testing.T) {
	ops := []Op{
		{Kind: OpInsert, ID: ident.Pack(ident.MustParsePath("[10(0:s3)]")), Atom: "hello \"quoted\"", Site: 3, Seq: 42},
		{Kind: OpDelete, ID: ident.Pack(ident.MustParsePath("[(1:c7s9)]")), Site: 9, Seq: 1},
		{Kind: OpFlatten, ID: ident.Pack(ident.MustParsePath("[]")), Site: 4, Seq: 7},
		{Kind: OpFlatten, ID: ident.Pack(ident.MustParsePath("[10]")), Site: 4, Seq: 8},
		{Kind: OpIntent, ID: ident.Pack(ident.MustParsePath("[]")), Site: 4, Seq: 9},
		{Kind: OpIntent, ID: ident.Pack(ident.MustParsePath("[10]")), Site: 4, Seq: 10},
		{Kind: OpAbort, ID: ident.Pack(ident.MustParsePath("[]")), Site: 4, Seq: 11},
		{Kind: OpAbort, ID: ident.Pack(ident.MustParsePath("[10]")), Site: 4, Seq: 12},
	}
	for _, op := range ops {
		data, err := json.Marshal(op)
		if err != nil {
			t.Fatal(err)
		}
		var got Op
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if got.Kind != op.Kind || got.ID != op.ID || got.Atom != op.Atom ||
			got.Site != op.Site || got.Seq != op.Seq {
			t.Errorf("round trip %v -> %v", op, got)
		}
	}
}

func TestOpJSONReadable(t *testing.T) {
	op := Op{Kind: OpInsert, ID: ident.Pack(ident.MustParsePath("[10(0:s3)]")), Atom: "x", Site: 3, Seq: 1}
	data, err := json.Marshal(op)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"kind":"insert","id":"[10(0:s3)]","atom":"x","site":3,"seq":1}`
	if string(data) != want {
		t.Errorf("json = %s, want %s", data, want)
	}
}

func TestOpJSONErrors(t *testing.T) {
	var o Op
	if err := json.Unmarshal([]byte(`{"kind":"mangle","id":"[(1:s1)]"}`), &o); err == nil {
		t.Error("unknown kind accepted")
	}
	if err := json.Unmarshal([]byte(`{"kind":"insert","id":"bogus"}`), &o); err == nil {
		t.Error("bad id accepted")
	}
	if err := json.Unmarshal([]byte(`{"kind":"insert","id":7}`), &o); err == nil {
		t.Error("numeric id accepted")
	}
	if err := json.Unmarshal([]byte(`{"kind":"delete","id":"[(1:s1)]","atom":"x","site":1}`), &o); err == nil {
		t.Error("delete with atom accepted")
	}
	// The identifier's elements are checked before they are packed: packing
	// would carry a 49-bit site into an encoding only the decoder refuses,
	// and a structural path is no atom's identifier.
	for _, id := range []string{"[(1:s281474976710656)]", "[10]", "[]"} {
		if err := json.Unmarshal([]byte(`{"kind":"insert","id":"`+id+`","site":1}`), &o); err == nil {
			t.Errorf("insert at %s accepted as %v", id, o)
		}
	}
	for _, kind := range []string{"flatten", "intent", "abort"} {
		for _, id := range []string{"[(1:s1)]", "[1(0:s1)]"} {
			if err := json.Unmarshal([]byte(`{"kind":"`+kind+`","id":"`+id+`","site":1}`), &o); err == nil {
				t.Errorf("%s at %s accepted as %v", kind, id, o)
			}
		}
	}
}

// TestApplyRejectsWhatIsNoIdentifier: a caller cannot forge an encoding,
// since a Packed is made only by Pack or DecodePacked, but it can still
// hand Apply the zero Packed or an identifier of the wrong shape for the
// operation's kind. Apply refuses both before anything is unpacked.
func TestApplyRejectsWhatIsNoIdentifier(t *testing.T) {
	d := newDoc(t, 1)
	atom, region := ident.Pack(ident.MustParsePath("[(1:s2)]")), ident.Pack(ident.MustParsePath("[1]"))
	for name, op := range map[string]Op{
		"zero identifier":    {Kind: OpInsert, Site: 2, Seq: 1},
		"insert at a region": {Kind: OpInsert, ID: region, Site: 2, Seq: 1},
		"flatten at an atom": {Kind: OpFlatten, ID: atom, Site: 2, Seq: 1},
	} {
		if err := d.Apply(op); err == nil {
			t.Errorf("%s: applied %v", name, op)
		}
	}
	if d.Len() != 0 || d.Check() != nil {
		t.Errorf("refused operations left %d atoms, check: %v", d.Len(), d.Check())
	}
}
