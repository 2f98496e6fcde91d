package core

import (
	"encoding/json"
	"fmt"

	"github.com/treedoc/treedoc/internal/ident"
)

// opJSON is the JSON wire form of an operation: human-readable, with the
// identifier in the paper's bracket notation. The binary codec (op.go) is
// the compact transport; JSON serves tooling, logs and trace files.
type opJSON struct {
	Kind string       `json:"kind"`
	ID   ident.Path   `json:"id"`
	Atom string       `json:"atom,omitempty"`
	Site ident.SiteID `json:"site"`
	Seq  uint64       `json:"seq"`
}

// MarshalJSON encodes the operation for tooling.
func (o Op) MarshalJSON() ([]byte, error) {
	return json.Marshal(opJSON{
		Kind: o.Kind.String(),
		ID:   o.ID.AppendPath(nil),
		Atom: o.Atom,
		Site: o.Site,
		Seq:  o.Seq,
	})
}

// UnmarshalJSON decodes the JSON form.
func (o *Op) UnmarshalJSON(data []byte) error {
	var j opJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	var kind OpKind
	for k := OpInsert; k <= OpAbort; k++ {
		if j.Kind == k.String() {
			kind = k
		}
	}
	if kind == 0 {
		return fmt.Errorf("core: unknown op kind %q", j.Kind)
	}
	// Packing masks a bit above 1 and drops an unknown kind, so the elements
	// are checked before they are packed, not after.
	check := j.ID.Validate
	if kind.onPath() {
		check = j.ID.ValidateStructural
	}
	if err := check(); err != nil {
		return fmt.Errorf("core: invalid %s id: %w", kind, err)
	}
	dec := Op{Kind: kind, ID: ident.Pack(j.ID), Atom: j.Atom, Site: j.Site, Seq: j.Seq}
	if err := dec.Validate(); err != nil {
		return err
	}
	*o = dec
	return nil
}
