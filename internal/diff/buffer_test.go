package diff

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// applyOracle is Apply as it was before the gap buffer: a copy of the
// document per call and a memmove per op. It is the reference the buffer is
// held to.
func applyOracle(a []string, script []Op) ([]string, error) {
	out := make([]string, len(a))
	copy(out, a)
	for i, op := range script {
		switch op.Kind {
		case Delete:
			if op.Index < 0 || op.Index >= len(out) {
				return nil, fmt.Errorf("diff: op %d: delete index %d out of range [0,%d)", i, op.Index, len(out))
			}
			out = append(out[:op.Index], out[op.Index+1:]...)
		case Insert:
			if op.Index < 0 || op.Index > len(out) {
				return nil, fmt.Errorf("diff: op %d: insert index %d out of range [0,%d]", i, op.Index, len(out))
			}
			out = append(out, "")
			copy(out[op.Index+1:], out[op.Index:])
			out[op.Index] = op.Atom
		default:
			return nil, fmt.Errorf("diff: op %d: invalid kind %d", i, op.Kind)
		}
	}
	return out, nil
}

// TestBufferMatchesOracle runs seeded random histories — scripts clustered
// around a few hot spots, one after another on one Buffer — against the old
// loop. Every script must leave the same document, and a script with an
// index out of range or an invalid kind must be refused at the same op with
// the same message, by the one-shot Apply and by the Buffer alike.
func TestBufferMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		doc := make([]string, rng.Intn(40))
		for i := range doc {
			doc[i] = fmt.Sprint("a", i)
		}
		buf := NewBuffer(doc)
		for rev := 0; rev < 30; rev++ {
			var script []Op
			cur, spot := len(doc), rng.Intn(len(doc)+1)
			for n := rng.Intn(12); n > 0; n-- {
				at := spot + rng.Intn(5) - 2
				if rng.Intn(6) == 0 {
					at = rng.Intn(cur + 1) // a jump to another spot
				}
				op := Op{Kind: Insert, Index: min(max(at, 0), cur), Atom: fmt.Sprint("r", rev, "n", n)}
				if rng.Intn(2) == 0 && cur > 0 {
					op = Op{Kind: Delete, Index: min(max(at, 0), cur-1)}
				}
				switch rng.Intn(60) {
				case 0:
					op.Index = cur + 1 + rng.Intn(3) // past the end, for either kind
				case 1:
					op.Index = -1 - rng.Intn(3)
				case 2:
					op.Kind = Kind(3 + rng.Intn(5))
				}
				if op.Kind == Insert {
					cur++
				} else if cur > 0 {
					cur--
				}
				script = append(script, op)
			}
			want, wantErr := applyOracle(doc, script)
			got, gotErr := Apply(doc, script)
			bufErr := buf.Apply(script)
			for name, err := range map[string]error{"Apply": gotErr, "Buffer.Apply": bufErr} {
				if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
					t.Fatalf("seed %d rev %d: %s error %v, oracle %v", seed, rev, name, err, wantErr)
				}
			}
			if wantErr != nil {
				if got != nil {
					t.Fatalf("seed %d rev %d: Apply returned a document with its error", seed, rev)
				}
				buf = NewBuffer(doc) // the failed script is half applied; start over from the last good document
				continue
			}
			if !slices.Equal(got, want) || !slices.Equal(buf.Atoms(), want) || buf.Len() != len(want) {
				t.Fatalf("seed %d rev %d: documents differ\n oracle %q\n Apply  %q\n Buffer %q", seed, rev, want, got, buf.Atoms())
			}
			from := rng.Intn(len(want) + 1)
			to := from + rng.Intn(len(want)-from+1)
			if part := buf.AppendRange(nil, from, to); !slices.Equal(part, want[from:to]) {
				t.Fatalf("seed %d rev %d: AppendRange(%d, %d) = %q, want %q", seed, rev, from, to, part, want[from:to])
			}
			doc = want
		}
	}
}
