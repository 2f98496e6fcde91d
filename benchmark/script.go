package main

import (
	"fmt"

	"github.com/treedoc/treedoc"
	"github.com/treedoc/treedoc/internal/diff"
	"github.com/treedoc/treedoc/internal/trace"
)

// step is one local edit call: delete the atom at pos, or insert atoms as
// a run starting at pos.
type step struct {
	pos   int
	del   bool
	atoms []string
}

// script is a replayable history: revs[0] writes the initial document, each
// later entry is one revision of the trace with consecutive inserts merged
// into InsertRunAt runs. final is the document the trace ends with.
type script struct {
	revs  [][]step
	final []string
}

// historyProfile scales the paper's LaTeX calibration (line atoms, long
// insert runs, drifting hot spots, 55% modifications) to a history of the
// given size. The calibrated generator matters: pseudo-random paste offsets
// build ever-deeper identifier paths and measure that artefact instead of
// the editing the paper replays. The paper's 300-to-500-line documents have
// two hot spots; these are larger, and with two the identifier depth a
// history reaches is decided by a handful of hot-spot episodes — bytes per
// op spread 17% across seeds — so the number of simultaneous editing
// regions grows with the document: one per thousand lines, at least four.
func historyProfile(seed int64, initial, final, revisions, edits int) trace.Profile {
	return trace.Profile{
		Name: "history.tex", Granularity: trace.Lines, Seed: seed,
		InitialAtoms: initial, FinalAtoms: final, Revisions: revisions, AtomBytes: 42,
		EditsPerRevision: edits, ModifyFraction: 0.55, HotSpots: max(4, final/1000), RunLength: 14,
	}
}

func buildScript(p trace.Profile) (*script, error) {
	tr, err := trace.Generate(p)
	if err != nil {
		return nil, err
	}
	s := &script{revs: make([][]step, 0, len(tr.Revisions)+1)}
	s.revs = append(s.revs, []step{{pos: 0, atoms: tr.Initial}})
	for _, rev := range tr.Revisions {
		var steps []step
		for _, op := range rev.Ops {
			if op.Kind == diff.Delete {
				steps = append(steps, step{pos: op.Index, del: true})
				continue
			}
			if k := len(steps) - 1; k >= 0 && !steps[k].del && steps[k].pos+len(steps[k].atoms) == op.Index {
				steps[k].atoms = append(steps[k].atoms, op.Atom)
				continue
			}
			steps = append(steps, step{pos: op.Index, atoms: []string{op.Atom}})
		}
		s.revs = append(s.revs, steps)
	}
	if s.final, err = tr.Final(); err != nil {
		return nil, err
	}
	return s, nil
}

// editor is the generator's hand on one writer replica: it applies local
// edits through the public Doc calls and broadcasts the resulting ops. One
// goroutine drives an editor at a time.
type editor struct {
	rec *recorder
	r   *replica
	ops []treedoc.Op
}

// apply performs one action that was due at due: its steps, then one
// Broadcast of every op they produced. With stamped, inserted atoms carry
// the due time for the remote appliers. A tolerant action skips a step the
// document refuses — a remote delete can shrink a multi-writer document
// between the generator reading its length and the edit landing.
func (e *editor) apply(due int64, stamped, tolerant bool, steps []step) (int, error) {
	rec, doc := e.rec, e.r.app.Doc
	start := rec.now()
	prefix := ""
	if stamped {
		prefix = stamp(due)
	}
	ops := e.ops[:0]
	for _, st := range steps {
		t0 := start
		if rec.traced {
			t0 = rec.now()
		}
		if st.del {
			op, err := doc.DeleteAt(st.pos)
			if err != nil {
				if tolerant {
					continue
				}
				return 0, fmt.Errorf("delete at %d: %w", st.pos, err)
			}
			ops = append(ops, op)
		} else {
			atoms, pos := st.atoms, st.pos
			if stamped {
				atoms = make([]string, len(st.atoms))
				for i, a := range st.atoms {
					atoms[i] = prefix + a
				}
			}
			if tolerant {
				pos = min(pos, doc.Len())
			}
			ins, err := doc.InsertRunAt(pos, atoms)
			if err != nil {
				if tolerant {
					continue
				}
				return 0, fmt.Errorf("insert run at %d: %w", pos, err)
			}
			ops = append(ops, ins...)
		}
		if rec.traced {
			rec.editCalls = append(rec.editCalls, float64(rec.now()-t0)/1e3)
		}
	}
	e.ops = ops
	if len(ops) == 0 {
		return 0, nil
	}
	editEnd := rec.now()
	if err := e.r.eng.Broadcast(ops...); err != nil {
		return 0, fmt.Errorf("broadcast: %w", err)
	}
	if rec.traced {
		rec.actions = append(rec.actions, actionRec{
			site: uint64(e.r.site), firstSeq: ops[0].Seq, n: int32(len(ops)),
			due: due, editStart: start, editEnd: editEnd, bEnd: rec.now(),
		})
	}
	e.r.sent += uint64(len(ops))
	return len(ops), nil
}
