// Package trace provides the edit-history workloads of the paper's
// evaluation (Section 5). The paper replays co-operative edit sessions from
// existing repositories: Wikipedia page histories at paragraph granularity
// and SVN histories of LaTeX/C++/Java files at line granularity. Those
// repositories are not available offline, so this package supplies
// deterministic synthetic histories calibrated to the published workload
// statistics (Table 2 and the document captions of Table 1), plus a
// JSON-lines interchange format so real histories can be replayed through
// the same pipeline (Write, Read).
//
// A trace is an initial document plus a sequence of revisions; each
// revision is an index-based edit script (internal/diff ops). Replaying a
// trace through a Treedoc replica reproduces the paper's measurement
// pipeline: modifications appear as delete+insert, Wikipedia histories
// include vandalism episodes ("large portions of text are repeatedly
// defaced, then restored"), and edits cluster in hot regions so the flatten
// heuristics have cold subtrees to find.
//
// Two generators share the calibrated behaviour:
//
//   - Generate (generate.go) produces whole replayable histories — a Trace
//     of revisions — from a Profile. This is the paper-evaluation path:
//     profiles for each published workload live in Profiles.
//   - Stream (mix.go) emits one live editor action at a time from a Mix of
//     behavioural knobs (typing-burst length, cursor-jump probability,
//     paste-storm frequency/size, delete share, atom size). This is the
//     open-loop load path used by cmd/treedoc-load, where thousands of
//     concurrent clients each own a Stream. DocPicker assigns those
//     clients to documents, either uniformly or Zipf-skewed toward hot
//     documents.
//
// Both are deterministic under a fixed seed, so a load run or an
// evaluation figure is reproducible from its flag line alone.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"github.com/treedoc/treedoc/internal/diff"
)

// Granularity is the atom unit of a document (Section 5: lines for source
// files, paragraphs for Wikipedia).
type Granularity string

const (
	// Lines splits documents into text lines (typically under 80 chars).
	Lines Granularity = "line"
	// Paragraphs uses whole paragraphs as atoms.
	Paragraphs Granularity = "paragraph"
	// Characters uses single characters (the paper's illustrative unit).
	Characters Granularity = "char"
)

// Revision is one edit session: a sequential edit script.
type Revision struct {
	Ops []diff.Op `json:"ops"`
}

// Trace is a replayable edit history.
type Trace struct {
	Name        string      `json:"name"`
	Granularity Granularity `json:"granularity"`
	Initial     []string    `json:"initial"`
	Revisions   []Revision  `json:"revisions"`

	// summary memoises Summarize: traces are immutable once built, and the
	// replay harness summarises the same trace once per replica flavour —
	// without the memo the summary replay dwarfs the replica being measured
	// in the benchmark profiles.
	summary     Summary
	summaryErr  error
	summaryDone bool
}

// Summary are the workload statistics reported in Table 2.
type Summary struct {
	Name         string
	Revisions    int
	InitialAtoms int
	FinalAtoms   int
	FinalBytes   int
	Inserts      int
	Deletes      int
}

// Summarize replays the trace against a plain buffer and reports its
// statistics. The result is computed once and memoised; callers must not
// mutate the trace after the first call (loaded and generated traces never
// are). Not safe for concurrent first use.
func (t *Trace) Summarize() (Summary, error) {
	if t.summaryDone {
		return t.summary, t.summaryErr
	}
	t.summary, t.summaryErr = t.summarize()
	t.summaryDone = true
	return t.summary, t.summaryErr
}

func (t *Trace) summarize() (Summary, error) {
	s := Summary{Name: t.Name, Revisions: len(t.Revisions), InitialAtoms: len(t.Initial)}
	doc := diff.NewBuffer(t.Initial)
	for i, rev := range t.Revisions {
		if err := doc.Apply(rev.Ops); err != nil {
			return Summary{}, fmt.Errorf("trace %s: revision %d: %w", t.Name, i, err)
		}
		for _, op := range rev.Ops {
			if op.Kind == diff.Insert {
				s.Inserts++
			} else {
				s.Deletes++
			}
		}
	}
	s.FinalAtoms = doc.Len()
	for _, a := range doc.Atoms() {
		s.FinalBytes += len(a)
	}
	return s, nil
}

// Final replays the trace and returns the final document.
func (t *Trace) Final() ([]string, error) {
	doc := diff.NewBuffer(t.Initial)
	for i, rev := range t.Revisions {
		if err := doc.Apply(rev.Ops); err != nil {
			return nil, fmt.Errorf("trace %s: revision %d: %w", t.Name, i, err)
		}
	}
	return doc.Atoms(), nil
}

// FromVersions builds a trace from successive full-text revisions by
// diffing consecutive versions — the paper's exact pipeline for repository
// histories.
func FromVersions(name string, g Granularity, versions [][]string) (*Trace, error) {
	if len(versions) == 0 {
		return nil, fmt.Errorf("trace: no versions")
	}
	t := &Trace{Name: name, Granularity: g, Initial: append([]string(nil), versions[0]...)}
	prev := versions[0]
	for _, v := range versions[1:] {
		t.Revisions = append(t.Revisions, Revision{Ops: diff.Atoms(prev, v)})
		prev = v
	}
	return t, nil
}

// header is the first JSON line of the interchange format.
type header struct {
	Name        string      `json:"name"`
	Granularity Granularity `json:"granularity"`
	Initial     []string    `json:"initial"`
	Revisions   int         `json:"revisions"`
}

// Write serialises the trace in JSON-lines format: a header object followed
// by one revision object per line.
func Write(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(header{Name: t.Name, Granularity: t.Granularity, Initial: t.Initial, Revisions: len(t.Revisions)}); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	for i := range t.Revisions {
		if err := enc.Encode(t.Revisions[i]); err != nil {
			return fmt.Errorf("trace: write revision %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// Read parses a JSON-lines trace.
func Read(r io.Reader) (*Trace, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	var h header
	if err := dec.Decode(&h); err != nil {
		return nil, fmt.Errorf("trace: read header: %w", err)
	}
	t := &Trace{Name: h.Name, Granularity: h.Granularity, Initial: h.Initial}
	t.Revisions = make([]Revision, 0, h.Revisions)
	for i := 0; i < h.Revisions; i++ {
		var rev Revision
		if err := dec.Decode(&rev); err != nil {
			return nil, fmt.Errorf("trace: read revision %d: %w", i, err)
		}
		t.Revisions = append(t.Revisions, rev)
	}
	return t, nil
}
