// Package bench regenerates every table and figure of the Treedoc paper's
// evaluation (Section 5). Each experiment replays the calibrated edit
// histories of internal/trace through replicas of Treedoc (and the Logoot
// and WOOT baselines), measuring identifier, node, memory, disk and network
// overheads exactly as Section 5 defines them; tables.go renders each
// table and figure in the paper's layout.
package bench

import (
	"fmt"
	"time"

	"github.com/treedoc/treedoc/internal/core"
	"github.com/treedoc/treedoc/internal/diff"
	"github.com/treedoc/treedoc/internal/ident"
	"github.com/treedoc/treedoc/internal/logoot"
	"github.com/treedoc/treedoc/internal/storage"
	"github.com/treedoc/treedoc/internal/trace"
	"github.com/treedoc/treedoc/internal/woot"
)

// ReplayConfig selects the Treedoc variant for a replay, mirroring the
// paper's evaluation dimensions: disambiguator scheme, balancing, batching
// of consecutive inserts, and the flatten heuristic interval.
type ReplayConfig struct {
	// Mode is SDIS or UDIS (default SDIS).
	Mode ident.Mode
	// Balanced selects the balancing strategy of Section 4.1; false is the
	// naive Algorithm 1.
	Balanced bool
	// Batch groups each revision's consecutive inserts into a minimal
	// subtree (the Section 5.1 balancing variant).
	Batch bool
	// FlattenInterval flattens a cold subtree every N revisions; 0 disables
	// ("no", "1", "2", "8" in Table 1).
	FlattenInterval int
	// Series records per-revision node counts (Figure 6).
	Series bool
	// SkipDisk leaves Result.Disk zero instead of running the on-disk
	// encoder over the final tree. The CPU-replay comparisons set it: the
	// Logoot and WOOT baselines have no disk format, so a fair wall-time
	// comparison must not charge Treedoc for serialising one (Table 1's
	// disk experiment measures it separately).
	SkipDisk bool
}

func (rc ReplayConfig) name() string {
	s := "sdis"
	if rc.Mode == ident.UDIS {
		s = "udis"
	}
	if rc.Balanced {
		s += "+bal"
	}
	if rc.Batch {
		s += "+batch"
	}
	if rc.FlattenInterval > 0 {
		s += fmt.Sprintf("+flatten%d", rc.FlattenInterval)
	}
	return s
}

// SeriesPoint is one Figure 6 sample.
type SeriesPoint struct {
	Revision int
	Nodes    int
	NonTomb  int
}

// Result is the outcome of one replay.
type Result struct {
	Trace    trace.Summary
	Config   string
	Stats    core.Stats
	Disk     storage.Measurement
	Duration time.Duration
	Series   []SeriesPoint
}

// ReplayTreedoc replays a trace through a single Treedoc replica, applying
// each revision as an edit session followed by the flatten heuristic, which
// is exactly the paper's measurement pipeline ("execute an equivalent
// sequence of insert and delete operations", Section 5).
func ReplayTreedoc(tr *trace.Trace, rc ReplayConfig) (*Result, error) {
	mode := rc.Mode
	if mode == 0 {
		mode = ident.SDIS
	}
	var strat core.Strategy = core.Naive{}
	if rc.Balanced {
		strat = core.Balanced{}
	}
	cfg := core.Config{
		Site:     1,
		Mode:     mode,
		Strategy: strat,
		Flatten:  core.FlattenPolicy{Interval: rc.FlattenInterval, ColdRevisions: 1, MinNodes: 2},
	}
	doc, err := core.NewDocument(cfg)
	if err != nil {
		return nil, fmt.Errorf("bench: new document: %w", err)
	}
	start := time.Now()
	if len(tr.Initial) > 0 {
		if _, err := doc.InsertRunAt(0, tr.Initial); err != nil {
			return nil, fmt.Errorf("bench: initial content: %w", err)
		}
	}
	res := &Result{Config: rc.name()}
	for ri, rev := range tr.Revisions {
		if err := ApplyRevision(doc, rev.Ops, rc.Batch); err != nil {
			return nil, fmt.Errorf("bench: %s revision %d: %w", tr.Name, ri, err)
		}
		doc.EndRevision()
		if rc.Series {
			s := doc.Stats()
			res.Series = append(res.Series, SeriesPoint{
				Revision: ri + 1,
				Nodes:    s.Tree.Nodes,
				NonTomb:  s.Tree.Nodes - s.Tree.DeadMinis,
			})
		}
	}
	res.Duration = time.Since(start)
	res.Stats = doc.Stats()
	if !rc.SkipDisk {
		res.Disk = storage.Measure(doc.Tree())
	}
	sum, err := tr.Summarize()
	if err != nil {
		return nil, fmt.Errorf("bench: summarize %s: %w", tr.Name, err)
	}
	res.Trace = sum
	return res, nil
}

// ApplyRevision executes one revision's index-based script on doc. With
// batching, maximal runs of consecutive inserts go through InsertRunAt so
// the strategy can pack them into a minimal subtree.
func ApplyRevision(doc *core.Document, ops []diff.Op, batch bool) error {
	for i := 0; i < len(ops); i++ {
		op := ops[i]
		if op.Kind == diff.Delete {
			if _, err := doc.DeleteAt(op.Index); err != nil {
				return fmt.Errorf("bench: op %d: %w", i, err)
			}
			continue
		}
		if !batch {
			if _, err := doc.InsertAt(op.Index, op.Atom); err != nil {
				return fmt.Errorf("bench: op %d: %w", i, err)
			}
			continue
		}
		// Collect the maximal consecutive insert run starting here.
		atoms := []string{op.Atom}
		j := i + 1
		for j < len(ops) && ops[j].Kind == diff.Insert && ops[j].Index == op.Index+len(atoms) {
			atoms = append(atoms, ops[j].Atom)
			j++
		}
		if len(atoms) == 1 {
			if _, err := doc.InsertAt(op.Index, op.Atom); err != nil {
				return fmt.Errorf("bench: op %d: %w", i, err)
			}
			continue
		}
		if _, err := doc.InsertRunAt(op.Index, atoms); err != nil {
			return fmt.Errorf("bench: op %d: %w", i, err)
		}
		i = j - 1
	}
	return nil
}

// LogootResult is the Logoot baseline outcome.
type LogootResult struct {
	Trace    trace.Summary
	Stats    logoot.Stats
	Duration time.Duration
}

// ReplayLogoot replays a trace through a Logoot replica under the paper's
// Table 5 setup (10-byte unique identifiers, immediate delete, no flatten).
func ReplayLogoot(tr *trace.Trace) (*LogootResult, error) {
	doc, err := logoot.New(logoot.Config{Site: 1})
	if err != nil {
		return nil, fmt.Errorf("bench: logoot: %w", err)
	}
	start := time.Now()
	for i, atom := range tr.Initial {
		if _, err := doc.InsertAt(i, atom); err != nil {
			return nil, fmt.Errorf("bench: logoot %s initial: %w", tr.Name, err)
		}
	}
	for ri, rev := range tr.Revisions {
		for _, op := range rev.Ops {
			if op.Kind == diff.Insert {
				if _, err := doc.InsertAt(op.Index, op.Atom); err != nil {
					return nil, fmt.Errorf("bench: logoot %s revision %d: %w", tr.Name, ri, err)
				}
			} else {
				if _, err := doc.DeleteAt(op.Index); err != nil {
					return nil, fmt.Errorf("bench: logoot %s revision %d: %w", tr.Name, ri, err)
				}
			}
		}
	}
	sum, err := tr.Summarize()
	if err != nil {
		return nil, fmt.Errorf("bench: summarize %s: %w", tr.Name, err)
	}
	return &LogootResult{Trace: sum, Stats: doc.Stats(), Duration: time.Since(start)}, nil
}

// WootResult is the WOOT baseline outcome.
type WootResult struct {
	Trace    trace.Summary
	Stats    woot.Stats
	Duration time.Duration
}

// ReplayWoot replays a trace through a WOOT replica (extended comparison:
// permanent tombstones, three identifiers per character).
func ReplayWoot(tr *trace.Trace) (*WootResult, error) {
	doc, err := woot.New(1)
	if err != nil {
		return nil, fmt.Errorf("bench: woot: %w", err)
	}
	start := time.Now()
	for i, atom := range tr.Initial {
		if _, err := doc.InsertAt(i, atom); err != nil {
			return nil, fmt.Errorf("bench: woot %s initial: %w", tr.Name, err)
		}
	}
	for ri, rev := range tr.Revisions {
		for _, op := range rev.Ops {
			if op.Kind == diff.Insert {
				if _, err := doc.InsertAt(op.Index, op.Atom); err != nil {
					return nil, fmt.Errorf("bench: woot %s revision %d: %w", tr.Name, ri, err)
				}
			} else {
				if _, err := doc.DeleteAt(op.Index); err != nil {
					return nil, fmt.Errorf("bench: woot %s revision %d: %w", tr.Name, ri, err)
				}
			}
		}
	}
	sum, err := tr.Summarize()
	if err != nil {
		return nil, fmt.Errorf("bench: summarize %s: %w", tr.Name, err)
	}
	return &WootResult{Trace: sum, Stats: doc.Stats(), Duration: time.Since(start)}, nil
}
