package trace

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/treedoc/treedoc/internal/diff"
)

// Profile parameterises the synthetic history generator. The six stock
// profiles (Profiles) are calibrated to the documents of the paper's
// Tables 1 and 2.
type Profile struct {
	// Name labels the document (matches the paper's Table 1 rows).
	Name string
	// Granularity is the atom unit.
	Granularity Granularity
	// Seed makes generation deterministic.
	Seed int64
	// InitialAtoms and FinalAtoms are the document sizes bounding the
	// history (Table 2's "number of lines initial/final").
	InitialAtoms, FinalAtoms int
	// Revisions is the number of edit sessions (Table 2).
	Revisions int
	// AtomBytes is the mean atom length in bytes (lines ≈ 40, paragraphs
	// well over 100: "usually under 80 characters" for lines).
	AtomBytes int
	// EditsPerRevision is the mean number of edit actions per revision
	// beyond the net growth (an action is a modify, insert or delete).
	EditsPerRevision int
	// ModifyFraction is the share of actions that modify an existing atom
	// (delete + insert, Section 5: "modifying an atom is modeled as deleting
	// the original and inserting the modified atom"). The remainder splits
	// between pure inserts and pure deletes around the growth budget.
	ModifyFraction float64
	// HotSpots is the number of simultaneously active editing regions;
	// edits cluster near them and the spots drift, leaving the rest of the
	// document cold for the flatten heuristic.
	HotSpots int
	// RunLength is the mean length of consecutive insert runs (writing a
	// block of lines or a paragraph in one session). Source files see long
	// runs; wiki paragraphs shorter ones. Default 2.
	RunLength int
	// VandalismEvery, when positive, defaces the document every N revisions
	// (mass delete of a contiguous chunk) and restores it in the next
	// revision — the Wikipedia pathology called out in Section 5.
	VandalismEvery int
}

// Profiles are the six documents of the paper's evaluation, calibrated to
// the published statistics: name, type, atom counts, byte size, revisions
// (Table 1 captions and Table 2).
func Profiles() []Profile {
	return []Profile{
		{
			// "Distributed Computing (wiki, 171 paras, 19,686 bytes, 870
			// revisions)"; Table 2 most active: initial 9, final 171.
			Name: "Distributed Computing", Granularity: Paragraphs, Seed: 101,
			InitialAtoms: 9, FinalAtoms: 171, Revisions: 870, AtomBytes: 115,
			EditsPerRevision: 3, ModifyFraction: 0.70, HotSpots: 2, RunLength: 3,
			VandalismEvery: 60,
		},
		{
			// "IBM POWER (wiki, 184 paras, 24,651 bytes, 401 revisions)".
			Name: "IBM POWER", Granularity: Paragraphs, Seed: 102,
			InitialAtoms: 20, FinalAtoms: 184, Revisions: 401, AtomBytes: 134,
			EditsPerRevision: 3, ModifyFraction: 0.65, HotSpots: 2, RunLength: 3,
			VandalismEvery: 80,
		},
		{
			// "Grey Owl (wiki, 110 paras, 12,388 bytes, 242 revisions)".
			Name: "Grey Owl", Granularity: Paragraphs, Seed: 103,
			InitialAtoms: 15, FinalAtoms: 110, Revisions: 242, AtomBytes: 113,
			EditsPerRevision: 3, ModifyFraction: 0.65, HotSpots: 2, RunLength: 3,
			VandalismEvery: 70,
		},
		{
			// "acf.tex (latex, 332 lines, 14,048 bytes, 51 revisions)";
			// Table 2 least active: initial 99, final 332.
			Name: "acf.tex", Granularity: Lines, Seed: 104,
			InitialAtoms: 99, FinalAtoms: 332, Revisions: 51, AtomBytes: 42,
			EditsPerRevision: 10, ModifyFraction: 0.55, HotSpots: 2, RunLength: 14,
		},
		{
			// "algorithms.tex (latex, 396 lines, 15,186 bytes, 58 revisions)".
			Name: "algorithms.tex", Granularity: Lines, Seed: 105,
			InitialAtoms: 120, FinalAtoms: 396, Revisions: 58, AtomBytes: 38,
			EditsPerRevision: 10, ModifyFraction: 0.55, HotSpots: 2, RunLength: 14,
		},
		{
			// "propagation.tex (latex, 481 lines, 22,170 bytes, 68 revisions)".
			Name: "propagation.tex", Granularity: Lines, Seed: 106,
			InitialAtoms: 150, FinalAtoms: 481, Revisions: 68, AtomBytes: 46,
			EditsPerRevision: 10, ModifyFraction: 0.55, HotSpots: 2, RunLength: 14,
		},
	}
}

// ProfileByName returns the stock profile with the given name.
func ProfileByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("trace: unknown profile %q", name)
}

// LatexProfiles returns the three line-granularity documents (the paper's
// Tables 3 and 4 use "LaTeX documents").
func LatexProfiles() []Profile {
	all := Profiles()
	return all[3:]
}

// generator carries the evolving document and editing state.
type generator struct {
	p    Profile
	rng  *rand.Rand
	doc  *diff.Buffer // the document at the current revision
	hot  []float64    // hot spot centres as document fractions
	next int          // atom id counter for synthesized content
}

// Generate builds the synthetic history for a profile.
func Generate(p Profile) (*Trace, error) {
	if p.InitialAtoms < 0 || p.FinalAtoms < 1 || p.Revisions < 1 {
		return nil, fmt.Errorf("trace: invalid profile %+v", p)
	}
	if p.EditsPerRevision < 1 {
		p.EditsPerRevision = 3
	}
	if p.HotSpots < 1 {
		p.HotSpots = 1
	}
	if p.RunLength < 1 {
		p.RunLength = 2
	}
	if p.AtomBytes < 8 {
		p.AtomBytes = 8
	}
	g := &generator{p: p, rng: rand.New(rand.NewSource(p.Seed))}
	t := &Trace{Name: p.Name, Granularity: p.Granularity}
	for i := 0; i < p.InitialAtoms; i++ {
		t.Initial = append(t.Initial, g.atom())
	}
	g.doc = diff.NewBuffer(t.Initial)
	for i := 0; i < p.HotSpots; i++ {
		g.hot = append(g.hot, g.rng.Float64())
	}

	// Self-correcting net growth: each revision budgets a share of the
	// remaining distance to FinalAtoms, so random insert/delete variance
	// cannot drift the history away from the published document sizes.
	carry := 0.0
	vandalised := []string(nil)
	vandalIdx := 0
	for rev := 1; rev <= p.Revisions; rev++ {
		var ops []diff.Op
		switch {
		case vandalised != nil:
			// Restore last revision's defacement (administrator revert).
			ops = g.restore(vandalIdx, vandalised)
			vandalised = nil
		case p.VandalismEvery > 0 && rev%p.VandalismEvery == 0 && g.doc.Len() > 8:
			ops, vandalIdx, vandalised = g.vandalise()
		default:
			remaining := p.Revisions - rev + 1
			carry += float64(p.FinalAtoms-g.doc.Len()) / float64(remaining)
			net := int(carry)
			carry -= float64(net)
			ops = g.editSession(net)
		}
		if err := g.doc.Apply(ops); err != nil {
			return nil, fmt.Errorf("trace: generator produced invalid ops: %w", err)
		}
		t.Revisions = append(t.Revisions, Revision{Ops: ops})
	}
	return t, nil
}

// atom synthesizes content of roughly AtomBytes bytes.
func (g *generator) atom() string {
	g.next++
	base := fmt.Sprintf("%s-%06d ", sanitize(g.p.Name), g.next)
	want := g.p.AtomBytes/2 + g.rng.Intn(g.p.AtomBytes)
	if len(base) >= want {
		return base[:want]
	}
	return base + strings.Repeat("x", want-len(base))
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		if r == ' ' || r == '.' {
			return '_'
		}
		return r
	}, s)
}

// driftSpots moves the hot regions once per revision: editing stays in the
// same few places for a while (compounding identifier pressure in those
// gaps, and leaving the rest of the document cold), with occasional jumps
// to fresh sections.
func (g *generator) driftSpots() {
	for h := range g.hot {
		if g.rng.Intn(12) == 0 {
			g.hot[h] = g.rng.Float64()
			continue
		}
		g.hot[h] += (g.rng.Float64() - 0.5) * 0.04
		if g.hot[h] < 0 {
			g.hot[h] = 0
		}
		if g.hot[h] > 1 {
			g.hot[h] = 1
		}
	}
}

// spot picks an edit position near a hot region.
func (g *generator) spot() int {
	if g.doc.Len() == 0 {
		return 0
	}
	h := g.rng.Intn(len(g.hot))
	center := int(g.hot[h] * float64(g.doc.Len()))
	off := g.rng.Intn(7) - 3
	pos := center + off
	if pos < 0 {
		pos = 0
	}
	if pos >= g.doc.Len() {
		pos = g.doc.Len() - 1
	}
	return pos
}

// editSession produces one revision's ops: EditsPerRevision±half actions
// plus net growth.
func (g *generator) editSession(net int) []diff.Op {
	g.driftSpots()
	var ops []diff.Op
	cur := g.doc.Len()
	apply := func(op diff.Op) {
		ops = append(ops, op)
		if op.Kind == diff.Insert {
			cur++
		} else {
			cur--
		}
	}
	actions := 1 + g.p.EditsPerRevision/2 + g.rng.Intn(g.p.EditsPerRevision)
	for a := 0; a < actions; a++ {
		pos := g.spot()
		if pos > cur {
			pos = cur
		}
		switch r := g.rng.Float64(); {
		case r < g.p.ModifyFraction && cur > 0:
			if pos >= cur {
				pos = cur - 1
			}
			apply(diff.Op{Kind: diff.Delete, Index: pos})
			apply(diff.Op{Kind: diff.Insert, Index: pos, Atom: g.atom()})
		case r < g.p.ModifyFraction+(1-g.p.ModifyFraction)/2 || cur == 0:
			apply(diff.Op{Kind: diff.Insert, Index: pos, Atom: g.atom()})
		default:
			if pos >= cur {
				pos = cur - 1
			}
			apply(diff.Op{Kind: diff.Delete, Index: pos})
		}
	}
	// Apply the net growth budget (inserts are consecutive: a paragraph or
	// block being written, which the batch strategy can pack).
	for net > 0 {
		pos := g.spot()
		if pos > cur {
			pos = cur
		}
		run := 1 + g.rng.Intn(2*g.p.RunLength)
		if run > net {
			run = net
		}
		for i := 0; i < run; i++ {
			apply(diff.Op{Kind: diff.Insert, Index: pos + i, Atom: g.atom()})
		}
		net -= run
	}
	for net < 0 && cur > 0 {
		pos := g.spot()
		if pos >= cur {
			pos = cur - 1
		}
		apply(diff.Op{Kind: diff.Delete, Index: pos})
		net++
	}
	return ops
}

// vandalise deletes a contiguous chunk (Section 5: "large portions of text
// are repeatedly defaced"). It returns the ops, the start index, and the
// removed atoms for the follow-up restore.
func (g *generator) vandalise() (ops []diff.Op, start int, removed []string) {
	n := g.doc.Len()
	chunk := n / 3
	if chunk < 4 {
		chunk = 4
	}
	if chunk > n {
		chunk = n
	}
	start = 0
	if n > chunk {
		start = g.rng.Intn(n - chunk)
	}
	removed = g.doc.AppendRange(removed, start, start+chunk)
	for i := 0; i < chunk; i++ {
		ops = append(ops, diff.Op{Kind: diff.Delete, Index: start})
	}
	return ops, start, removed
}

// restore re-inserts a defaced chunk (the administrator's revert; the text
// returns but — as in the paper — with fresh identifiers).
func (g *generator) restore(start int, removed []string) []diff.Op {
	if start > g.doc.Len() {
		start = g.doc.Len()
	}
	ops := make([]diff.Op, 0, len(removed))
	for i, atom := range removed {
		ops = append(ops, diff.Op{Kind: diff.Insert, Index: start + i, Atom: atom})
	}
	return ops
}
