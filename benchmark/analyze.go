package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"github.com/treedoc/treedoc/internal/causal"
	"github.com/treedoc/treedoc/internal/core"
	"github.com/treedoc/treedoc/internal/transport"
)

// opsKind is the first byte of a kindOps frame, learnt from the encoder so
// the benchmark never copies the wire constants.
var opsKind = func() byte {
	f, err := transport.EncodeOps(nil)
	if err != nil || len(f) == 0 {
		panic("benchmark: cannot encode an empty ops frame")
	}
	return f[0]
}()

// opTimes maps (site, seq) to a time on the recorder clock; sequence
// numbers are dense from 1, so each site is a slice. Zero means unknown.
type opTimes map[uint64][]int64

// first records t for (site, seq) unless an earlier time is already known.
func (o opTimes) first(site, seq uint64, t int64) {
	s := o[site]
	if uint64(len(s)) <= seq {
		s = append(s, make([]int64, seq+1-uint64(len(s)))...)
		o[site] = s
	}
	if s[seq] == 0 || t < s[seq] {
		s[seq] = t
	}
}

func (o opTimes) get(site, seq uint64) int64 {
	if s := o[site]; seq < uint64(len(s)) {
		return s[seq]
	}
	return 0
}

// sentFrame is one captured Send that carried operations, decoded.
type sentFrame struct {
	rec    frameRec
	link   *meterLink
	msgs   []causal.Message
	replay bool // a directed anti-entropy answer, not the live stream
}

// chain is the traced life of one action at one remote replica. The five
// boundaries are contiguous, so the stages sum to the measured latency
// (due → entry of the apply call) exactly.
type chain struct {
	act        *actionRec
	reader     uint64
	send, recv int64 // first Link.Send entry; that frame's Recv return at the reader
	entry      int64 // entry of the apply call carrying the action's first op
	exit       int64
}

func (c *chain) late() int64    { return c.act.editStart - c.act.due }
func (c *chain) edit() int64    { return c.act.editEnd - c.act.editStart }
func (c *chain) submit() int64  { return c.send - c.act.editEnd }
func (c *chain) relay() int64   { return c.recv - c.send }
func (c *chain) deliver() int64 { return c.entry - c.recv }
func (c *chain) total() int64   { return c.entry - c.act.due }

// analysis is everything the traced pass learns offline.
type analysis struct {
	frames   []sentFrame // every decoded ops-carrying Send, in send order
	relayUS  []float64   // Send entry → Recv return, per (frame, receiver)
	lastUS   []float64   // per frame, its slowest receiver
	submitUS []float64   // Broadcast call → first Send of the action's first op
	blockUS  []float64   // time inside Broadcast
	delivUS  []float64   // Recv return → apply entry, per apply call
	chains   []chain
}

// analyze joins the link, applier and generator records of a traced pass.
// Actions due before from (the set-up's initial content and histories) are
// left out of the chains: they were not part of the timed workload.
func analyze(r *recorder, from int64) *analysis {
	an := &analysis{}
	r.mu.Lock()
	links := append([]*meterLink(nil), r.links...)
	appliers := append([]*applier(nil), r.appliers...)
	r.mu.Unlock()

	// 1. Decode what the engines sent.
	byHash := map[uint64]*sentFrame{}
	for _, l := range links {
		l.smu.Lock()
		for _, rec := range l.sends {
			if rec.body == nil {
				continue
			}
			msgs, replay := decodeOps(rec.body)
			if msgs == nil {
				continue
			}
			an.frames = append(an.frames, sentFrame{rec: rec, link: l, msgs: msgs, replay: replay})
		}
		l.smu.Unlock()
	}
	sort.Slice(an.frames, func(i, j int) bool { return an.frames[i].rec.start < an.frames[j].rec.start })
	sendAt := opTimes{}
	for i := range an.frames {
		f := &an.frames[i]
		byHash[f.rec.hash] = f
		if f.replay {
			continue
		}
		for _, m := range f.msgs {
			sendAt.first(uint64(m.From), m.TS.Get(m.From), f.rec.start)
		}
	}

	// 2. Match every reader's Recv to the Send with the same payload hash:
	// the relay stage, and per reader the arrival time of every op.
	recvAt := map[*meterLink]opTimes{}
	slowest := map[uint64]int64{}
	for _, l := range links {
		times := opTimes{}
		l.rmu.Lock()
		for _, rec := range l.recvs {
			f := byHash[rec.hash]
			if f == nil || f.link == l {
				continue
			}
			d := rec.end - f.rec.start
			an.relayUS = append(an.relayUS, float64(d)/1e3)
			slowest[rec.hash] = max(slowest[rec.hash], d)
			for _, m := range f.msgs {
				times.first(uint64(m.From), m.TS.Get(m.From), rec.end)
			}
		}
		l.rmu.Unlock()
		recvAt[l] = times
	}
	for _, d := range slowest {
		an.lastUS = append(an.lastUS, float64(d)/1e3)
	}

	// 3. Per applier: the engine's receive path, and where each op was applied.
	type applied struct{ entry, exit opTimes }
	where := make([]applied, len(appliers))
	for i, a := range appliers {
		where[i] = applied{opTimes{}, opTimes{}}
		a.mu.Lock()
		for _, c := range a.calls {
			runs := a.runs[c.run0 : c.run0+c.runN]
			if len(runs) > 0 && a.link != nil {
				if t := recvAt[a.link].get(runs[0].site, runs[0].lo); t > 0 && t <= c.entry {
					an.delivUS = append(an.delivUS, float64(c.entry-t)/1e3)
				}
			}
			for _, run := range runs {
				for seq := run.lo; seq <= run.hi; seq++ {
					where[i].entry.first(run.site, seq, c.entry)
					where[i].exit.first(run.site, seq, c.exit)
				}
			}
		}
		a.mu.Unlock()
	}

	// 4. Chains: one per (action, remote replica that applied it).
	for k := range r.actions {
		act := &r.actions[k]
		send := sendAt.get(act.site, act.firstSeq)
		if send == 0 || act.due < from {
			continue // body not captured, or the set-up of a workload without readers
		}
		an.submitUS = append(an.submitUS, float64(send-act.editEnd)/1e3)
		an.blockUS = append(an.blockUS, float64(act.bEnd-act.editEnd)/1e3)
		for i, a := range appliers {
			entry := where[i].entry.get(act.site, act.firstSeq)
			if entry == 0 || a.link == nil {
				continue
			}
			recv := recvAt[a.link].get(act.site, act.firstSeq)
			if recv == 0 || recv < send || recv > entry {
				continue // reached this replica by retransmission, not the live frame
			}
			an.chains = append(an.chains, chain{
				act: act, reader: a.site, send: send, recv: recv,
				entry: entry, exit: where[i].exit.get(act.site, act.firstSeq),
			})
		}
	}
	return an
}

// decodeOps returns the stamped operations a frame carries, unwrapping a
// directed replay; nil for every other kind of frame.
func decodeOps(body []byte) (msgs []causal.Message, replay bool) {
	decoded, err := transport.DecodeFrame(body)
	if err != nil {
		return nil, false
	}
	if rf, ok := decoded.(*transport.ReplayFrame); ok {
		replay = true
		if decoded, err = transport.DecodeFrame(rf.Inner); err != nil {
			return nil, false
		}
	}
	if of, ok := decoded.(*transport.OpsFrame); ok {
		return of.Msgs, replay
	}
	return nil, false
}

// budget is the mean of each stage over the chains whose total latency lies
// between the lo and hi quantiles, every chain weighted by its action's
// operation count as the delivery samples are: a latency budget at that
// point of the distribution whose stages sum to the band's mean latency.
type budget struct {
	late, edit, submit, relay, deliver, sum float64 // microseconds
	chains                                  int
}

func (an *analysis) budget(lo, hi float64) budget {
	cs := an.chains
	sort.Slice(cs, func(i, j int) bool { return cs[i].total() < cs[j].total() })
	var total float64
	for i := range cs {
		total += float64(cs[i].act.n)
	}
	var bg budget
	var cum, weight float64
	for i := range cs {
		c := &cs[i]
		n := float64(c.act.n)
		cum += n
		if cum <= lo*total {
			continue
		}
		if cum-n >= hi*total {
			break
		}
		bg.late += n * float64(c.late())
		bg.edit += n * float64(c.edit())
		bg.submit += n * float64(c.submit())
		bg.relay += n * float64(c.relay())
		bg.deliver += n * float64(c.deliver())
		weight += n
		bg.chains++
	}
	if weight == 0 {
		return budget{}
	}
	weight *= 1e3
	bg.late, bg.edit, bg.submit, bg.relay, bg.deliver = bg.late/weight, bg.edit/weight, bg.submit/weight, bg.relay/weight, bg.deliver/weight
	bg.sum = bg.late + bg.edit + bg.submit + bg.relay + bg.deliver
	return bg
}

func (b budget) print(w io.Writer, label string) {
	fmt.Fprintf(w, "# budget %s over %d chains: late %.1f + edit %.1f + submit %.1f + relay %.1f + deliver %.1f = %.1f us\n",
		label, b.chains, b.late, b.edit, b.submit, b.relay, b.deliver, b.sum)
}

// span is one record of the trace file.
type span struct {
	Trace  string `json:"trace"` // "<site>#<first seq>@<reader>": one action at one replica
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// selfTime is a span's duration minus the part of it its children cover
// (children may overlap each other and may stick out of the parent).
func selfTime(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, end := int64(0), parent.Start
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		covered += v.b - max(v.a, end)
		end = v.b
	}
	return parent.End - parent.Start - covered
}

// spans renders a chain as the root "op" span (due → apply return) and its
// five children.
func (c *chain) spans() []span {
	id := fmt.Sprintf("s%d#%d@s%d", c.act.site, c.act.firstSeq, c.reader)
	child := func(name string, a, b int64) span {
		return span{Trace: id, Name: name, Parent: "op", Start: a, End: b}
	}
	return []span{
		{Trace: id, Name: "op", Start: c.act.due, End: c.exit},
		child("edit", c.act.editStart, c.act.editEnd),
		child("submit", c.act.editEnd, c.send),
		child("relay", c.send, c.recv),
		child("deliver", c.recv, c.entry),
		child("apply", c.entry, c.exit),
	}
}

// maxTraceChains bounds the trace file: an even sample of the chains.
const maxTraceChains = 5000

// writeTrace writes a sample of the span chains to <out>/<workload>.trace.json
// and returns the path with the median self time of the root spans (the
// part of an op's life no stage accounts for: generator lateness).
func (an *analysis) writeTrace(cfg config) (string, float64, error) {
	type file struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Clock    string `json:"clock"`
		Chains   int    `json:"chains_total"`
		Spans    []span `json:"spans"`
	}
	out := file{Workload: cfg.workload, Seed: cfg.seed, Clock: "nanoseconds since the traced pass began", Chains: len(an.chains)}
	step := max(1, (len(an.chains)+maxTraceChains-1)/maxTraceChains)
	var selfs []float64
	for i := 0; i < len(an.chains); i += step {
		sp := an.chains[i].spans()
		out.Spans = append(out.Spans, sp...)
		selfs = append(selfs, float64(selfTime(sp[0], sp[1:]))/1e3)
	}
	path := filepath.Join(cfg.outDir, cfg.workload+".trace.json")
	data, err := json.Marshal(out)
	if err != nil {
		return "", 0, err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", 0, err
	}
	return path, median(selfs), nil
}

// maxDriverOps bounds the history the layer drivers replay, so a traced
// bulk-replay pass stays within the run budget: the drivers see the first
// 20,000 operations of a document, a causally closed prefix.
const maxDriverOps = 20000

// docHistory picks the first document whose live frames were captured from
// its first operation and returns those frames in send order with their
// operations flattened: a causally valid replay of that document (a frame
// is sent after everything its operations depend on was sent).
func (an *analysis) docHistory() (frames []sentFrame, msgs []causal.Message) {
	var doc string
	for _, f := range an.frames {
		if f.replay {
			continue
		}
		if len(msgs) >= maxDriverOps {
			break
		}
		if doc == "" {
			doc = f.link.doc
		}
		if f.link.doc == doc {
			frames = append(frames, f)
			msgs = append(msgs, f.msgs...)
		}
	}
	return frames, msgs
}

func opsOf(msgs []causal.Message) []core.Op {
	ops := make([]core.Op, 0, len(msgs))
	for _, m := range msgs {
		if op, ok := m.Payload.(core.Op); ok {
			ops = append(ops, op)
		}
	}
	return ops
}
