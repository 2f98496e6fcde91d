package main

import (
	"hash/maphash"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/treedoc/treedoc"
	"github.com/treedoc/treedoc/internal/transport"
)

// captureBudget bounds the frame bodies a traced pass copies for the
// offline analysis and the layer drivers; frames past it keep their
// timestamps and hash but not their bytes.
const captureBudget = 48 << 20

// recorder is the measurement state of one pass. Everything the benchmark
// knows about the system it learns here: at the Links and Appliers it hands
// to the engines, and at the generator's own calls. Nothing inside the
// program is touched.
type recorder struct {
	base    time.Time
	traced  bool
	hashKey maphash.Seed
	capLeft atomic.Int64

	mu       sync.Mutex
	appliers []*applier   // guarded by mu
	links    []*meterLink // guarded by mu

	// Generator-side records, written by the single driving goroutine.
	actions   []actionRec
	editCalls []float64 // traced: microseconds per InsertRunAt/DeleteAt call
	lates     []float64 // open loop: milliseconds each action started after it was due
}

func newRecorder(traced bool) *recorder {
	r := &recorder{base: time.Now(), traced: traced, hashKey: maphash.MakeSeed()}
	r.capLeft.Store(captureBudget)
	return r
}

// now is nanoseconds on the pass clock (monotonic).
func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// stamp renders a due time as the atom prefix the remote appliers parse.
func stamp(due int64) string { return strconv.FormatInt(due, 36) + "|" }

// actionRec is one generator action (a keystroke, a paste, a revision): the
// ops [firstSeq, firstSeq+n) of site, when they were due, and the
// generator's own calls around them. It is the root of a traced span chain.
type actionRec struct {
	site                          uint64
	firstSeq                      uint64
	n                             int32
	due, editStart, editEnd, bEnd int64 // Broadcast runs from editEnd to bEnd
}

// applier wraps the replica handed to an engine. The embedded Doc keeps
// the Snapshotter and Flattener contracts; Apply, ApplyBatch and
// InstallSnapshot are the delivery measurement points.
type applier struct {
	*treedoc.Doc
	rec  *recorder
	site uint64
	link *meterLink
	// dueFixed, when set, is the due time of every operation this replica
	// receives: a late joiner was owed the whole history when it dialled.
	dueFixed int64
	// notify (capacity 1, shared by a group) is poked after every apply so
	// closed-loop drivers wait on progress instead of polling.
	notify  chan struct{}
	applied atomic.Int64 // operations applied or covered by an installed snapshot
	snaps   atomic.Int64 // snapshots installed

	mu       sync.Mutex
	samples  []sample // guarded by mu
	calls    []applyCall
	runs     []seqRun
	applyNs  int64
	applyOps int64
}

// applyCall is one traced Apply/ApplyBatch: its interval and the runs of
// (site, seq) it carried, as a window into applier.runs.
type applyCall struct {
	entry, exit int64
	run0, runN  int32
}

type seqRun struct {
	site   uint64
	lo, hi uint64
}

func (r *recorder) newApplier(doc *treedoc.Doc, site treedoc.SiteID, notify chan struct{}) *applier {
	a := &applier{Doc: doc, rec: r, site: uint64(site), notify: notify}
	r.mu.Lock()
	r.appliers = append(r.appliers, a)
	r.mu.Unlock()
	return a
}

var (
	_ transport.BatchApplier = (*applier)(nil)
	_ transport.Snapshotter  = (*applier)(nil)
	_ transport.Flattener    = (*applier)(nil)
)

func (a *applier) Apply(op treedoc.Op) error {
	_, err := a.ApplyBatch([]treedoc.Op{op})
	return err
}

func (a *applier) ApplyBatch(ops []treedoc.Op) (int, error) {
	entry := a.rec.now()
	a.observe(ops, entry)
	n, err := a.Doc.ApplyBatch(ops)
	if a.rec.traced {
		a.traceCall(ops, entry, a.rec.now())
	}
	a.applied.Add(int64(n))
	a.poke()
	return n, err
}

func (a *applier) InstallSnapshot(data []byte) (treedoc.Version, error) {
	entry := a.rec.now()
	v, err := a.Doc.InstallSnapshot(data)
	if err != nil {
		return v, err
	}
	var covered int64
	for _, seq := range v {
		covered += int64(seq)
	}
	// The snapshot stands in for every operation it covers that had not
	// arrived yet; the engine's causal buffer drops the duplicates later.
	if fresh := covered - a.applied.Load(); fresh > 0 {
		if a.dueFixed > 0 {
			a.addSample(sample{at: entry, lat: entry - a.dueFixed, n: int32(fresh)})
		}
		a.applied.Store(covered)
	}
	a.snaps.Add(1)
	a.poke()
	return v, nil
}

func (a *applier) poke() {
	select {
	case a.notify <- struct{}{}:
	default:
	}
}

func (a *applier) addSample(s sample) {
	a.mu.Lock()
	a.samples = append(a.samples, s)
	a.mu.Unlock()
}

// observe records due→entry for the stamped inserts of one apply call,
// one sample per run of operations sharing a due time. Deletes carry no
// atom and so no stamp; they ride in the same frames as their neighbours.
func (a *applier) observe(ops []treedoc.Op, entry int64) {
	if a.dueFixed > 0 {
		a.addSample(sample{at: entry, lat: entry - a.dueFixed, n: int32(len(ops))})
		return
	}
	var (
		prev    string
		prevDue int64
		n       int32
	)
	flush := func() {
		if n > 0 {
			a.addSample(sample{at: entry, lat: entry - prevDue, n: n})
			n = 0
		}
	}
	for i := range ops {
		atom := ops[i].Atom
		j := strings.IndexByte(atom, '|')
		if j <= 0 {
			continue
		}
		if p := atom[:j]; p != prev {
			flush()
			due, err := strconv.ParseInt(p, 36, 64)
			if err != nil {
				prev = ""
				continue
			}
			prev, prevDue = p, due
		}
		n++
	}
	flush()
}

func (a *applier) traceCall(ops []treedoc.Op, entry, exit int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	run0 := int32(len(a.runs))
	for i := range ops {
		site, seq := uint64(ops[i].Site), ops[i].Seq
		if k := len(a.runs) - 1; k >= int(run0) && a.runs[k].site == site && a.runs[k].hi+1 == seq {
			a.runs[k].hi = seq
			continue
		}
		a.runs = append(a.runs, seqRun{site: site, lo: seq, hi: seq})
	}
	a.calls = append(a.calls, applyCall{entry: entry, exit: exit, run0: run0, runN: int32(len(a.runs)) - run0})
	a.applyNs += exit - entry
	a.applyOps += int64(len(ops))
}

// retire drops the replica so a finished round's document can be
// collected; the recorded samples stay.
func (a *applier) retire() { a.Doc = nil }

// frameRec is one traced Link.Send or Link.Recv.
type frameRec struct {
	hash       uint64
	start, end int64  // Send: entry and return; Recv: both the return
	kind       byte   // first byte of the frame
	body       []byte // Send only, while the capture budget lasts
}

// meterLink wraps every Link the benchmark hands to an engine. It always
// counts the bytes sent (wire_bytes_per_op needs them in untraced runs);
// in a traced pass it also timestamps and hashes each frame so the offline
// analysis can match a writer's Send to every reader's Recv.
type meterLink struct {
	transport.Link
	rec    *recorder
	doc    string
	writer bool // a workload writer: its Sends count toward wire_bytes_per_op

	sentBytes atomic.Int64

	smu   sync.Mutex
	sends []frameRec // guarded by smu
	rmu   sync.Mutex
	recvs []frameRec // guarded by rmu
}

func (r *recorder) meter(l transport.Link, doc string, writer bool) *meterLink {
	m := &meterLink{Link: l, rec: r, doc: doc, writer: writer}
	r.mu.Lock()
	r.links = append(r.links, m)
	r.mu.Unlock()
	return m
}

// RoutesReplay forwards the wrapped link's directed-answer capability.
// Embedding the Link interface hides the concrete link's method, and an
// engine that does not see it falls back to broadcast answers — the PR 10
// trap this wrapper must not re-open.
func (m *meterLink) RoutesReplay() bool {
	rr, ok := m.Link.(transport.ReplayRouter)
	return ok && rr.RoutesReplay()
}

func (m *meterLink) Send(frame []byte) error {
	m.sentBytes.Add(int64(len(frame)))
	if !m.rec.traced {
		return m.Link.Send(frame)
	}
	rec := frameRec{hash: maphash.Bytes(m.rec.hashKey, frame)}
	if len(frame) > 0 {
		rec.kind = frame[0]
	}
	if m.rec.capLeft.Add(-int64(len(frame))) >= 0 {
		rec.body = append([]byte(nil), frame...)
	}
	rec.start = m.rec.now()
	err := m.Link.Send(frame)
	rec.end = m.rec.now()
	m.smu.Lock()
	m.sends = append(m.sends, rec)
	m.smu.Unlock()
	return err
}

func (m *meterLink) Recv() ([]byte, error) {
	frame, err := m.Link.Recv()
	if err == nil && m.rec.traced {
		t := m.rec.now()
		m.rmu.Lock()
		m.recvs = append(m.recvs, frameRec{hash: maphash.Bytes(m.rec.hashKey, frame), start: t, end: t})
		m.rmu.Unlock()
	}
	return frame, err
}

// dropTraces releases the traced pass's frame and call records once the
// analysis has consumed them, so a later heap measurement sees the system.
func (r *recorder) dropTraces() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, l := range r.links {
		l.smu.Lock()
		l.sends = nil
		l.smu.Unlock()
		l.rmu.Lock()
		l.recvs = nil
		l.rmu.Unlock()
	}
	for _, a := range r.appliers {
		a.mu.Lock()
		a.calls, a.runs = nil, nil
		a.mu.Unlock()
	}
	r.actions, r.editCalls = nil, nil
}

// writerBytes sums the bytes the workload's writers passed to Link.Send.
func (r *recorder) writerBytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var n int64
	for _, l := range r.links {
		if l.writer {
			n += l.sentBytes.Load()
		}
	}
	return n
}

// deliverSamples gathers every applier's samples.
func (r *recorder) deliverSamples() []sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []sample
	for _, a := range r.appliers {
		a.mu.Lock()
		out = append(out, a.samples...)
		a.mu.Unlock()
	}
	return out
}
