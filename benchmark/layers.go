package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/treedoc/treedoc"
	"github.com/treedoc/treedoc/internal/causal"
	"github.com/treedoc/treedoc/internal/core"
	"github.com/treedoc/treedoc/internal/ident"
	"github.com/treedoc/treedoc/internal/oplog"
	"github.com/treedoc/treedoc/internal/storage"
	"github.com/treedoc/treedoc/internal/transport"
	"github.com/treedoc/treedoc/internal/vclock"
)

// driverSite is a site no workload replica uses: the layer drivers' own
// causal buffer and scratch documents live there.
const driverSite = ident.SiteID(1) << 40

// timed returns the median over reps runs of f's duration in nanoseconds.
func timed(reps int, f func()) float64 {
	ds := make([]float64, reps)
	for i := range ds {
		t := time.Now()
		f()
		ds[i] = float64(time.Since(t))
	}
	return median(ds)
}

// layers reduces a traced pass to the per-layer metrics: counters read at
// the wrappers, the offline span analysis, and drivers that replay the
// frames and operations captured from this very workload through each
// layer's exported functions. refP50 is the untraced deliver_p50_ms.
func (p *pass) layers(w io.Writer, refP50 float64) (metricSet, error) {
	// Every metric starts at 0: a layer the workload does not exercise (no
	// log, no live readers, nothing captured) reports zeros.
	m := metricSet{}
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	an := analyze(p.rec, p.winStart)
	frames, msgs := an.docHistory()
	ops := opsOf(msgs)
	fmt.Fprintf(w, "# traced: %d frames decoded, %d chains, drivers replay %d ops in %d frames of %s\n",
		len(an.frames), len(an.chains), len(ops), len(frames), historyDoc(frames))

	p.docLayer(m, ops)
	if err := p.causalAndStorage(m, msgs); err != nil {
		return nil, err
	}
	p.codecLayer(m, ops, msgs, frames)
	if err := p.oplogLayer(m, frames); err != nil {
		return nil, err
	}
	p.engineLayer(m, an)
	if err := p.hubLayer(m, an, frames); err != nil {
		return nil, err
	}
	p.retainedLayer(m, msgs)
	p.runtimeLayer(m)

	// Generator validity and the stage budget.
	m["gen.late_p99_ms"] = quantile(append([]float64(nil), p.rec.lates...), 0.99)
	m["gen.sent_ops"] = float64(p.ops)
	timings := p.timings()
	for _, d := range ungated {
		m["gen."+d.Name] = timings[d.Name]
	}
	m["gen.deliver_p99_run_ms"] = float64(weightedQuantile(p.deliver, 0.99)) / 1e6
	m["gen.join_p90_ms"] = quantile(p.joinMS(), 0.90)
	snaps := 0
	for _, j := range p.joins {
		if j.snapshot {
			snaps++
		}
	}
	m["gen.join_snapshot_frac"] = ratio(float64(snaps), float64(len(p.joins)))
	tracedP50 := timings["deliver_p50_ms"]
	if refP50 > 0 {
		m["gen.trace_overhead_frac"] = tracedP50/refP50 - 1
	}
	mid := an.budget(0.40, 0.60)
	m["budget.late_us"], m["budget.edit_us"], m["budget.submit_us"] = mid.late, mid.edit, mid.submit
	m["budget.relay_us"], m["budget.deliver_us"], m["budget.sum_us"] = mid.relay, mid.deliver, mid.sum
	mid.print(w, "at the median (P40-P60)")
	an.budget(0.985, 0.995).print(w, "at the tail (P98.5-P99.5)")
	if refP50 > 0 && mid.sum > 0 {
		fmt.Fprintf(w, "# budget closure: stages sum to %.1f us, untraced deliver_p50 is %.1f us (%+.1f%%); traced p50 %.1f us\n",
			mid.sum, refP50*1e3, (mid.sum/(refP50*1e3)-1)*100, tracedP50*1e3)
	}
	path, rootSelf, err := an.writeTrace(p.cfg)
	if err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(w, "# trace file %s (root span self time p50 %.1f us)\n", path, rootSelf)

	// Last, with the trace records released so the heap is the system's.
	an, frames, msgs, ops = nil, nil, nil, nil
	p.rec.dropTraces()
	p.commitLayer(m)
	return m, nil
}

func historyDoc(frames []sentFrame) string {
	if len(frames) == 0 {
		return "no document"
	}
	return frames[0].link.doc
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// docLayer: the public Doc calls, measured at the generator's edits and the
// appliers' applies, plus Snapshot/InstallSnapshot and Stats on a replica
// the workload left live.
func (p *pass) docLayer(m metricSet, ops []core.Op) {
	m["doc.edit_us"] = quantile(append([]float64(nil), p.rec.editCalls...), 0.50)
	var editOps float64
	for i := range p.rec.actions {
		editOps += float64(p.rec.actions[i].n)
	}
	m["doc.edit_ops"] = editOps
	var applyNs, applyOps, calls float64
	p.rec.mu.Lock()
	for _, a := range p.rec.appliers {
		a.mu.Lock()
		applyNs += float64(a.applyNs)
		applyOps += float64(a.applyOps)
		calls += float64(len(a.calls))
		a.mu.Unlock()
	}
	p.rec.mu.Unlock()
	m["doc.apply_us_per_op"] = ratio(applyNs/1e3, applyOps)
	m["doc.apply_batch_ops"] = ratio(applyOps, calls)

	if p.lastGroup == nil || len(p.lastGroup.reps) == 0 {
		return
	}
	doc := p.lastGroup.reps[0].app.Doc
	var data []byte
	m["doc.snapshot_us"] = timed(3, func() { data, _, _ = doc.Snapshot() }) / 1e3
	m["doc.install_us"] = timed(3, func() {
		if fresh, err := treedoc.New(treedoc.WithSite(driverSite)); err == nil {
			_, _ = fresh.InstallSnapshot(data)
		}
	}) / 1e3
	st := doc.Stats().Tree
	m["doctree.nodes_per_atom"] = ratio(float64(st.Nodes), float64(st.LiveAtoms))
	m["doctree.tombstone_frac"] = ratio(float64(st.DeadMinis), float64(st.Minis))
}

// causalAndStorage drives internal/causal with the captured messages, in
// send order and shuffled within windows of 64, and rebuilds the document
// from the delivered operations to drive internal/storage on its tree.
func (p *pass) causalAndStorage(m metricSet, msgs []causal.Message) error {
	if len(msgs) == 0 {
		return nil
	}
	doc, err := core.NewDocument(core.Config{Site: driverSite})
	if err != nil {
		return err
	}
	inorder := causal.NewBuffer(driverSite)
	delivered := 0
	t := time.Now()
	for _, msg := range msgs {
		out, err := inorder.Add(msg)
		if err != nil {
			return fmt.Errorf("causal driver: %w", err)
		}
		delivered += len(out)
	}
	m["causal.add_inorder_ns"] = float64(time.Since(t)) / float64(len(msgs))
	if delivered != len(msgs) {
		return fmt.Errorf("causal driver: send order delivered %d of %d captured messages", delivered, len(msgs))
	}

	shuffled := append([]causal.Message(nil), msgs...)
	rng := rand.New(rand.NewSource(p.cfg.seed))
	for lo := 0; lo < len(shuffled); lo += 64 {
		blk := shuffled[lo:min(lo+64, len(shuffled))]
		rng.Shuffle(len(blk), func(i, j int) { blk[i], blk[j] = blk[j], blk[i] })
	}
	reordered := causal.NewBuffer(driverSite)
	pendingMax, delivered := 0, 0
	var order []causal.Message
	t = time.Now()
	for _, msg := range shuffled {
		out, err := reordered.Add(msg)
		if err != nil {
			return fmt.Errorf("causal driver: %w", err)
		}
		delivered += len(out)
		order = append(order, out...)
		pendingMax = max(pendingMax, reordered.Pending())
	}
	m["causal.add_reordered_ns"] = float64(time.Since(t)) / float64(len(msgs))
	m["causal.pending_max"] = float64(pendingMax)
	if delivered != len(msgs) {
		return fmt.Errorf("causal driver: shuffled order delivered %d of %d captured messages", delivered, len(msgs))
	}

	// The reordered delivery is a different but still causal order: the
	// document built from it must be a valid tree.
	for _, msg := range order {
		if err := doc.Apply(msg.Payload.(core.Op)); err != nil {
			return fmt.Errorf("storage driver: rebuild: %w", err)
		}
	}
	if err := doc.Check(); err != nil {
		return fmt.Errorf("storage driver: rebuilt tree: %w", err)
	}
	var enc []byte
	m["storage.encode_us"] = timed(3, func() { enc = storage.Encode(doc.Tree()) }) / 1e3
	var decErr error
	m["storage.decode_us"] = timed(3, func() { _, decErr = storage.Decode(enc) }) / 1e3
	if decErr != nil {
		return fmt.Errorf("storage driver: decode: %w", decErr)
	}
	m["storage.snapshot_bytes_per_atom"] = ratio(float64(len(enc)), float64(doc.Len()))
	return nil
}

// codecLayer: core.Op and vclock encoding per captured op, identifier
// sizes, and the ops-frame codec on the captured frames.
func (p *pass) codecLayer(m metricSet, ops []core.Op, msgs []causal.Message, frames []sentFrame) {
	// wire.frames counts every live ops frame the writers sent in the pass,
	// captured or not.
	var liveFrames float64
	p.rec.mu.Lock()
	for _, l := range p.rec.links {
		if !l.writer {
			continue
		}
		l.smu.Lock()
		for _, rec := range l.sends {
			if rec.kind == opsKind {
				liveFrames++
			}
		}
		l.smu.Unlock()
	}
	p.rec.mu.Unlock()
	m["wire.frames"] = liveFrames
	if len(ops) == 0 {
		return
	}
	n := float64(len(ops))
	buf := make([]byte, 0, 512)
	encoded := make([][]byte, len(ops))
	pathBytes := make([]float64, len(ops))
	var atomBytes float64
	for i, op := range ops {
		encoded[i] = op.AppendBinary(nil)
		pathBytes[i] = float64(len(op.ID.AppendBinary(buf[:0])))
		atomBytes += float64(len(op.Atom))
	}
	m["ident.path_bytes_p50"] = quantile(pathBytes, 0.50)
	m["ident.path_bytes_max"] = pathBytes[len(pathBytes)-1]
	m["core.op_encode_ns"] = timed(3, func() {
		for i := range ops {
			buf = ops[i].AppendBinary(buf[:0])
		}
	}) / n
	m["core.op_decode_ns"] = timed(3, func() {
		for _, b := range encoded {
			_, _, _ = core.DecodeOp(b)
		}
	}) / n
	m["vclock.encode_ns"] = timed(3, func() {
		for i := range msgs {
			buf = msgs[i].TS.AppendBinary(buf[:0])
		}
	}) / float64(len(msgs))

	var frameBytes float64
	for _, f := range frames {
		frameBytes += float64(len(f.rec.body))
	}
	m["wire.encode_ns_per_op"] = timed(3, func() {
		for _, f := range frames {
			_, _ = transport.EncodeOps(f.msgs)
		}
	}) / n
	m["wire.decode_ns_per_op"] = timed(3, func() {
		for _, f := range frames {
			_, _ = transport.DecodeFrame(f.rec.body)
		}
	}) / n
	m["wire.frame_ops_mean"] = n / float64(len(frames))
	m["wire.overhead_frac"] = 1 - atomBytes/frameBytes
}

// oplogLayer replays the captured flush batches through internal/oplog on
// the same filesystem and policy the durable writers use: append each
// record, sync once per batch. A workload without a log reports zeros, so
// the typing pair isolates this layer.
func (p *pass) oplogLayer(m metricSet, frames []sentFrame) error {
	if p.fl.logRoot == "" || len(frames) == 0 {
		return nil
	}
	dir := p.fl.logRoot + "-driver"
	defer os.RemoveAll(dir)
	l, err := oplog.Open(dir, oplog.Options{Fsync: oplog.FsyncBatch})
	if err != nil {
		return fmt.Errorf("oplog driver: %w", err)
	}
	defer l.Close()
	var appendNs, records float64
	var syncUS []float64
	for _, f := range frames[:min(len(frames), 2000)] {
		for _, msg := range f.msgs {
			body, err := transport.EncodeMsgBody(msg)
			if err != nil {
				return fmt.Errorf("oplog driver: %w", err)
			}
			t := time.Now()
			if err := l.Append(msg.From, msg.TS.Get(msg.From), body); err != nil {
				return fmt.Errorf("oplog driver: %w", err)
			}
			appendNs += float64(time.Since(t))
			records++
		}
		t := time.Now()
		if err := l.Sync(); err != nil {
			return fmt.Errorf("oplog driver: %w", err)
		}
		syncUS = append(syncUS, float64(time.Since(t))/1e3)
	}
	m["oplog.append_us"] = appendNs / 1e3 / records
	m["oplog.syncs"] = float64(len(syncUS))
	m["oplog.sync_p50_us"] = quantile(syncUS, 0.50)
	m["oplog.sync_p99_us"] = quantile(syncUS, 0.99)
	m["oplog.bytes_per_op"] = float64(l.SizeBytes()) / records
	return nil
}

// engineLayer: the engine's two paths as seen from its Link and Applier,
// and its own counters summed over every engine of the pass.
func (p *pass) engineLayer(m metricSet, an *analysis) {
	m["engine.submit_p50_us"] = quantile(an.submitUS, 0.50)
	m["engine.submit_p99_us"] = quantile(an.submitUS, 0.99)
	m["engine.broadcast_block_us"] = mean(an.blockUS)
	m["engine.deliver_p50_us"] = quantile(an.delivUS, 0.50)
	m["engine.deliver_p99_us"] = quantile(an.delivUS, 0.99)
	es := p.fl.engineStats()
	m["engine.drops"] = float64(es.Drops)
	m["engine.digests_sent"] = float64(es.DigestsSent)
	m["engine.digests_suppressed"] = float64(es.DigestsSuppressed)
	m["engine.replay_frac"] = ratio(float64(es.ReplayOps), float64(es.Applied))
}

// hubLayer: the relay as matched by payload hash, the hub's counters, and a
// hub-only fan-out driver at group sizes the workloads do not reach.
func (p *pass) hubLayer(m metricSet, an *analysis, frames []sentFrame) error {
	m["hub.relay_p50_us"] = quantile(an.relayUS, 0.50)
	m["hub.relay_p99_us"] = quantile(an.relayUS, 0.99)
	m["hub.relay_last_us"] = quantile(an.lastUS, 0.50)
	hs := p.fl.hub.Stats()
	m["hub.relays"] = float64(hs.Relays)
	m["hub.drops"] = float64(hs.Drops)
	m["session.attach_us"] = median(append([]float64(nil), p.attachMS...)) * 1e3
	m["session.syncbatch_entries_per_frame"] = ratio(float64(hs.SyncBatchEntries), float64(hs.SyncBatchFrames))

	// The probe frame is a real one from this workload when there is one.
	probe, _ := transport.EncodeOps(nil)
	if len(frames) > 0 {
		probe = frames[len(frames)/2].rec.body
	}
	for _, n := range []int{8, 64, 256} {
		us, err := hubFanout(n, probe)
		if err != nil {
			return fmt.Errorf("hub fan-out driver (%d sinks): %w", n, err)
		}
		m[fmt.Sprintf("hub.fanout_us.%d", n)] = us
	}
	return nil
}

// hubFanout starts a fresh hub with one sender and n idle sink links on one
// document and returns the median time from Send to the last sink's Recv.
func hubFanout(n int, frame []byte) (float64, error) {
	hub, err := transport.ListenHub("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer hub.Close()
	addr := hub.Addr().String()
	var (
		got   atomic.Int64
		round = make(chan struct{}, 1)
		wg    sync.WaitGroup
		links []transport.Link
	)
	defer func() {
		for _, l := range links {
			l.Close()
		}
		wg.Wait()
	}()
	for i := 0; i < n; i++ {
		l, err := transport.DialDoc(addr, "fanout")
		if err != nil {
			return 0, err
		}
		links = append(links, l)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if _, err := l.Recv(); err != nil {
					return
				}
				if got.Add(1)%int64(n) == 0 {
					round <- struct{}{}
				}
			}
		}()
	}
	sender, err := transport.DialDoc(addr, "fanout")
	if err != nil {
		return 0, err
	}
	links = append(links, sender)
	const rounds = 40
	us := make([]float64, 0, rounds)
	for i := 0; i < rounds; i++ {
		t := time.Now()
		if err := sender.Send(frame); err != nil {
			return 0, err
		}
		select {
		case <-round:
		case <-time.After(5 * time.Second):
			return 0, fmt.Errorf("only %d of %d deliveries arrived", got.Load(), (i+1)*n)
		}
		us = append(us, float64(time.Since(t))/1e3)
	}
	return median(us[rounds/4:]), nil // the first rounds warm connections and queues
}

// retainedLayer answers a digest that is 1,000 operations behind from a
// RetainedLog holding the workload's own history.
func (p *pass) retainedLayer(m metricSet, msgs []causal.Message) {
	if len(msgs) < 2 {
		return
	}
	var log transport.RetainedLog
	behind := vclock.New()
	cut := max(len(msgs)-1000, len(msgs)/2)
	for i, msg := range msgs {
		log.Append(msg)
		if i < cut {
			behind[msg.From] = max(behind[msg.From], msg.TS.Get(msg.From))
		}
	}
	var scratch []causal.Message
	m["retained.answer_us"] = timed(21, func() { scratch = log.AppendMissing(scratch[:0], behind) }) / 1e3
}

// commitLayer runs one whole-document flatten commitment on every group the
// workload left live and quiescent, then measures the heap again: the
// paper's "flatten leaves no overhead" check.
func (p *pass) commitLayer(m metricSet) {
	var roundMS []float64
	var live []*group
	for _, g := range p.fl.groups {
		if len(g.reps) == 0 {
			continue
		}
		live = append(live, g)
		coord := g.reps[0].eng
		aborted := coord.FlattensAborted()
		t := time.Now()
		if err := coord.ProposeFlatten(); err != nil {
			m["commit.flatten_aborts"]++
			continue
		}
		done := func() bool {
			for _, r := range g.reps {
				if r.eng.FlattensApplied() == 0 {
					return false
				}
			}
			return true
		}
		for !done() && coord.FlattensAborted() == aborted && time.Since(t) < 5*time.Second {
			time.Sleep(time.Millisecond)
		}
		if done() {
			roundMS = append(roundMS, float64(time.Since(t))/1e6)
		} else {
			m["commit.flatten_aborts"]++
		}
	}
	m["commit.flatten_round_ms"] = median(roundMS)
	m["doctree.heap_bytes_per_atom_flat"] = p.fl.docHeapPerAtom(live)
}

// runtimeLayer: the Go runtime over the timed window.
func (p *pass) runtimeLayer(m metricSet) {
	cycles := p.mem1.NumGC - p.mem0.NumGC
	m["go.gc_cycles"] = float64(cycles)
	var pauses []float64
	for i := uint32(0); i < min(cycles, 256); i++ {
		pauses = append(pauses, float64(p.mem1.PauseNs[(p.mem1.NumGC-1-i+256)%256])/1e3)
	}
	m["go.gc_pause_p99_us"] = quantile(pauses, 0.99)
	m["go.alloc_bytes_per_op"] = ratio(float64(p.mem1.TotalAlloc-p.mem0.TotalAlloc), float64(p.ops))
	m["go.allocs_per_op"] = ratio(float64(p.mem1.Mallocs-p.mem0.Mallocs), float64(p.ops))
}
