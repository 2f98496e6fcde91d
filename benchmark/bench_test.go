package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/treedoc/treedoc"
	"github.com/treedoc/treedoc/internal/causal"
	"github.com/treedoc/treedoc/internal/trace"
	"github.com/treedoc/treedoc/internal/transport"
	"github.com/treedoc/treedoc/internal/vclock"
)

// The windowed-p99 reducer against a reference that expands every weight
// and sorts each window on its own.
func TestWindowedP99MatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const width, windows = int64(1000), 12
	var samples []sample
	perWindow := make([][]int64, windows)
	for i := 0; i < 5000; i++ {
		s := sample{at: rng.Int63n(width * windows), lat: 1 + rng.Int63n(1e6), n: int32(1 + rng.Intn(5))}
		samples = append(samples, s)
		w := s.at / width
		for k := int32(0); k < s.n; k++ {
			perWindow[w] = append(perWindow[w], s.lat)
		}
	}
	samples = append(samples, sample{at: -5, lat: 1 << 40, n: 100}, sample{at: width * windows, lat: 1 << 40, n: 100})
	var want []float64
	for _, lats := range perWindow[1 : windows-1] { // first and last window dropped
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		want = append(want, float64(lats[int(math.Ceil(0.99*float64(len(lats))))-1]))
	}
	got, n := windowedP99(samples, 0, width*windows, width)
	if n != windows-2 {
		t.Fatalf("used %d windows, want %d", n, windows-2)
	}
	if ref := int64(median(want)); got != ref {
		t.Fatalf("windowed p99 = %d, sorted reference = %d", got, ref)
	}
}

func TestWeightedQuantileCountsWeights(t *testing.T) {
	s := []sample{{lat: 10, n: 1}, {lat: 20, n: 98}, {lat: 30, n: 1}}
	if got := weightedQuantile(s, 0.5); got != 20 {
		t.Fatalf("p50 = %d, want 20", got)
	}
	if got := weightedQuantile(s, 0.995); got != 30 {
		t.Fatalf("p99.5 = %d, want 30", got)
	}
	if got := weightedQuantile(nil, 0.5); got != 0 {
		t.Fatalf("empty = %d, want 0", got)
	}
}

// quartiles must agree with Python's statistics.quantiles(values, n=4),
// which is what the driver judges spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 3, 2, 4}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: 100, End: 200}
	cases := []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []span{{Start: 110, End: 120}, {Start: 150, End: 170}}, 70},
		{"overlapping children count once", []span{{Start: 110, End: 150}, {Start: 140, End: 160}}, 50},
		{"nested child", []span{{Start: 110, End: 190}, {Start: 120, End: 130}}, 20},
		{"sticking out is clipped", []span{{Start: 50, End: 120}, {Start: 190, End: 400}}, 70},
		{"fully covered", []span{{Start: 0, End: 500}}, 0},
		{"outside entirely", []span{{Start: 300, End: 400}}, 100},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time = %d, want %d", c.name, got, c.want)
		}
	}
	// A chain's stages are contiguous, so its root's self time is exactly
	// the generator's lateness.
	act := &actionRec{site: 1, firstSeq: 1, n: 1, due: 1000, editStart: 1300, editEnd: 1400, bEnd: 1450}
	c := chain{act: act, reader: 2, send: 1500, recv: 1900, entry: 1950, exit: 2000}
	sp := c.spans()
	if got := selfTime(sp[0], sp[1:]); got != c.late() {
		t.Fatalf("root self time = %d, want the lateness %d", got, c.late())
	}
	if sum := c.late() + c.edit() + c.submit() + c.relay() + c.deliver(); sum != c.total() {
		t.Fatalf("stages sum to %d, total is %d", sum, c.total())
	}
}

// The same seed must give the same due-time schedule and the same edit
// script; another seed must not.
func TestSeedDeterminism(t *testing.T) {
	a := buildSchedule(42, 8, 100, 2*time.Second)
	b := buildSchedule(42, 8, 100, 2*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave two schedules")
	}
	if len(a) != 8*200 {
		t.Fatalf("schedule has %d slots, want %d", len(a), 8*200)
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i].due < a[j].due }) {
		t.Fatal("schedule is not in due-time order")
	}
	if reflect.DeepEqual(a, buildSchedule(43, 8, 100, 2*time.Second)) {
		t.Fatal("different seeds gave the same schedule")
	}

	edits := func(seed int64) []trace.Edit {
		st, err := trace.NewStream(trace.DefaultMix(), seed, "w")
		if err != nil {
			t.Fatal(err)
		}
		var out []trace.Edit
		docLen := 0
		for i := 0; i < 500; i++ {
			e := st.Next(docLen)
			docLen += len(e.Ins) - e.Del
			out = append(out, e)
		}
		return out
	}
	if !reflect.DeepEqual(edits(9), edits(9)) {
		t.Fatal("same seed gave two edit streams")
	}
	if reflect.DeepEqual(edits(9), edits(10)) {
		t.Fatal("different seeds gave the same edit stream")
	}

	p := historyProfile(5, 20, 120, 40, 8)
	s1, err := buildScript(p)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := buildScript(p)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("same seed gave two history scripts")
	}
	if len(s1.revs) != 41 || len(s1.final) != 120 {
		t.Fatalf("script has %d revisions and %d final atoms, want 41 and 120", len(s1.revs), len(s1.final))
	}
}

// A script replayed through the editor must rebuild the trace's final
// document, with and without due-time stamps.
func TestEditorReplaysScript(t *testing.T) {
	sc, err := buildScript(historyProfile(3, 20, 150, 50, 8))
	if err != nil {
		t.Fatal(err)
	}
	for _, stamped := range []bool{false, true} {
		rec := newRecorder(true)
		doc, _ := treedoc.New(treedoc.WithSite(1))
		app := rec.newApplier(doc, 1, make(chan struct{}, 1))
		a, b := transport.ChanPair(1024)
		eng, err := transport.NewEngine(1, app)
		if err != nil {
			t.Fatal(err)
		}
		eng.Connect(a)
		go func() {
			for {
				if _, err := b.Recv(); err != nil {
					return
				}
			}
		}()
		ed := &editor{rec: rec, r: &replica{site: 1, app: app, eng: eng}}
		total := 0
		for i, steps := range sc.revs {
			n, err := ed.apply(rec.now(), stamped, false, steps)
			if err != nil {
				t.Fatalf("revision %d: %v", i, err)
			}
			total += n
		}
		eng.Stop()
		if got := stripStamps(doc.Content()); !slices.Equal(got, sc.final) {
			t.Fatalf("stamped=%v: replay ended with %d atoms, trace with %d", stamped, len(got), len(sc.final))
		}
		if uint64(total) != ed.r.sent || len(rec.actions) != len(sc.revs) {
			t.Fatalf("stamped=%v: %d ops, sent %d, %d actions for %d revisions", stamped, total, ed.r.sent, len(rec.actions), len(sc.revs))
		}
	}
}

// The applier turns stamped atoms back into one sample per due time.
func TestApplierObserveGroupsByDueTime(t *testing.T) {
	rec := newRecorder(false)
	src, _ := treedoc.New(treedoc.WithSite(1))
	dst, _ := treedoc.New(treedoc.WithSite(2))
	app := rec.newApplier(dst, 2, make(chan struct{}, 1))
	paste, _ := src.InsertRunAt(0, []string{stamp(1000) + "a", stamp(1000) + "b", stamp(1000) + "c"})
	key, _ := src.InsertRunAt(3, []string{stamp(2000) + "d"})
	del, _ := src.DeleteAt(0)
	ops := append(append(paste, key...), del)
	if n, err := app.ApplyBatch(ops); err != nil || n != len(ops) {
		t.Fatalf("apply: %d, %v", n, err)
	}
	got := rec.deliverSamples()
	if len(got) != 2 || got[0].n != 3 || got[1].n != 1 {
		t.Fatalf("samples %+v, want one of weight 3 and one of weight 1", got)
	}
	if got[0].lat != got[0].at-1000 || got[1].lat != got[1].at-2000 {
		t.Fatalf("latencies %+v are not entry minus due", got)
	}
	if app.applied.Load() != int64(len(ops)) {
		t.Fatalf("applied %d, want %d", app.applied.Load(), len(ops))
	}
	select {
	case <-app.notify:
	default:
		t.Fatal("apply did not poke the notify channel")
	}
}

type routingLink struct{ transport.Link }

func (routingLink) RoutesReplay() bool { return true }

// The link wrapper must forward transport.ReplayRouter (embedding the Link
// interface hides it: the PR 10 trap), count bytes, and let the analysis
// match a Send to a Recv by payload hash.
func TestMeterLinkForwardsReplayRouterAndMatchesFrames(t *testing.T) {
	rec := newRecorder(true)
	a, b := transport.ChanPair(8)
	if rec.meter(a, "d", true).RoutesReplay() {
		t.Fatal("a plain ChanLink must not claim replay routing")
	}
	if !rec.meter(routingLink{a}, "d", true).RoutesReplay() {
		t.Fatal("the wrapper hides the wrapped link's ReplayRouter")
	}
	var _ transport.ReplayRouter = (*meterLink)(nil)

	rec = newRecorder(true)
	w, r := rec.meter(a, "d", true), rec.meter(b, "d", false)
	src, _ := treedoc.New(treedoc.WithSite(1))
	msg := func(seq uint64, atom string) causal.Message {
		op, err := src.Append(atom)
		if err != nil {
			t.Fatal(err)
		}
		return causal.Message{From: 1, TS: vclock.VC{1: seq}, Payload: op}
	}
	var sent int64
	for seq := uint64(1); seq <= 3; seq++ {
		f, err := transport.EncodeOps([]causal.Message{msg(seq, "x")})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Send(f); err != nil {
			t.Fatal(err)
		}
		sent += int64(len(f))
		if got, err := r.Recv(); err != nil || !bytes.Equal(got, f) {
			t.Fatalf("recv: %v", err)
		}
	}
	// A frame the writer never sent must not match anything.
	stray, _ := transport.EncodeOps([]causal.Message{msg(9, "stray")})
	_ = routingLink{a}.Send(stray)
	if _, err := r.Recv(); err != nil {
		t.Fatal(err)
	}
	if rec.writerBytes() != sent || len(r.recvs) != 4 {
		t.Fatalf("counted %d writer bytes and %d received frames, want %d and 4", rec.writerBytes(), len(r.recvs), sent)
	}
	an := analyze(rec, 0)
	if len(an.frames) != 3 || len(an.relayUS) != 3 || len(an.lastUS) != 3 {
		t.Fatalf("analysis matched %d frames, %d relays, %d slowest; want 3 each", len(an.frames), len(an.relayUS), len(an.lastUS))
	}
	if an.frames[0].rec.kind != opsKind {
		t.Fatalf("frame kind %#x, want %#x", an.frames[0].rec.kind, opsKind)
	}
}

// BENCHMARK.json must say exactly what the program's catalogue says.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Workloads, workloads) {
		t.Errorf("workloads differ:\n json %+v\n code %+v", spec.Workloads, workloads)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", spec.PerLayer, perLayer)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"benchmark"}) || len(spec.Command) == 0 {
		t.Errorf("paths %v, command %v", spec.Paths, spec.Command)
	}
	if spec.RunSeconds < 20 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d: an untraced typing window must not drop below 20 s", spec.RunSeconds)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s is catalogued twice", d.Name)
		}
		seen[d.Name] = true
		if len(d.Name) > 64 || len(d.Unit) > 16 || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %+v breaks the BENCHMARK.json limits", d)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// The smoke pass: every workload at reduced size, untraced and traced, must
// pass its oracle and print every catalogued metric exactly once.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for two seconds twice")
	}
	var out bytes.Buffer
	if err := run(&out, "", 1, 2, "both", 0, true, t.TempDir()); err != nil {
		t.Fatalf("smoke: %v\n%s", err, out.String())
	}
	blocks := strings.Split(out.String(), "# treedoc benchmark ")[1:]
	if len(blocks) != len(workloads) {
		t.Fatalf("%d workload blocks, want %d", len(blocks), len(workloads))
	}
	for i, blk := range blocks {
		if !strings.HasPrefix(blk, "workload="+workloads[i].Name+" ") {
			t.Errorf("block %d is not %s", i, workloads[i].Name)
		}
		count := map[string]int{}
		lines := strings.Split(strings.TrimSpace(blk), "\n")
		for _, line := range lines {
			if f := strings.Fields(line); len(f) == 3 && !strings.HasPrefix(line, "#") {
				count[f[0]]++
			}
		}
		for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			if count[d.Name] != 1 {
				t.Errorf("%s: %s printed %d times", workloads[i].Name, d.Name, count[d.Name])
			}
			delete(count, d.Name)
		}
		if len(count) != 0 {
			t.Errorf("%s: uncatalogued metric lines %v", workloads[i].Name, count)
		}
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%s: last line is not the result object: %v", workloads[i].Name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(endToEnd)+len(perLayer) {
			t.Errorf("%s: result %+v", workloads[i].Name, res)
		}
		for _, d := range endToEnd {
			if res.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", workloads[i].Name, d.Name, res.Metrics[d.Name].Value)
			}
		}
		oplogOn := res.Metrics["oplog.syncs"].Value > 0
		if want := workloads[i].Name == "typing-durable"; oplogOn != want {
			t.Errorf("%s: oplog driver ran = %v, want %v", workloads[i].Name, oplogOn, want)
		}
	}
}
