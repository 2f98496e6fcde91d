package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// sizes are the workload dimensions. full is what BENCHMARK.json measures;
// small keeps -smoke and the tests quick and is never reported.
type sizes struct {
	docs, replicas, writers int     // typing fleet
	initialAtoms            int     // atoms every typing document starts with
	rate                    float64 // actions per second per writer
	bulkInitial, bulkFinal  int     // bulk-replay document, in lines
	bulkRevs, bulkEdits     int
	bulkReaders, bulkWindow int // readers per round, revisions in flight
	joinFinal, joinRevs     int // late-join history
	joinEdits               int
	joinDocs                int // late-join history documents, joined round-robin
}

var (
	full = sizes{
		docs: 4, replicas: 8, writers: 2, initialAtoms: 1000, rate: 100,
		bulkInitial: 200, bulkFinal: 8000, bulkRevs: 2000, bulkEdits: 30,
		bulkReaders: 3, bulkWindow: 8,
		joinFinal: 2000, joinRevs: 400, joinEdits: 30, joinDocs: 4,
	}
	small = sizes{
		docs: 2, replicas: 4, writers: 2, initialAtoms: 100, rate: 100,
		bulkInitial: 50, bulkFinal: 400, bulkRevs: 150, bulkEdits: 10,
		bulkReaders: 3, bulkWindow: 8,
		joinFinal: 300, joinRevs: 60, joinEdits: 10, joinDocs: 2,
	}
)

// config is one invocation's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	outDir   string
	sz       sizes
}

// pass is one measured execution of a workload, traced or not.
type pass struct {
	cfg    config
	traced bool
	// quick marks a pass whose setup_s is not reported (the traced pass and
	// its untraced reference): it sets up once instead of several times.
	quick  bool
	window time.Duration
	rec    *recorder
	fl     *fleet

	setupS           float64
	winStart, winEnd int64 // recorder clock
	cpu0, cpu1       float64
	mem0, mem1       runtime.MemStats
	bytes0, bytes1   int64

	ops       int64        // operations broadcast (late-join: joined) in the window
	attempted int64        // operations, or joins, the run tried
	failed    int64        // of those, not applied everywhere / timed out / oracle failures
	why       string       // first oracle or join failure
	rates     []float64    // ops/s: per round, per join, or the one open-loop window
	joins     []joinResult // late-join: every timed join
	attachMS  []float64    // every Session.Attach of every set-up and round
	deliver   []sample
	heapAtom  float64
	lastGroup *group // left running for the traced drivers
}

// setup runs build several times, tearing down between, and keeps the last:
// setup_s is the median, so one slow set-up does not decide it and work
// moved into set-up still shows. Cheap set-ups repeat more often (up to
// nine times within the budget), expensive ones five times.
func (p *pass) setup(build func() error) error {
	minReps, maxReps, budget := 5, 9, 1.5
	if p.quick {
		minReps, maxReps = 1, 1
	}
	var times []float64
	for i, spent := 0, 0.0; i < minReps || (i < maxReps && spent < budget); i++ {
		if i > 0 {
			p.fl.close()
		}
		t := time.Now()
		if err := build(); err != nil {
			if p.fl != nil {
				p.fl.close()
			}
			return fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t).Seconds())
		spent += times[i]
	}
	p.setupS = median(times)
	return nil
}

// logRoot is where durable writers keep their oplogs: inside the
// benchmark's out directory, so on the checkout's own filesystem.
func (p *pass) logRoot() string {
	return filepath.Join(p.cfg.outDir, fmt.Sprintf("logs-%d", os.Getpid()))
}

func (p *pass) begin() {
	runtime.GC() // every window starts from a collected heap
	runtime.ReadMemStats(&p.mem0)
	p.bytes0 = p.rec.writerBytes()
	p.cpu0 = cpuSeconds()
	p.winStart = p.rec.now()
}

func (p *pass) end() {
	p.winEnd = p.rec.now()
	p.cpu1 = cpuSeconds()
	p.bytes1 = p.rec.writerBytes()
	runtime.ReadMemStats(&p.mem1)
}

func (p *pass) fail(n int64, format string, args ...any) {
	p.failed += n
	if p.why == "" {
		p.why = fmt.Sprintf(format, args...)
	}
}

// settle waits for every group to quiesce and runs the oracle on it;
// what is missing or wrong counts as failed.
func (p *pass) settle(groups []*group, wantContent []string) {
	for _, g := range groups {
		want := g.expected()
		if missing := g.quiesce(want, quiesceTimeout); missing > 0 {
			p.fail(int64(missing), "%s: %d ops not applied everywhere after %v", g.name, missing, quiesceTimeout)
			continue
		}
		if bad, why := g.oracle(want, wantContent); bad > 0 {
			p.fail(int64(bad), "%s", why)
		}
	}
}

// finish ends an untraced pass by measuring the documents' heap, which
// stops the fleet; a traced pass keeps it for the layer drivers.
func (p *pass) finish(groups ...*group) {
	if !p.traced {
		p.heapAtom = p.fl.docHeapPerAtom(groups)
	}
}

// endToEnd reduces the pass to the gated BENCHMARK.json metrics.
func (p *pass) endToEnd() metricSet {
	m := metricSet{"setup_s": p.setupS, "heap_bytes_per_atom": p.heapAtom}
	if p.ops > 0 {
		m["wire_bytes_per_op"] = float64(p.bytes1-p.bytes0) / float64(p.ops)
	}
	return m
}

// timings reduces the pass to the ungated end-to-end timings.
func (p *pass) timings() metricSet {
	m := metricSet{}
	m["deliver_p50_ms"] = float64(weightedQuantile(p.deliver, 0.50)) / 1e6
	p99, _ := windowedP99(p.deliver, p.winStart, p.winEnd, int64(time.Second))
	m["deliver_p99_ms"] = float64(p99) / 1e6
	m["replay_ops_per_s"] = median(append([]float64(nil), p.rates...))
	m["join_p50_ms"] = median(p.joinMS())
	m["cpu_us_per_op"] = ratio((p.cpu1-p.cpu0)*1e6, float64(p.ops))
	return m
}

// joinMS lists the timed joins in milliseconds.
func (p *pass) joinMS() []float64 {
	ms := make([]float64, len(p.joins))
	for i, j := range p.joins {
		ms[i] = j.ms
	}
	return ms
}

// runPass executes the configured workload once.
func runPass(cfg config, traced, quick bool, window time.Duration) (*pass, error) {
	p := &pass{cfg: cfg, traced: traced, quick: quick, window: window}
	var err error
	switch cfg.workload {
	case "typing-fanout":
		err = p.typing(false)
	case "typing-durable":
		err = p.typing(true)
	case "bulk-replay":
		err = p.bulk()
	case "late-join":
		err = p.lateJoin()
	default:
		err = fmt.Errorf("unknown workload %q", cfg.workload)
	}
	return p, err
}
