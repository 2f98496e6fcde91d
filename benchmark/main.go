// Command benchmark is the repository's end-to-end and per-layer
// benchmark: one process, one in-process hub on loopback TCP, real
// Engine+Doc replicas attached through Sessions, four named workloads. See
// README.md for the metric and workload dictionary, and BENCHMARK.json for
// the contract a later change is judged against.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "typing-fanout | typing-durable | bulk-replay | late-join")
		seed     = flag.Int64("seed", 1, "derives trace generation, every edit stream, writer phases and the causal shuffle")
		seconds  = flag.Float64("seconds", runSeconds, "length of the measured window")
		traceArg = flag.String("trace", "both", "0: untraced end-to-end metrics; 1: traced per-layer metrics; both: one pass of each")
		repeat   = flag.Int("repeat", 0, "run the untraced workload N times on seeds seed..seed+N-1 and judge each metric's spread against its bound")
		smoke    = flag.Bool("smoke", false, "run every workload for -seconds at reduced size, both passes, checking the metric catalogue")
		outDir   = flag.String("out", filepath.Join("benchmark", "out"), "directory for trace files and durable writers' logs")
		spec     = flag.Bool("spec", false, "print the BENCHMARK.json this program implements and exit")
	)
	flag.Parse()
	if *spec {
		if err := printSpec(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Stdout, *workload, *seed, *seconds, *traceArg, *repeat, *smoke, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, workload string, seed int64, seconds float64, traceArg string, repeat int, smoke bool, outDir string) error {
	if procs, cpus := runtime.GOMAXPROCS(0), runtime.NumCPU(); procs > cpus {
		return fmt.Errorf("GOMAXPROCS=%d exceeds the %d CPUs available: replicas would time-share cores and every latency would measure the scheduler", procs, cpus)
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	cfg := config{workload: workload, seed: seed, seconds: seconds, outDir: outDir, sz: full}
	if smoke {
		cfg.sz = small
		for _, wl := range workloads {
			cfg.workload = wl.Name
			if err := runOnce(w, cfg, "both"); err != nil {
				return fmt.Errorf("%s: %w", wl.Name, err)
			}
		}
		return nil
	}
	known := false
	for _, wl := range workloads {
		known = known || wl.Name == workload
	}
	if !known {
		return fmt.Errorf("unknown -workload %q", workload)
	}
	if repeat > 0 {
		return runRepeat(w, cfg, repeat)
	}
	return runOnce(w, cfg, traceArg)
}

// runSeconds is BENCHMARK.json's run_seconds: the window the bounds were
// measured at. An untraced typing window must not drop below 20 s.
const runSeconds = 20

// printSpec writes BENCHMARK.json from the catalogue, so the file cannot
// drift from what the program prints.
func printSpec(w io.Writer) error {
	spec := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}{[]string{"bash", "benchmark/run.sh"}, []string{"benchmark"}, runSeconds, workloads, endToEnd, perLayer}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(spec)
}

// header prints the line that makes a run reproducible from its output.
func header(w io.Writer, cfg config, traceArg string) {
	fmt.Fprintf(w, "# treedoc benchmark workload=%s seed=%d seconds=%g trace=%s nproc=%d GOMAXPROCS=%d %s transport=%q logfs=%s\n",
		cfg.workload, cfg.seed, cfg.seconds, traceArg, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), "loopback TCP", fsName(cfg.outDir))
}

// fsName names the filesystem durable writers' logs land on.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints set as "name value unit" lines in catalogue order and adds
// them to res. Every catalogue metric must be present exactly once and
// nothing else may be: a metric that silently disappears is a bug here.
func emit(w io.Writer, defs []metricDef, set metricSet, res *result) error {
	for _, d := range defs {
		v, ok := set[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		fmt.Fprintf(w, "%s %v %s\n", d.Name, v, d.Unit)
		res.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	if len(set) != len(defs) {
		var extra []string
		for name := range set {
			if _, ok := res.Metrics[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return fmt.Errorf("metrics outside the catalogue: %v", extra)
	}
	return nil
}

// runOnce executes the workload's pass or passes and prints the result.
func runOnce(w io.Writer, cfg config, traceArg string) error {
	header(w, cfg, traceArg)
	window := time.Duration(cfg.seconds * float64(time.Second))
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	note := func(p *pass) {
		res.Attempted += p.attempted
		res.Failed += p.failed
		if p.failed > 0 {
			res.Correct = false
			fmt.Fprintf(w, "# FAILED: %s\n", p.why)
		}
	}
	var refP50 float64 // untraced deliver_p50_ms the traced pass is compared with
	switch traceArg {
	case "0", "both":
		p, err := runPass(cfg, false, false, window)
		if err != nil {
			return err
		}
		e2e, timings := p.endToEnd(), p.timings()
		p.close()
		note(p)
		p.describe(w, timings)
		if err := emit(w, endToEnd, e2e, &res); err != nil {
			return err
		}
		refP50 = timings["deliver_p50_ms"]
	case "1":
		// A traced-only invocation spends a third of its window on an
		// untraced reference so the tracing overhead is still measured.
		ref, err := runPass(cfg, false, true, window/3)
		if err != nil {
			return err
		}
		refP50 = ref.timings()["deliver_p50_ms"]
		ref.close()
		window -= window / 3
	default:
		return fmt.Errorf("-trace must be 0, 1 or both")
	}
	if traceArg != "0" {
		p, err := runPass(cfg, true, true, window)
		if err != nil {
			return err
		}
		layers, err := p.layers(w, refP50)
		p.close()
		if err != nil {
			return err
		}
		note(p)
		p.describe(w, nil)
		if err := emit(w, perLayer, layers, &res); err != nil {
			return err
		}
	}
	if res.Attempted < 1 {
		return fmt.Errorf("nothing was attempted")
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	if !res.Correct {
		return fmt.Errorf("%d of %d failed", res.Failed, res.Attempted)
	}
	return nil
}

func (p *pass) close() {
	if p.fl != nil {
		p.fl.close()
		p.fl = nil
	}
}

// describe prints the sample counts behind the pass's numbers, the
// generator's verdict on itself and, for an untraced pass, the ungated
// end-to-end timings (as comment lines: they are not BENCHMARK.json's).
func (p *pass) describe(w io.Writer, timings metricSet) {
	var weight int64
	for _, s := range p.deliver {
		weight += int64(s.n)
	}
	_, windows := windowedP99(p.deliver, p.winStart, p.winEnd, int64(time.Second))
	fmt.Fprintf(w, "# traced=%v ops=%d deliveries=%d p99_windows=%d rounds=%d joins=%d attempted=%d failed=%d\n",
		p.traced, p.ops, weight, windows, len(p.rates), len(p.joins), p.attempted, p.failed)
	if lates := append([]float64(nil), p.rec.lates...); len(lates) > 0 {
		// ISSUE 11 calls a run generator-bound when late_p99 exceeds
		// deliver_p50. With the generator sleeping in the kernel the median
		// delivery is ~0.4 ms and that rule fires on one scheduler hiccup
		// per hundred actions; the verdict compares like with like instead.
		p50 := float64(weightedQuantile(p.deliver, 0.50)) / 1e6
		late50, late99 := quantile(lates, 0.50), quantile(lates, 0.99)
		verdict := "ok"
		if late50 > p50/2 {
			verdict = "GENERATOR-BOUND: more than half the median delivery is the generator running late"
		}
		fmt.Fprintf(w, "# generator late_p50=%.3fms late_p99=%.3fms, deliver_p50=%.3fms: %s\n", late50, late99, p50, verdict)
	}
	for _, d := range ungated {
		if v, ok := timings[d.Name]; ok {
			fmt.Fprintf(w, "# ungated %s %v %s\n", d.Name, v, d.Unit)
		}
	}
}

// runRepeat runs the untraced workload n times on consecutive seeds and
// judges, per gated metric, the interquartile spread as a share of the
// median against the metric's bound — the driver's own acceptance test. The
// ungated timings are tabled too, unjudged: their spread says how quiet the
// machine was.
func runRepeat(w io.Writer, cfg config, n int) error {
	header(w, cfg, "0")
	window := time.Duration(cfg.seconds * float64(time.Second))
	defs := append(append([]metricDef(nil), endToEnd...), ungated...)
	vals := map[string][]float64{}
	var failed int64
	for i := 0; i < n; i++ {
		c := cfg
		c.seed = cfg.seed + int64(i)
		p, err := runPass(c, false, false, window)
		if err != nil {
			return err
		}
		got := p.endToEnd()
		for name, v := range p.timings() {
			got[name] = v
		}
		p.close()
		failed += p.failed
		fmt.Fprintf(w, "# run %d seed=%d failed=%d", i, c.seed, p.failed)
		for _, d := range defs {
			vals[d.Name] = append(vals[d.Name], got[d.Name])
			fmt.Fprintf(w, " %s=%.5g", d.Name, got[d.Name])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-22s %12s %12s %12s %8s %7s %s\n", "metric", "q1", "median", "q3", "spread", "bound", "spread/bound")
	wide := 0
	for _, d := range defs {
		q1, q2, q3 := quartiles(vals[d.Name])
		spread := ratio(q3-q1, q2)
		switch {
		case d.Bound == 0:
			fmt.Fprintf(w, "%-22s %12.5g %12.5g %12.5g %8.4f %7s ungated\n", d.Name, q1, q2, q3, spread, "-")
		case spread > d.Bound && d.Name != "setup_s": // setup_s is gated on its median only
			wide++
			fmt.Fprintf(w, "%-22s %12.5g %12.5g %12.5g %8.4f %7.2f %.2f  EXCEEDS\n", d.Name, q1, q2, q3, spread, d.Bound, spread/d.Bound)
		default:
			fmt.Fprintf(w, "%-22s %12.5g %12.5g %12.5g %8.4f %7.2f %.2f\n", d.Name, q1, q2, q3, spread, d.Bound, spread/d.Bound)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed across %d runs", failed, n)
	}
	if wide > 0 {
		return fmt.Errorf("%d gated metrics spread wider than their bound", wide)
	}
	return nil
}
