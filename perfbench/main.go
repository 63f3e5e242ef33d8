// Command perfbench is dpflow's end-to-end benchmark. One invocation runs
// one workload in-process on 2 workers with GOMAXPROCS=2, verifies every
// solve and job against the serial reference, and prints its metrics as
// the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics, host-normalised by
// the calibration loop in calib.go; with -trace 1 they are the per-layer
// metrics of a traced run. See README.md for the workloads, the metrics and
// the layer each one belongs to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 3

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	calibRef float64 // ms: the calibration reading that maps to "1x host speed"
	out      string  // directory for the span dump and the full result
	commit   string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// harness is the state of one benchmark run.
type harness struct {
	opts  options
	cal   *calibrator
	guard *guard
	rec   *recorder

	calibs1, calibs2 []float64 // every calibration reading, in order
	setups           []timed   // raw set-up times (s)
	endToEnd         map[string]metric
	raw              map[string]metric // unscaled counterparts of endToEnd
	layers           map[string]metric
	counts           map[string]int       // sample counts, recorded with the result
	series           map[string][]float64 // per-sample values, for audit
	jobs             []jobRecord          // serve-mixed's timed root jobs, for audit
	traceOverhead    float64

	attempted, failed int
	problems          []string

	rtMu       sync.Mutex
	heapPeak   uint64
	gorPeak    uint64
	memAtStart runtime.MemStats
	gcCycles   uint32
	gcPauseNs  uint64
	rtSamples  []metrics.Sample
}

func main() {
	opts, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(workers)
	h := newHarness(opts)
	if err := h.run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var seconds float64
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	fs.Float64Var(&seconds, "seconds", 30, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.Float64Var(&o.calibRef, "calib-ref-ms", 0, "reference calibration reading in ms (from BENCHMARK.json)")
	fs.StringVar(&o.out, "out", ".bench_build/perfbench", "directory for the span dump and full results")
	fs.StringVar(&o.commit, "commit", "unknown", "revision of the code under test (provenance)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown -workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if seconds <= 0 || o.calibRef <= 0 || (trace != 0 && trace != 1) {
		return o, fmt.Errorf("need -seconds > 0, -calib-ref-ms > 0 and -trace 0 or 1")
	}
	o.seconds = time.Duration(seconds * float64(time.Second))
	o.trace = trace == 1
	return o, nil
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*harness) error{
	"solve-fine":   func(h *harness) error { return h.runSolve(solveSpec{bench: "fw", n: 512, base: 16}) },
	"solve-coarse": func(h *harness) error { return h.runSolve(solveSpec{bench: "ge", n: 1024, base: 128}) },
	"serve-mixed":  (*harness).runServe,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func newHarness(opts options) *harness {
	h := &harness{
		opts:     opts,
		cal:      newCalibrator(),
		guard:    newGuard(),
		rec:      newRecorder(),
		endToEnd: map[string]metric{},
		raw:      map[string]metric{},
		layers:   map[string]metric{},
		counts:   map[string]int{},
		series:   map[string][]float64{},
		rtSamples: []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/sched/goroutines:goroutines"},
		},
	}
	h.rec.on = opts.trace
	return h
}

// tracer returns the recorder for one operation: the run's recorder when
// the operation is traced, a recorder that records nothing otherwise.
func (h *harness) tracer(traced bool) *recorder {
	if traced {
		return h.rec
	}
	return &recorder{}
}

func (h *harness) problem(format string, args ...any) {
	h.problems = append(h.problems, fmt.Sprintf(format, args...))
}

// e2e records a host-normalised end-to-end metric and its raw counterpart.
func (h *harness) e2e(name, unit string, scaled, raw float64) {
	h.endToEnd[name] = metric{scaled, unit}
	h.raw["raw."+name] = metric{raw, unit}
}

// e2eTail records job_ms_p50 and job_ms_p90 over all operations; a p90
// with fewer than minTail samples beyond it fails an untraced run (in a
// traced run the end-to-end values are diagnostics only).
func (h *harness) e2eTail(scaled, raw []float64) {
	h.e2e("job_ms_p50", "ms", median(scaled), median(raw))
	p90, err := tailQuantile(scaled, 0.9)
	p90raw, _ := tailQuantile(raw, 0.9)
	if err != nil && !h.opts.trace {
		h.problem("job_ms_p90: %v", err)
	}
	h.e2e("job_ms_p90", "ms", p90, p90raw)
}

func (h *harness) layer(name, unit string, v float64) { h.layers[name] = metric{v, unit} }

// startMeasure and stopMeasure bracket the measured part of a run for the
// Go runtime's GC counters.
func (h *harness) startMeasure() {
	runtime.ReadMemStats(&h.memAtStart)
	h.sampleRuntime()
}

func (h *harness) stopMeasure() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	h.gcCycles = m.NumGC - h.memAtStart.NumGC
	h.gcPauseNs = m.PauseTotalNs - h.memAtStart.PauseTotalNs
	h.sampleRuntime()
}

// sampleRuntime folds the current heap size and goroutine count into their
// peaks; safe for concurrent use.
func (h *harness) sampleRuntime() {
	h.rtMu.Lock()
	defer h.rtMu.Unlock()
	metrics.Read(h.rtSamples)
	h.heapPeak = max(h.heapPeak, h.rtSamples[0].Value.Uint64())
	h.gorPeak = max(h.gorPeak, h.rtSamples[1].Value.Uint64())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// run executes the workload, writes the full result and the span dump
// under opts.out, and prints the result line.
func (h *harness) run() error {
	if err := workloads[h.opts.workload](h); err != nil {
		return err
	}
	h.endToEnd["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	var setups, setupsRaw []float64
	for _, t := range h.setups {
		setups = append(setups, t.raw*h.scaleAt(t.cal, workers))
		setupsRaw = append(setupsRaw, t.raw)
	}
	h.e2e("setup_s", "s", median(setups), median(setupsRaw))

	out := map[string]metric{}
	if h.opts.trace {
		h.finishLayers()
		for _, m := range perLayerMetrics {
			v, ok := h.layers[m.name]
			if !ok {
				v = metric{0, m.unit} // the layer does not run on this workload
			}
			out[m.name] = v
		}
	} else {
		for _, m := range endToEndMetrics {
			v, ok := h.endToEnd[m.name]
			if !ok {
				return fmt.Errorf("workload produced no %s", m.name)
			}
			if v.Value <= 0 {
				h.problem("%s is %g; end-to-end metrics are never 0", m.name, v.Value)
			}
			out[m.name] = v
		}
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(h.problems) == 0, h.attempted, h.failed, out}
	if res.Attempted == 0 {
		return fmt.Errorf("no operation attempted")
	}

	prov := h.provenance()
	full := map[string]any{
		"provenance": prov, "result": res, "raw": h.raw, "end_to_end": h.endToEnd,
		"per_layer": h.layers, "problems": h.problems, "series": h.series, "jobs": h.jobs,
		"calib_ms.1": h.calibs1, "calib_ms.2": h.calibs2,
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", h.opts.workload, h.opts.seed, b2i(h.opts.trace))
	if err := writeJSON(filepath.Join(h.opts.out, base+".json"), full); err != nil {
		return err
	}
	if h.opts.trace {
		if err := h.rec.write(filepath.Join(h.opts.out, base+".spans.json")); err != nil {
			return err
		}
	}

	line, err := json.Marshal(prov)
	if err != nil {
		return err
	}
	fmt.Printf("# provenance %s\n", line)
	for _, k := range sortedKeys(h.raw) {
		fmt.Printf("# %s %.6g %s (scaled %.6g)\n", k, h.raw[k].Value, h.raw[k].Unit, h.endToEnd[strings.TrimPrefix(k, "raw.")].Value)
	}
	for _, p := range h.problems {
		fmt.Printf("# problem: %s\n", p)
	}
	line, err = json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// finishLayers adds the metrics every workload reports in a traced run:
// Go runtime counters and the harness's own diagnostics.
func (h *harness) finishLayers() {
	h.layer("go.gc_cycles", "count", float64(h.gcCycles))
	h.layer("go.gc_pause_ms", "ms", float64(h.gcPauseNs)/1e6)
	h.layer("go.heap_peak_mb", "MB", float64(h.heapPeak)/(1<<20))
	h.layer("go.goroutines_peak", "count", float64(h.gorPeak))
	h.layer("calib_ms.1", "ms", median(h.calibs1))
	h.layer("calib_ms.2", "ms", median(h.calibs2))
	for k, v := range h.raw {
		h.layers[k] = v
	}
	h.layer("trace_overhead_frac", "frac", h.traceOverhead)
	h.layer("failed_frac", "frac", float64(h.failed)/float64(max(h.attempted, 1)))
	h.layer("quiescence_checks", "count", float64(h.guard.checks))
}

func (h *harness) provenance() map[string]any {
	return map[string]any{
		"workload":     h.opts.workload,
		"seed":         h.opts.seed,
		"seconds":      h.opts.seconds.Seconds(),
		"trace":        h.opts.trace,
		"num_cpu":      runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"workers":      workers,
		"clients":      serveClients,
		"cpu_model":    cpuModel(),
		"go_version":   runtime.Version(),
		"commit":       h.opts.commit,
		"calib_ref_ms": h.opts.calibRef,
		"calib_points": len(h.calibs1),
		"setup_reps":   setupReps,
		"poll_us":      pollEvery.Microseconds(),
		"samples":      h.counts,
	}
}

// cpuModel reads the host CPU's model name, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
