package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"dpflow/internal/bench"
	"dpflow/internal/cnc"
	"dpflow/internal/core"
	"dpflow/internal/exec"
	"dpflow/internal/forkjoin"
	"dpflow/internal/fw"
	"dpflow/internal/ge"
	"dpflow/internal/gep"
	"dpflow/internal/graphgen"
	"dpflow/internal/matrix"
)

// workers is the executor size, the parallel variants' logical worker
// count and GOMAXPROCS, for every workload.
const workers = 2

// solveVariant is one of the five variants a solve workload interleaves.
type solveVariant struct {
	name  string // metric suffix: solve_ms.<name>
	token string // the job service's variant token
	v     core.Variant
	par   int // goroutines the variant computes on (calibration width)
}

var solveVariants = []solveVariant{
	{"serial", "serial_rdp", core.SerialRDP, 1},
	{"openmp", "openmp", core.OMPTasking, workers},
	{"cnc", "cnc", core.NativeCnC, workers},
	{"tuner", "tuner", core.TunerCnC, workers},
	{"manual", "manual", core.ManualCnC, workers},
}

// solveSpec is one solve workload: a GEP benchmark at one size and base.
type solveSpec struct {
	bench   string
	n, base int
}

// solveSample is one timed, verified solve.
type solveSample struct {
	variant     int
	traced      bool
	cal         int     // calibration point taken right before the solve
	raw, scaled float64 // ms
	kernelBusy  float64 // ms, traced only
	kernelCalls uint64
	cnc         cnc.Stats
	fj          forkjoin.Stats
	ex          exec.Stats
}

// solveRun holds a solve workload's input, its serial reference and the
// samples taken so far.
type solveRun struct {
	h       *harness
	spec    solveSpec
	alg     gep.Algorithm
	input   *matrix.Dense
	ref     *matrix.Dense
	samples []solveSample
	verify  []float64 // ms per verification
	newInst []float64 // ms per bench.NewInstance
}

// newInput builds the workload's input exactly as the bench registry does
// for the same seed.
func newInput(spec solveSpec, seed int64) (gep.Algorithm, *matrix.Dense, error) {
	rng := rand.New(rand.NewSource(seed))
	switch spec.bench {
	case "ge":
		a, _ := ge.NewSystem(spec.n, rng)
		return ge.Algorithm, a, nil
	case "fw":
		d := graphgen.Random(graphgen.Config{N: spec.n, Density: 0.35, MaxWeight: 9, Infinity: fw.Infinity}, rng)
		return fw.Algorithm, d, nil
	}
	return gep.Algorithm{}, nil, fmt.Errorf("solve workload: no GEP benchmark %q", spec.bench)
}

// runSolve measures one solve workload: set-up (repeated), then the five
// variants round-robin, one verified solve at a time, each between two
// guarded calibration points.
func (h *harness) runSolve(spec solveSpec) error {
	r := &solveRun{h: h, spec: spec}
	if err := h.timeSetup(r.setup); err != nil {
		return err
	}
	cal := len(h.calibs1) - 1
	h.startMeasure()
	start := time.Now()
	for round := 0; r.measuring(round, time.Since(start)); round++ {
		traced := h.opts.trace && round%2 == 1
		for vi, v := range solveVariants {
			h.attempted++
			s, solveErr := r.solve(vi, traced, round, -1)
			s.cal = cal
			var err error
			if cal, err = h.calibrate(); err != nil {
				return err
			}
			if solveErr != nil {
				h.failed++
				h.problem("%s: %v", v.name, solveErr)
				continue
			}
			r.samples = append(r.samples, s)
		}
	}
	h.stopMeasure()
	return r.report()
}

// measuring reports whether to take another round: until the run's
// seconds are up; in a traced run, until it has a traced and an untraced
// round; in an untraced run, up to half again as long, until job_ms_p90 has
// minTail samples beyond it.
func (r *solveRun) measuring(round int, elapsed time.Duration) bool {
	if elapsed < r.h.opts.seconds {
		return true
	}
	if r.h.opts.trace {
		return round < 2
	}
	if elapsed >= r.h.opts.seconds*3/2 {
		return false
	}
	_, err := tailQuantile(make([]float64, len(r.samples)), 0.9)
	return err != nil
}

// setup is one repetition of the workload's set-up: a registry instance
// (input plus eager serial reference) run and verified through the bench
// API, the harness's own input and reference for the timed solves, and an
// untimed warm-up solve of every parallel variant.
func (r *solveRun) setup() error {
	h := r.h
	b, err := bench.ByName(r.spec.bench)
	if err != nil {
		return err
	}
	sp := h.rec.begin("setup", -1, -1)
	defer h.rec.end(sp)
	t0 := time.Now()
	id := h.rec.begin("bench.new_instance", sp, -1)
	inst, err := b.NewInstance(r.spec.n, r.spec.base, h.opts.seed)
	h.rec.end(id)
	r.newInst = append(r.newInst, ms(time.Since(t0)))
	if err != nil {
		return fmt.Errorf("bench.NewInstance: %w", err)
	}
	if _, err := inst.Run(context.Background(), core.SerialRDP, bench.RunOpts{}); err != nil {
		return fmt.Errorf("warm-up %s: %w", core.SerialRDP, err)
	}
	if err := inst.Verify(); err != nil {
		return fmt.Errorf("warm-up %s: %w", core.SerialRDP, err)
	}
	r.alg, r.input, err = newInput(r.spec, h.opts.seed)
	if err != nil {
		return err
	}
	r.ref = r.input.Clone()
	if err := r.alg.RDPSerial(r.ref, r.spec.base); err != nil {
		return fmt.Errorf("serial reference: %w", err)
	}
	for vi := 1; vi < len(solveVariants); vi++ {
		if _, err := r.solve(vi, false, -1, sp); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// solve runs variant vi once on a fresh copy of the input, on its own
// executor, and verifies the result against the serial reference. Only the
// run itself is timed. The executor and pool are closed before returning,
// so the next calibration sees an idle process.
func (r *solveRun) solve(vi int, traced bool, op, parent int) (solveSample, error) {
	h := r.h
	v := solveVariants[vi]
	x := r.input.Clone()
	runtime.GC() // each sample starts from a collected heap

	s := solveSample{variant: vi, traced: traced}
	alg := r.alg
	var busy atomic.Int64
	var calls atomic.Uint64
	if traced {
		kernel := alg.Kernel
		alg.Kernel = func(x *matrix.Dense, i0, j0, k0, b int) {
			t := time.Now()
			kernel(x, i0, j0, k0, b)
			busy.Add(int64(time.Since(t)))
			calls.Add(1)
		}
	}

	ex := exec.New(workers)
	h.guard.acquire()
	var pool *forkjoin.Pool
	if v.v == core.OMPTasking {
		pool = forkjoin.NewPool(forkjoin.Config{Workers: workers, Executor: ex})
	}
	tune := func(g *cnc.Graph) { g.WithExecutor(ex) }

	rec := h.tracer(traced)
	sp := rec.begin("solve."+v.name, parent, op)
	ctx := context.Background()
	var st gep.CnCStats
	var err error
	t0 := time.Now()
	switch {
	case v.v == core.SerialRDP:
		err = alg.RDPSerial(x, r.spec.base)
	case v.v == core.OMPTasking:
		err = alg.ForkJoinContext(ctx, x, r.spec.base, pool)
	default:
		st, err = alg.RunCnCContext(ctx, x, r.spec.base, workers, v.v, tune)
	}
	s.raw = ms(time.Since(t0))
	rec.end(sp)
	h.sampleRuntime()
	if pool != nil {
		s.fj = pool.Stats()
		pool.Close()
	}
	s.ex = ex.Stats()
	ex.Close()
	h.guard.release()
	if err != nil {
		return s, err
	}
	s.cnc = st.Stats
	s.kernelBusy = float64(busy.Load()) / 1e6
	s.kernelCalls = calls.Load()

	t1 := time.Now()
	id := rec.begin("bench.verify", parent, op)
	ok := matrix.Equal(x, r.ref)
	rec.end(id)
	if traced {
		r.verify = append(r.verify, ms(time.Since(t1)))
	}
	if !ok {
		return s, fmt.Errorf("result disagrees with the serial reference (maxdiff %g)", matrix.MaxAbsDiff(x, r.ref))
	}
	return s, nil
}

// report turns the samples into end-to-end metrics and, in traced runs,
// per-layer metrics; it also runs the workload's self-checks.
func (r *solveRun) report() error {
	h := r.h
	var all, allRaw []float64
	byVar := make([][]solveSample, len(solveVariants))
	for i := range r.samples {
		s := &r.samples[i]
		s.scaled = s.raw * h.scaleAt(s.cal, solveVariants[s.variant].par)
	}
	for _, s := range r.samples {
		if s.traced {
			continue // end-to-end timings come from untraced samples only
		}
		all = append(all, s.scaled)
		allRaw = append(allRaw, s.raw)
		byVar[s.variant] = append(byVar[s.variant], s)
	}
	h.counts["samples"] = len(all)
	for vi, v := range solveVariants {
		sc, rw := pick(byVar[vi], func(s solveSample) float64 { return s.scaled }), pick(byVar[vi], func(s solveSample) float64 { return s.raw })
		h.counts["samples."+v.name] = len(sc)
		h.series["solve_ms."+v.name], h.series["raw.solve_ms."+v.name] = sc, rw
		h.e2e("solve_ms."+v.name, "ms", median(sc), median(rw))
	}
	h.e2eTail(all, allRaw)
	h.e2e("goodput_jobs_per_s", "1/s", float64(len(all))/(sum(all)/1e3), float64(len(allRaw))/(sum(allRaw)/1e3))

	// Self-checks: no admission and no memory limit on a solve workload,
	// and kernel busy time reconciles with workers x wall per traced solve.
	for _, s := range r.samples {
		if s.cnc.BackpressureWaits != 0 || s.cnc.BackpressureStalls != 0 {
			h.problem("solve workload shows backpressure (waits %d, stalls %d)", s.cnc.BackpressureWaits, s.cnc.BackpressureStalls)
			break
		}
	}
	if !h.opts.trace {
		return nil
	}
	return r.reportLayers(byVar)
}

func (r *solveRun) reportLayers(untraced [][]solveSample) error {
	h := r.h
	traced := make([][]solveSample, len(solveVariants))
	for _, s := range r.samples {
		if s.traced {
			traced[s.variant] = append(traced[s.variant], s)
		}
	}
	h.layer("bench.new_instance_ms", "ms", median(r.newInst))
	h.layer("bench.verify_ms", "ms", median(r.verify))

	var calls, exClaims, exUnits, exUPC, exParks, exWake []float64
	var tracedSum, untracedSum float64
	for vi, v := range solveVariants {
		ts := traced[vi]
		if len(ts) == 0 {
			return fmt.Errorf("traced run took no traced %s sample", v.name)
		}
		var busy, over []float64
		for _, s := range ts {
			budget := float64(v.par) * s.raw
			if s.kernelCalls == 0 || s.kernelBusy > budget*1.001 {
				h.problem("%s: kernel busy %.2f ms over %d calls does not reconcile with %d x %.2f ms wall",
					v.name, s.kernelBusy, s.kernelCalls, v.par, s.raw)
			}
			busy = append(busy, s.kernelBusy)
			over = append(over, budget-s.kernelBusy)
			calls = append(calls, float64(s.kernelCalls))
		}
		h.layer("kernels.busy_ms."+v.name, "ms", median(busy))
		h.layer("overhead_ms."+v.name, "ms", median(over))
		tracedSum += median(pick(ts, func(s solveSample) float64 { return s.raw }))
		untracedSum += median(pick(untraced[vi], func(s solveSample) float64 { return s.raw }))

		for _, s := range ts {
			exClaims = append(exClaims, float64(s.ex.Claims))
			exUnits = append(exUnits, float64(s.ex.Units))
			if s.ex.Claims > 0 {
				exUPC = append(exUPC, float64(s.ex.Units)/float64(s.ex.Claims))
			}
			exParks = append(exParks, float64(s.ex.Parks))
			exWake = append(exWake, float64(s.ex.Wakeups))
		}
		if !v.v.IsCnC() {
			continue
		}
		c := func(f func(cnc.Stats) float64) float64 {
			return median(pick(ts, func(s solveSample) float64 { return f(s.cnc) }))
		}
		h.layer("cnc.steps_started."+v.name, "count", c(func(s cnc.Stats) float64 { return float64(s.StepsStarted) }))
		h.layer("cnc.steps_done."+v.name, "count", c(func(s cnc.Stats) float64 { return float64(s.StepsDone) }))
		h.layer("cnc.useful_ratio."+v.name, "ratio", c(func(s cnc.Stats) float64 { return ratio(s.StepsDone, s.StepsStarted) }))
		h.layer("cnc.aborts."+v.name, "count", c(func(s cnc.Stats) float64 { return float64(s.Aborts) }))
		h.layer("cnc.items_put."+v.name, "count", c(func(s cnc.Stats) float64 { return float64(s.ItemsPut) }))
		h.layer("cnc.steals."+v.name, "count", c(func(s cnc.Stats) float64 { return float64(s.Steals) }))
		h.layer("cnc.failed_probes."+v.name, "count", c(func(s cnc.Stats) float64 { return float64(s.FailedProbes) }))
		h.layer("cnc.wakeups."+v.name, "count", c(func(s cnc.Stats) float64 { return float64(s.Wakeups) }))
	}
	h.layer("kernels.calls", "count", median(calls))
	h.layer("exec.claims", "count", median(exClaims))
	h.layer("exec.units", "count", median(exUnits))
	h.layer("exec.units_per_claim", "ratio", median(exUPC))
	h.layer("exec.parks", "count", median(exParks))
	h.layer("exec.wakeups", "count", median(exWake))

	omp := traced[1]
	f := func(g func(forkjoin.Stats) uint64) float64 {
		return median(pick(omp, func(s solveSample) float64 { return float64(g(s.fj)) }))
	}
	h.layer("forkjoin.spawned", "count", f(func(s forkjoin.Stats) uint64 { return s.Spawned }))
	h.layer("forkjoin.steals", "count", f(func(s forkjoin.Stats) uint64 { return s.Steals }))
	h.layer("forkjoin.failed_probes", "count", f(func(s forkjoin.Stats) uint64 { return s.FailedProbes }))
	h.layer("forkjoin.yields", "count", f(func(s forkjoin.Stats) uint64 { return s.Yields }))

	h.traceOverhead = tracedSum/untracedSum - 1
	return nil
}

func pick[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
