package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"dpflow/internal/bench"
	"dpflow/internal/core"
	"dpflow/internal/exec"
	"dpflow/internal/exec/admission"
	"dpflow/internal/serve"
)

// serve-mixed: an in-process serve.Server driven through its HTTP handler
// by a closed loop of serveClients clients over a fixed seeded sequence.
const (
	serveClients = 2
	serveBudget  = 12 << 20 // admission budget: two n=256 leaves cannot co-run
	serveSeqLen  = 4096     // submissions generated before timing; reused cyclically
	pollEvery    = 500 * time.Microsecond
	phaseTarget  = 5 * time.Second // serve phases per run: seconds / phaseTarget
	declareMult  = 16              // leaves declare 16x their matrix bytes...
	underEvery   = 16              // ...except one leaf in 16, which declares 1x
	forkEvery    = 8               // one submission in 8 is a 2-leaf fork node
	jobDeadline  = 60_000          // ms; a wedged job fails instead of hanging the run
	probeRounds  = 3               // unloaded probe rounds (one job per variant) after each phase
)

var (
	serveBenches = []string{"ge", "fw", "sw", "ch"}
	serveSizes   = [][2]int{{128, 16}, {256, 32}}
	serveTenants = []string{"alpha", "beta"}
)

// submission is one entry of the serve-mixed sequence.
type submission struct {
	spec    serve.JobSpec
	variant string // solve_ms suffix of a single-leaf root; "" for a fork
}

type leafKind struct {
	bench   string
	variant solveVariant
	n, base int
}

// serveKinds lists the mix's leaf kinds: every benchmark and size under
// the four parallel variants, and the CnC subset of them.
func serveKinds() (all, cncOnly []leafKind) {
	for _, b := range serveBenches {
		for _, v := range solveVariants {
			if v.v == core.SerialRDP {
				continue
			}
			for _, sz := range serveSizes {
				k := leafKind{b, v, sz[0], sz[1]}
				all = append(all, k)
				if v.v.IsCnC() {
					cncOnly = append(cncOnly, k)
				}
			}
		}
	}
	return all, cncOnly
}

// leafSpec is the job spec of one leaf of kind k that declares mult times
// its matrix bytes.
func leafSpec(k leafKind, mult, seed int64) serve.JobSpec {
	return serve.JobSpec{
		Benchmark:   k.bench,
		Variant:     k.variant.token,
		N:           k.n,
		Base:        k.base,
		Seed:        seed,
		MemoryBytes: mult * int64(k.n*k.n*8),
		DeadlineMS:  jobDeadline,
	}
}

// serveSequence generates the seeded submission sequence. Leaves come from
// back-to-back seeded permutations of every leaf kind, so each stretch of
// the sequence has the same mix whatever the seed; every 16th leaf instead
// comes from a permutation of the CnC kinds and declares only its matrix
// bytes, below its working peak, so the forced-admission path runs too.
func serveSequence(seed int64, count int) []submission {
	rng := rand.New(rand.NewSource(seed))
	all, cncOnly := serveKinds()
	var mainQ, underQ []leafKind
	draw := func(q *[]leafKind, from []leafKind) leafKind {
		if len(*q) == 0 {
			for _, i := range rng.Perm(len(from)) {
				*q = append(*q, from[i])
			}
		}
		k := (*q)[0]
		*q = (*q)[1:]
		return k
	}
	leaves := 0
	leaf := func() (serve.JobSpec, string) {
		under := leaves%underEvery == underEvery-1
		leaves++
		var k leafKind
		mult := int64(declareMult)
		if under {
			k, mult = draw(&underQ, cncOnly), 1
		} else {
			k = draw(&mainQ, all)
		}
		return leafSpec(k, mult, rng.Int63()), k.variant.name
	}
	out := make([]submission, count)
	for i := range out {
		tenant := serveTenants[i%len(serveTenants)]
		if i%forkEvery == forkEvery-1 {
			a, _ := leaf()
			b, _ := leaf()
			out[i] = submission{spec: serve.JobSpec{Tenant: tenant, Fork: []serve.JobSpec{a, b}}}
			continue
		}
		spec, v := leaf()
		spec.Tenant = tenant
		out[i] = submission{spec: spec, variant: v}
	}
	return out
}

// jobObs is what a client observed about one root job.
type jobObs struct {
	kind       string // "<bench>/<variant>/<n>" of a single-leaf root, "fork" otherwise
	probe      bool   // an unloaded probe, not mixed traffic
	variant    string
	phase      int
	ok         bool
	latency    float64 // ms, submit until the poll that saw a final state
	serverMS   float64 // the root's elapsed_ms
	polls      int
	admitWait  []float64 // ms per leaf, submit until first seen past "queued"
	leafStats  []serve.Metrics
	failReason string
}

// jobRecord is the audit record of one timed root job.
type jobRecord struct {
	Phase   int     `json:"phase"`
	Kind    string  `json:"kind"`
	RawMS   float64 `json:"raw_ms"`
	AdmitMS float64 `json:"admit_ms"` // first leaf seen past "queued"
	Scale   float64 `json:"scale"`    // the phase's host-normalisation factor
}

type phaseObs struct {
	traced      bool
	cal         int     // calibration point taken right before the phase
	raw, scaled float64 // s, phase start until the last job finished
	scale       float64
	ex          exec.Stats
	adm         admission.Stats
	metricsMS   float64
}

type serveRun struct {
	h      *harness
	seq    []submission
	mu     sync.Mutex
	next   int // next sequence position
	ops    int // operation ids handed out, for span grouping
	jobs   []jobObs
	phases []phaseObs
}

// take hands out the next submission of the sequence.
func (r *serveRun) take() submission {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.seq[r.next%len(r.seq)]
	r.next++
	return s
}

// op hands out an operation id.
func (r *serveRun) op() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	return r.ops
}

// runServe measures the serve-mixed workload: set-up (repeated), then
// phases of closed-loop traffic, each on a fresh executor and server and
// each between two guarded calibration points.
func (h *harness) runServe() error {
	r := &serveRun{h: h}
	if err := h.timeSetup(r.setup); err != nil {
		return err
	}
	nPhases := int(h.opts.seconds / phaseTarget)
	if nPhases < 2 {
		nPhases = 2
	}
	phaseLen := h.opts.seconds / time.Duration(nPhases)
	h.startMeasure()
	for p := 0; p < nPhases; p++ {
		ph := r.phase(p, phaseLen, h.opts.trace && p%2 == 1)
		ph.cal = len(h.calibs2) - 1
		if _, err := h.calibrate(); err != nil {
			return err
		}
		r.phases = append(r.phases, ph)
	}
	h.stopMeasure()
	return r.report()
}

// setup is one repetition of the service's set-up: generate the sequence,
// start an executor and a server, and push an untimed warm-up round (one
// probe job per variant) through the handler.
func (r *serveRun) setup() error {
	sp := r.h.rec.begin("setup", -1, -1)
	defer r.h.rec.end(sp)
	r.seq = serveSequence(r.h.opts.seed, serveSeqLen)
	ex, srv := r.start()
	defer r.stop(ex, srv)
	hd := srv.Handler()
	for _, v := range solveVariants {
		if o := r.do(hd, probe(v, r.h.opts.seed), -1, false); !o.ok {
			return fmt.Errorf("warm-up job: %s", o.failReason)
		}
	}
	return nil
}

// probe is the unloaded probe job of variant v: a Cholesky n=256/b32 leaf
// declaring 16x its matrix bytes, like the mix's leaves. Cholesky's limit
// path is cheap, so the probe times the service path rather than the
// accountant's throttling (which the mix's p90 already covers).
func probe(v solveVariant, seed int64) submission {
	spec := leafSpec(leafKind{"ch", v, 256, 32}, declareMult, seed)
	spec.Tenant = serveTenants[0]
	return submission{spec: spec, variant: v.name}
}

func (r *serveRun) start() (*exec.Executor, *serve.Server) {
	ex := exec.New(workers)
	srv := serve.New(serve.Config{Executor: ex, Budget: serveBudget})
	r.h.guard.acquire()
	r.h.guard.acquire()
	return ex, srv
}

func (r *serveRun) stop(ex *exec.Executor, srv *serve.Server) {
	srv.Close()
	r.h.guard.release()
	ex.Close()
	r.h.guard.release()
}

// phase runs one phase of closed-loop traffic: each client submits its next
// job as soon as the previous one finished, until the phase's time is up.
func (r *serveRun) phase(idx int, dur time.Duration, traced bool) phaseObs {
	h := r.h
	h.sampleRuntime()
	ex, srv := r.start()
	hd := srv.Handler()
	t0 := time.Now()
	deadline := t0.Add(dur)
	var wg sync.WaitGroup
	wg.Add(serveClients)
	for c := 0; c < serveClients; c++ {
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				o := r.do(hd, r.take(), r.op(), traced)
				o.phase = idx
				h.sampleRuntime()
				r.mu.Lock()
				r.jobs = append(r.jobs, o)
				r.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph := phaseObs{traced: traced, raw: time.Since(t0).Seconds()}

	// Unloaded probes: one job of each variant at a time on the idle
	// server, the service's per-variant latency without queueing.
	for round := 0; round < probeRounds; round++ {
		for _, v := range solveVariants {
			o := r.do(hd, probe(v, h.opts.seed+int64(idx*probeRounds+round)), r.op(), traced)
			o.phase, o.probe = idx, true
			r.jobs = append(r.jobs, o)
		}
	}

	// One /metrics scrape per phase, taken with every job of the phase
	// retained, then the admission and executor counters.
	sp := h.rec.begin("serve.metrics", -1, -1)
	tm := time.Now()
	rr := httptest.NewRecorder()
	hd.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	ph.metricsMS = ms(time.Since(tm))
	h.rec.end(sp)
	if rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), "dpserve_admission_queue_depth_max") {
		h.problem("/metrics scrape: HTTP %d", rr.Code)
	}
	ph.adm = srv.Admission().Stats()
	ph.ex = ex.Stats()
	r.stop(ex, srv)
	return ph
}

// do submits one job through the handler and polls it to a final state at
// the fixed cadence.
func (r *serveRun) do(hd http.Handler, sub submission, op int, traced bool) jobObs {
	h := r.h
	o := jobObs{variant: sub.variant, kind: "fork"}
	if sub.variant != "" {
		o.kind = fmt.Sprintf("%s/%s/%d", sub.spec.Benchmark, sub.variant, sub.spec.N)
	}
	rec := h.tracer(traced)
	body, err := json.Marshal(sub.spec)
	if err != nil {
		o.failReason = err.Error()
		return o
	}
	job := rec.begin("serve.job", -1, op)
	defer rec.end(job)
	t0 := time.Now()
	id := rec.begin("serve.submit", job, op)
	rr := httptest.NewRecorder()
	hd.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body)))
	rec.end(id)
	var resp struct{ ID string }
	if rr.Code != http.StatusAccepted || json.Unmarshal(rr.Body.Bytes(), &resp) != nil {
		o.failReason = fmt.Sprintf("submit: HTTP %d: %s", rr.Code, strings.TrimSpace(rr.Body.String()))
		return o
	}

	nLeaves := 1
	if len(sub.spec.Fork) > 0 {
		nLeaves = len(sub.spec.Fork)
	}
	o.admitWait = make([]float64, nLeaves)
	admitted := make([]bool, nLeaves)
	var st serve.Status
	for {
		time.Sleep(pollEvery)
		id := rec.begin("serve.status", job, op)
		rr := httptest.NewRecorder()
		hd.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/jobs/"+resp.ID, nil))
		st = serve.Status{}
		err := json.Unmarshal(rr.Body.Bytes(), &st)
		rec.end(id)
		now := time.Now()
		o.polls++
		if rr.Code != http.StatusOK || err != nil {
			o.failReason = fmt.Sprintf("status: HTTP %d", rr.Code)
			return o
		}
		leaves := []serve.Status{st}
		if len(st.Children) > 0 {
			leaves = st.Children
		}
		for i := 0; i < nLeaves && i < len(leaves); i++ {
			if !admitted[i] && leaves[i].State != serve.StateQueued {
				admitted[i] = true
				o.admitWait[i] = ms(now.Sub(t0))
			}
		}
		if st.State != serve.StateQueued && st.State != serve.StateRunning {
			o.latency = ms(now.Sub(t0))
			break
		}
	}
	o.serverMS = float64(st.ElapsedMS)
	o.ok, o.failReason = verified(st)
	if st.Stats != nil {
		o.leafStats = append(o.leafStats, *st.Stats)
	}
	for _, c := range st.Children {
		if c.Stats != nil {
			o.leafStats = append(o.leafStats, *c.Stats)
		}
	}
	return o
}

// verified reports whether a finished job and all its children are done
// and verified against the serial reference.
func verified(st serve.Status) (bool, string) {
	if st.State != serve.StateDone || !st.Verified {
		return false, fmt.Sprintf("%s %s/%s: state %s verified %v: %s", st.ID, st.Benchmark, st.Variant, st.State, st.Verified, st.Error)
	}
	for _, c := range st.Children {
		if ok, why := verified(c); !ok {
			return false, why
		}
	}
	return true, ""
}

func (r *serveRun) report() error {
	h := r.h
	for i := range r.phases {
		ph := &r.phases[i]
		ph.scale = h.scaleAt(ph.cal, workers)
		ph.scaled = ph.raw * ph.scale
	}
	var lat, latRaw []float64
	byVar := map[string][]float64{}
	byVarRaw := map[string][]float64{}
	verifiedRoots := 0
	var waits, stalls int64
	for _, o := range r.jobs {
		h.attempted++
		if !o.ok {
			h.failed++
			h.problem("serve job: %s", o.failReason)
			continue
		}
		if !o.probe {
			for _, m := range o.leafStats {
				waits += m.BackpressureWaits
				stalls += m.BackpressureStalls
			}
		}
		if r.phases[o.phase].traced {
			continue // end-to-end timings come from untraced phases only
		}
		sc := o.latency * r.phases[o.phase].scale
		if o.probe {
			byVar[o.variant] = append(byVar[o.variant], sc)
			byVarRaw[o.variant] = append(byVarRaw[o.variant], o.latency)
			continue
		}
		verifiedRoots++
		h.jobs = append(h.jobs, jobRecord{o.phase, o.kind, o.latency, o.admitWait[0], r.phases[o.phase].scale})
		lat = append(lat, sc)
		latRaw = append(latRaw, o.latency)
	}
	var dur, durRaw float64
	maxQueue := 0
	for _, ph := range r.phases {
		maxQueue = max(maxQueue, ph.adm.MaxQueueDepth)
		if !ph.traced {
			dur += ph.scaled
			durRaw += ph.raw
		}
	}
	h.counts["samples"] = len(lat)
	for _, v := range solveVariants {
		h.counts["samples."+v.name] = len(byVar[v.name])
		h.series["solve_ms."+v.name], h.series["raw.solve_ms."+v.name] = byVar[v.name], byVarRaw[v.name]
		h.e2e("solve_ms."+v.name, "ms", median(byVar[v.name]), median(byVarRaw[v.name]))
	}
	h.e2eTail(lat, latRaw)
	h.e2e("goodput_jobs_per_s", "1/s", float64(verifiedRoots)/dur, float64(verifiedRoots)/durRaw)

	// Self-checks: this workload must exercise admission queueing, throttled
	// puts under a declared limit and the forced-admission path; and the
	// poll cadence must stay at or below 1/20 of the median job time.
	if maxQueue == 0 {
		h.problem("serve-mixed: admission queue never formed")
	}
	if waits == 0 || stalls == 0 {
		h.problem("serve-mixed: backpressure waits %d, stalls %d; both must be non-zero", waits, stalls)
	}
	if p50 := median(latRaw); ms(pollEvery) > p50/20 {
		h.problem("serve-mixed: poll cadence %.2f ms exceeds 1/20 of p50 %.2f ms", ms(pollEvery), p50)
	}
	if !h.opts.trace {
		return nil
	}
	return r.reportLayers(waits, stalls)
}

func (r *serveRun) reportLayers(waits, stalls int64) error {
	h := r.h
	var traced, untraced, admit, server, overhead, polls []float64
	var peak int64
	var claims, units, parks, wakeups uint64
	var degradations uint64
	maxQueue, roots := 0, 0
	for _, o := range r.jobs {
		peak = maxLeafPeak(peak, o.leafStats)
		if !o.ok || o.probe {
			continue
		}
		roots++
		if !r.phases[o.phase].traced {
			untraced = append(untraced, o.latency)
			continue
		}
		traced = append(traced, o.latency)
		admit = append(admit, o.admitWait...)
		server = append(server, o.serverMS)
		overhead = append(overhead, o.latency-o.serverMS)
		polls = append(polls, float64(o.polls))
	}
	self := h.rec.selfMS()
	for _, ph := range r.phases {
		claims += ph.ex.Claims
		units += ph.ex.Units
		parks += ph.ex.Parks
		wakeups += ph.ex.Wakeups
		degradations += ph.adm.Degradations
		maxQueue = max(maxQueue, ph.adm.MaxQueueDepth)
	}
	perJob := func(x uint64) float64 { return float64(x) / float64(max(roots, 1)) }
	h.layer("exec.claims", "count", perJob(claims))
	h.layer("exec.units", "count", perJob(units))
	h.layer("exec.units_per_claim", "ratio", ratio(units, claims))
	h.layer("exec.parks", "count", perJob(parks))
	h.layer("exec.wakeups", "count", perJob(wakeups))
	h.layer("cnc.backpressure_waits", "count", float64(waits)/float64(max(roots, 1)))
	h.layer("cnc.backpressure_stalls", "count", float64(stalls)/float64(max(roots, 1)))
	h.layer("cnc.peak_live_mb", "MB", float64(peak)/(1<<20))
	h.layer("admission.wait_ms_p50", "ms", median(admit))
	h.layer("admission.wait_ms_p90", "ms", layerQuantile(admit, 0.9))
	h.layer("admission.max_queue_depth", "count", float64(maxQueue))
	h.layer("admission.degradations", "count", float64(degradations))
	h.layer("serve.submit_ms", "ms", median(self["serve.submit"]))
	h.layer("serve.status_ms", "ms", median(self["serve.status"]))
	h.layer("serve.polls_per_job", "count", sum(polls)/float64(max(len(polls), 1)))
	h.layer("serve.server_ms_p50", "ms", median(server))
	h.layer("serve.client_overhead_ms", "ms", median(overhead))
	h.layer("serve.metrics_ms", "ms", median(self["serve.metrics"]))
	if len(traced) == 0 || len(untraced) == 0 {
		return fmt.Errorf("traced run needs traced and untraced phases (got %d and %d jobs)", len(traced), len(untraced))
	}
	h.traceOverhead = median(traced)/median(untraced) - 1
	return r.measureInstances()
}

func maxLeafPeak(peak int64, leaves []serve.Metrics) int64 {
	for _, m := range leaves {
		peak = max(peak, m.PeakLiveBytes)
	}
	return peak
}

// measureInstances times the registry's instance construction (input plus
// eager serial reference) and verification once per leaf kind of the mix:
// the bench-layer work every job does inside the server, where the harness
// cannot bracket it.
func (r *serveRun) measureInstances() error {
	h := r.h
	all, _ := serveKinds()
	var newInst, verify []float64
	for i, k := range all {
		b, err := bench.ByName(k.bench)
		if err != nil {
			return err
		}
		t0 := time.Now()
		inst, err := b.NewInstance(k.n, k.base, h.opts.seed+int64(i))
		newInst = append(newInst, ms(time.Since(t0)))
		if err != nil {
			return fmt.Errorf("bench.NewInstance %s: %w", k.bench, err)
		}
		if _, err := inst.Run(context.Background(), core.SerialRDP, bench.RunOpts{}); err != nil {
			return fmt.Errorf("%s serial: %w", k.bench, err)
		}
		t1 := time.Now()
		if err := inst.Verify(); err != nil {
			return fmt.Errorf("%s verify: %w", k.bench, err)
		}
		verify = append(verify, ms(time.Since(t1)))
	}
	h.layer("bench.new_instance_ms", "ms", median(newInst))
	h.layer("bench.verify_ms", "ms", median(verify))
	return nil
}
