package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"dpflow/internal/serve"
)

func TestTailQuantileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// p90 of 99 samples is rank 90, leaving 9 beyond it: refused.
	if _, err := tailQuantile(xs, 0.9); err == nil {
		t.Fatal("p90 of 99 samples accepted with 9 beyond it")
	}
	// One more sample leaves exactly 10 beyond rank 90: accepted.
	xs = append(xs, 100)
	v, err := tailQuantile(xs, 0.9)
	if err != nil || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90, nil", v, err)
	}
	if _, err := tailQuantile(nil, 0.5); err == nil {
		t.Fatal("quantile of no samples accepted")
	}
	if got := layerQuantile(xs[:50], 0.9); got != 0 {
		t.Fatalf("layerQuantile on a thin tail = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{4, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestScale(t *testing.T) {
	// A host running 20% slow reads the calibration 20% high; the scaled
	// time is the time at reference speed.
	const ref = 2.0
	if got := 120 * scale(ref, []float64{2.4, 2.4, 2.4}); math.Abs(got-100) > 1e-9 {
		t.Fatalf("scaled = %v, want 100", got)
	}
	// The yardstick is the median of the readings, so one outlier reading
	// does not move it.
	if s := scale(ref, []float64{1.0, 2.0, 9.0}); s != 1 {
		t.Fatalf("scale(2, [1 2 9]) = %v, want 1", s)
	}
}

func TestCalibrationWindow(t *testing.T) {
	readings := make([]float64, 20)
	for i := range readings {
		readings[i] = float64(i)
	}
	// A sample after point 10 sees calibWindow points on each side, the
	// adjacent ones included.
	w := window(readings, 10)
	if len(w) != 2*calibWindow || w[0] != float64(10-calibWindow+1) || w[len(w)-1] != float64(10+calibWindow) {
		t.Fatalf("window(.., 10) = %v", w)
	}
	// Windows are clipped at both ends of the run.
	if w := window(readings, 0); w[0] != 0 || len(w) != calibWindow+1 {
		t.Fatalf("window(.., 0) = %v", w)
	}
	if w := window(readings, 19); w[len(w)-1] != 19 || len(w) != calibWindow {
		t.Fatalf("window(.., 19) = %v", w)
	}
}

func TestCalibrationReadingIsPositiveAndAllocationFree(t *testing.T) {
	c := newCalibrator()
	for _, g := range []int{1, 2} {
		if r := c.reading(g); r <= 0 {
			t.Fatalf("reading(%d) = %v", g, r)
		}
	}
	d := c.arrays[0]
	if n := testing.AllocsPerRun(5, func() { c.minPlus(d) }); n != 0 {
		t.Fatalf("minPlus allocates %v times per pass", n)
	}
}

func TestGuardFailsOnLeakedGoroutine(t *testing.T) {
	g := newGuard()
	g.wait = 50 * time.Millisecond
	if err := g.quiesce(); err != nil {
		t.Fatalf("idle process: %v", err)
	}
	stop := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		<-stop
	}()
	err := g.quiesce()
	close(stop)
	<-exited
	if err == nil || !strings.Contains(err.Error(), "goroutines alive") {
		t.Fatalf("leaked goroutine not reported: %v", err)
	}
	g.acquire()
	if err := g.quiesce(); err == nil {
		t.Fatal("open executor not reported")
	}
	g.release()
	if err := g.quiesce(); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

func TestServeSequenceIsSeeded(t *testing.T) {
	a, b := serveSequence(7, 512), serveSequence(7, 512)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different sequences")
	}
	if reflect.DeepEqual(a, serveSequence(8, 512)) {
		t.Fatal("different seeds gave the same sequence")
	}
}

func TestServeSequenceShape(t *testing.T) {
	seq := serveSequence(3, 800)
	forks, leaves, under := 0, 0, 0
	count := func(s serve.JobSpec) {
		leaves++
		if s.MemoryBytes == int64(s.N*s.N*8) {
			under++
			if s.Variant != "cnc" && s.Variant != "tuner" && s.Variant != "manual" {
				t.Errorf("under-declared leaf %s/%s has no accountant", s.Benchmark, s.Variant)
			}
		} else if s.MemoryBytes != declareMult*int64(s.N*s.N*8) {
			t.Errorf("leaf %s n=%d declares %d bytes", s.Benchmark, s.N, s.MemoryBytes)
		}
	}
	for i, sub := range seq {
		if len(sub.spec.Fork) > 0 {
			forks++
			if i%forkEvery != forkEvery-1 || len(sub.spec.Fork) != 2 || sub.variant != "" {
				t.Errorf("submission %d: bad fork %+v", i, sub)
			}
			for _, c := range sub.spec.Fork {
				count(c)
			}
			continue
		}
		if sub.spec.Tenant == "" || sub.variant == "" {
			t.Errorf("submission %d: leaf without tenant or variant", i)
		}
		count(sub.spec)
	}
	if forks != 800/forkEvery {
		t.Errorf("%d forks in 800 submissions", forks)
	}
	if under != leaves/underEvery {
		t.Errorf("%d of %d leaves under-declared", under, leaves)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json's metric lists and
// workloads in step with the harness.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, harness %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), harness %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", cfg.EndToEnd, endToEndMetrics)
	check("per_layer", cfg.PerLayer, perLayerMetrics)
	var names []string
	for _, w := range cfg.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, []string{"solve-fine", "solve-coarse", "serve-mixed"}) {
		t.Errorf("workloads %v", names)
	}
	for _, n := range names {
		if _, ok := workloads[n]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", n)
		}
	}
}
