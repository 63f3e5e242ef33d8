package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The calibration loop is the benchmark's yardstick for host speed: a
// fixed, allocation-free min-plus sweep over private arrays that no program
// code ever touches, so no change to the program can move it. Each timed
// sample is scaled by calibRef / (the calibration readings around it), which
// cancels drift in the host's speed between runs while keeping ms and s.
const (
	calibSide   = 96 // side of each private min-plus array (72 KiB)
	calibChunks = 3  // k-sweeps per goroutine per pass
	calibPasses = 3  // passes per reading; the reading is their median
)

// calibrator owns one private array per calibration goroutine and the
// fixed template every pass restarts from, so each pass does identical work.
type calibrator struct {
	tmpl   []float64
	arrays [2][]float64
}

func newCalibrator() *calibrator {
	c := &calibrator{tmpl: make([]float64, calibSide*calibSide)}
	x := uint32(2463534242) // fixed xorshift state: the same weights in every run
	for i := range c.tmpl {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		c.tmpl[i] = float64(1 + x%97)
	}
	for i := range c.arrays {
		c.arrays[i] = make([]float64, len(c.tmpl))
	}
	return c
}

// minPlus restarts d from the template and runs one Floyd-Warshall style
// min-plus k-sweep over it.
func (c *calibrator) minPlus(d []float64) {
	copy(d, c.tmpl)
	const m = calibSide
	for k := 0; k < m; k++ {
		rowk := d[k*m : (k+1)*m]
		for i := 0; i < m; i++ {
			row := d[i*m : (i+1)*m]
			dik := row[k]
			for j, v := range rowk {
				if w := dik + v; w < row[j] {
					row[j] = w
				}
			}
		}
	}
}

// pass times goroutines x calibChunks sweeps shared by `goroutines`
// goroutines (each on its own array) and returns the wall time in ms. The
// goroutines take sweeps from a shared counter, as the runtimes' workers
// take tasks, so a pass measures the capacity the host offers to that many
// workers rather than its slowest CPU; on an idle host every width reads
// the same.
func (c *calibrator) pass(goroutines int) float64 {
	var wg sync.WaitGroup
	var next atomic.Int32
	total := int32(goroutines * calibChunks)
	t0 := time.Now()
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(d []float64) {
			defer wg.Done()
			for next.Add(1) <= total {
				c.minPlus(d)
			}
		}(c.arrays[g])
	}
	wg.Wait()
	return ms(time.Since(t0))
}

// reading is one calibration point: the median of calibPasses passes.
func (c *calibrator) reading(goroutines int) float64 {
	var r [calibPasses]float64
	for i := range r {
		r[i] = c.pass(goroutines)
	}
	return median(r[:])
}

// calibWindow is how many calibration points on each side of a sample (the
// adjacent one included) make up its yardstick. A single reading lasts
// milliseconds and catches each vCPU in whichever of its fast or slow states
// it is in at that instant; the median of the readings within a few samples
// either side follows the host's drift over seconds without that noise.
const calibWindow = 5

// window returns the readings that make up the yardstick of a sample taken
// right after calibration point i.
func window(readings []float64, i int) []float64 {
	return readings[max(0, i-calibWindow+1):min(len(readings), i+1+calibWindow)]
}

// scale is the factor that converts a raw time into host-normalised time,
// given the calibration readings around it.
func scale(ref float64, readings []float64) float64 {
	return ref / median(readings)
}

// scaleAt is the host-normalisation factor of a sample on `goroutines`
// goroutines taken right after calibration point i. Call it once the run's
// calibration points are all taken.
func (h *harness) scaleAt(i, goroutines int) float64 {
	readings := h.calibs2
	if goroutines == 1 {
		readings = h.calibs1
	}
	return scale(h.opts.calibRef, window(readings, i))
}

// guard enforces that calibration never overlaps program activity: every
// executor, pool and server the harness creates is counted while alive, and
// the goroutine count must be back at the harness's idle baseline.
type guard struct {
	baseline int
	alive    int
	checks   int
	wait     time.Duration
}

func newGuard() *guard {
	return &guard{baseline: runtime.NumGoroutine(), wait: 2 * time.Second}
}

func (g *guard) acquire() { g.alive++ }
func (g *guard) release() { g.alive-- }

// quiesce returns nil once the process is idle, or an error naming what is
// still alive after g.wait.
func (g *guard) quiesce() error {
	g.checks++
	if g.alive != 0 {
		return fmt.Errorf("quiescence: %d executor/pool/server objects still open", g.alive)
	}
	deadline := time.Now().Add(g.wait)
	for {
		n := runtime.NumGoroutine()
		if n <= g.baseline {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("quiescence: %d goroutines alive, idle baseline is %d", n, g.baseline)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// calibrate checks quiescence, then takes a calibration point: readings
// on 1 and on 2 goroutines, for serial and for parallel samples. It returns
// the point's index.
func (h *harness) calibrate() (int, error) {
	if err := h.guard.quiesce(); err != nil {
		return 0, err
	}
	h.calibs1 = append(h.calibs1, h.cal.reading(1))
	h.calibs2 = append(h.calibs2, h.cal.reading(2))
	return len(h.calibs1) - 1, nil
}

// timeSetup runs the workload's set-up setupReps times, each between two
// calibration points, and keeps the raw times for setup_s.
func (h *harness) timeSetup(setup func() error) error {
	cal, err := h.calibrate()
	if err != nil {
		return err
	}
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := setup(); err != nil {
			return err
		}
		h.setups = append(h.setups, timed{cal, time.Since(t0).Seconds()})
		if cal, err = h.calibrate(); err != nil {
			return err
		}
	}
	return nil
}

// timed is one raw timing and the calibration point taken right before it.
type timed struct {
	cal int
	raw float64
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
