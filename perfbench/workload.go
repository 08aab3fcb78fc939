package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"time"
)

// A workload is a seeded, fixed sequence of operations against one
// program configuration, driven by a single closed-loop client: the next
// operation starts when the previous one has returned and been verified.
type workload struct {
	name string
	// sloMs is the fixed per-operation latency limit behind
	// slo_attainment. BENCHMARK.json states it in the workload's "why".
	sloMs float64
	// opsPerSecond sizes the fixed op count: a run of -seconds S
	// performs ceil(opsPerSecond × S) operations, whatever their speed,
	// so throughput is that count over the measured wall time.
	opsPerSecond float64
	// procs, when positive, is the GOMAXPROCS the workload runs at.
	procs int
	// prepare makes the inputs and their oracles from the seed. It is
	// the benchmark's own work and is not timed.
	prepare func(seed int64) (fixture, error)
}

// A fixture holds one seed's inputs and oracles.
type fixture interface {
	// start builds the program side, waits until it is ready and runs
	// the warm pass that fills caches, pools and connections. Its wall
	// time is one setup_s sample.
	start() (instance, error)
	layered
}

// A layered input set can be replayed by the traced run.
type layered interface {
	// layers sets up whatever it runs against, replays n operations
	// timing the nested public calls of each layer it exercises, and
	// adds the per-layer metrics to out. It returns the operations it
	// verified and how many of them failed.
	layers(n int, out *sink) (attempted, failed int, err error)
}

// An instance is a program side that is set up and ready.
type instance interface {
	// do runs operation i of the sequence and verifies its output
	// against the offline oracle. With corrupt set it flips a byte of
	// the response before verifying, which must then fail.
	do(i int, corrupt bool) error
	stop()
}

var workloads = map[string]*workload{}

func register(w *workload) { workloads[w.name] = w }

// minOps is the smallest op count whose p75 leaves ten samples beyond
// it, so every run reports a tail latency.
const minOps = 40

// opCount is the fixed number of timed operations for a run.
func (w *workload) opCount(seconds int) int {
	return max(int(math.Ceil(w.opsPerSecond*float64(seconds))), minOps)
}

// setupReps is how many times one run sets the program up; setup_s is
// the median.
const setupReps = 15

// setUp starts the program setupReps times, keeping the last instance
// and returning the median set-up time in seconds.
func setUp(fx fixture) (instance, float64, error) {
	var (
		inst   instance
		setups []float64
	)
	for k := 0; k < setupReps; k++ {
		if inst != nil {
			inst.stop()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if inst, err = fx.start(); err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	return inst, median(setups), nil
}

// selfTest runs one operation with its response corrupted and fails
// unless the verifier rejects it: a benchmark whose checks cannot fail
// would report nothing.
func selfTest(inst instance) error {
	if err := inst.do(0, true); err == nil {
		return fmt.Errorf("self-test: a corrupted response passed verification")
	}
	return nil
}

// phase is the measurement of n consecutive operations.
type phase struct {
	lat      []float64 // per-op latency, ms
	failed   int
	inSLO    int // ops that succeeded within the latency limit
	wall     time.Duration
	cpu      time.Duration
	alloc    uint64
	peakHeap uint64
}

// measure runs ops [0, n) of inst back to back.
func measure(inst instance, n int, sloMs float64) phase {
	p := phase{lat: make([]float64, 0, n)}
	// The heap bytes marked live by the latest GC, read per op without
	// stopping the world.
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	runtime.GC()
	cpu0, alloc0 := cpuTime(), totalAlloc()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		s := time.Now()
		err := inst.do(i, false)
		d := ms(time.Since(s))
		p.lat = append(p.lat, d)
		if err != nil {
			p.failed++
			if p.failed <= 5 {
				fmt.Fprintf(os.Stderr, "perfbench: op %d: %v\n", i, err)
			}
		} else if d <= sloMs {
			p.inSLO++
		}
		metrics.Read(live)
		if h := live[0].Value.Uint64(); h > p.peakHeap {
			p.peakHeap = h
		}
	}
	p.wall = time.Since(t0)
	p.cpu = cpuTime() - cpu0
	p.alloc = totalAlloc() - alloc0
	return p
}

// runEndToEnd is the untraced run: set up, self-test, then time a fixed
// number of operations.
func runEndToEnd(w *workload, o opts) (*outcome, error) {
	defer setProcs(setProcs(w.procs))
	fx, err := w.prepare(o.seed)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	inst, setupS, err := setUp(fx)
	if err != nil {
		return nil, err
	}
	defer inst.stop()
	if err := selfTest(inst); err != nil {
		return nil, err
	}
	n := w.opCount(o.seconds)
	p := measure(inst, n, w.sloMs)

	out := &outcome{attempted: n, failed: p.failed}
	var s sink
	s.add("setup_s", "s", setupS, "median of %d set-ups", setupReps)
	s.add("throughput_ops_s", "ops/s", float64(n)/p.wall.Seconds(), "%d ops in %.3f s", n, p.wall.Seconds())
	s.medianMs("latency_p50_ms", append([]float64(nil), p.lat...))
	if v, pct, ok := tail(p.lat); ok {
		s.add("latency_tail_ms", "ms", v, "p%g of %d samples", pct, len(p.lat))
	}
	s.add("success_rate", "fraction", float64(n-p.failed)/float64(n), "%d of %d ops returned and verified", n-p.failed, n)
	s.add("slo_attainment", "fraction", float64(p.inSLO)/float64(n), "%d of %d ops verified within %g ms", p.inSLO, n, w.sloMs)
	s.add("cpu_ms_per_op", "ms", ms(p.cpu)/float64(n), "process user+sys CPU over %d ops", n)
	s.add("alloc_mb_per_op", "MB", float64(p.alloc)/1e6/float64(n), "TotalAlloc delta over %d ops", n)
	s.add("peak_heap_mb", "MB", float64(p.peakHeap)/1e6, "max live heap after GC, sampled per op")
	out.metrics = s.ms
	return out, nil
}
