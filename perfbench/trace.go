package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// layerOpsDivisor sets the traced replay's length: each workload's layer
// group replays 1/layerOpsDivisor of its op count, at least minLayerOps
// operations.
const (
	layerOpsDivisor = 8
	minLayerOps     = 8
)

// A layerGroup is one replay of the traced run.
type layerGroup struct {
	name    string
	procs   int // GOMAXPROCS of the replay; 0 is the default
	ops     int
	prepare func(seed int64) (layered, error)
	// shares are the cpu_share buckets taken from a CPU profile of this
	// replay; nil means the replay is not profiled.
	shares []shareBucket
}

// layerGroups lists the traced run's replays: every workload's, then the
// paper's Fig. 10 experiment on the simulator, which no workload runs.
func layerGroups(seconds int) []layerGroup {
	var gs []layerGroup
	for _, name := range workloadNames() {
		w := workloads[name]
		gs = append(gs, layerGroup{
			name:    name,
			procs:   w.procs,
			ops:     max(w.opCount(seconds)/layerOpsDivisor, minLayerOps),
			prepare: func(seed int64) (layered, error) { return w.prepare(seed) },
		})
	}
	return append(gs, layerGroup{
		name:    "sim_fig10",
		procs:   1,
		ops:     max(int(math.Ceil(simLayerRate*float64(seconds))), minLayerOps),
		prepare: func(seed int64) (layered, error) { return prepareSim(seed) },
		shares:  simShareBuckets,
	})
}

// runTraced is the traced run, separate from the end-to-end runs. It
//
//  1. times the workload's own operations three times on one instance:
//     plain, under a CPU profile, and plain again. This gives the
//     tracing overhead, the GC's CPU share and the CPU shares of the
//     serving packages;
//  2. replays every layer group's op sequence, built from the same
//     seed, timing the nested public calls of each layer one after
//     another on the same inputs, and reads the counters the packages
//     export. The Fig. 10 replay runs under a CPU profile of its own,
//     which splits the simulator's time between sim, shell and copro.
//
// Every layer group runs, so every per-layer metric is measured in every
// traced run; the layers a workload bypasses are measured on another
// group's inputs.
func runTraced(w *workload, o opts) (*outcome, error) {
	defer setProcs(setProcs(w.procs))
	fx, err := w.prepare(o.seed)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	profPath := func(group string) string {
		return filepath.Join(o.workdir, fmt.Sprintf("cpu-%s-seed%d-%s.pprof", w.name, o.seed, group))
	}
	inst, err := fx.start()
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	// A plain pass on each side of the profiled one, so warming up over
	// the passes does not bias the overhead.
	n := max(w.opCount(o.seconds)/4, minLayerOps)
	plain1 := measure(inst, n, w.sloMs)
	var traced phase
	gc0, total0 := gcCPU()
	err = profiled(profPath(w.name), func() { traced = measure(inst, n, w.sloMs) })
	gc1, total1 := gcCPU()
	plain2 := measure(inst, n, w.sloMs)
	inst.stop()
	if err != nil {
		return nil, err
	}

	out := &outcome{attempted: 3 * n, failed: plain1.failed + traced.failed + plain2.failed}
	var s sink
	s.ratio("bench.trace_overhead", "ratio", (plain1.wall.Seconds()+plain2.wall.Seconds())/2, traced.wall.Seconds(),
		fmt.Sprintf("profiled-pass throughput over mean plain-pass throughput, %d ops each", n))
	s.ratio("runtime.gc_cpu_share", "fraction", gc1-gc0, total1-total0, "GC CPU over total CPU during the profiled pass")
	if err := addCPUShares(&s, profPath(w.name), workloadShareBuckets); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: cpu_share.* of %s omitted: %v\n", w.name, err)
	}

	for _, g := range layerGroups(o.seconds) {
		var lfx layered = fx
		if g.name != w.name {
			if lfx, err = g.prepare(o.seed); err != nil {
				return nil, fmt.Errorf("%s inputs: %w", g.name, err)
			}
		}
		var a, failed int
		replay := func() { a, failed, err = lfx.layers(g.ops, &s) }
		prev := setProcs(g.procs)
		t0 := time.Now()
		if g.shares == nil {
			replay()
		} else if perr := profiled(profPath(g.name), replay); perr != nil {
			err = perr
		}
		setProcs(prev)
		if err != nil {
			return nil, fmt.Errorf("%s layers: %w", g.name, err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s layer replay: %d ops in %.1f s\n", g.name, a, time.Since(t0).Seconds())
		out.attempted += a
		out.failed += failed
		if g.shares != nil {
			if err := addCPUShares(&s, profPath(g.name), g.shares); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: cpu_share.* of %s omitted: %v\n", g.name, err)
			}
		}
	}
	out.metrics = s.ms
	return out, nil
}

// profiled runs fn under a CPU profile written to path.
func profiled(path string, fn func()) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	fn()
	pprof.StopCPUProfile()
	return f.Close()
}

// A shareBucket maps a cpu_share.<name> metric to the Go packages whose
// flat CPU samples it sums.
type shareBucket struct {
	name string
	pkgs []string // exact package paths, or prefixes ending in "/"
}

// simShareBuckets split the Fig. 10 replay's profile: the System and
// mapping (the root package), the kernel, the shells, the coprocessor
// task models (internal/copro) with their runtime (internal/coproc),
// and the probes.
var simShareBuckets = []shareBucket{
	{"eclipse", []string{"eclipse"}},
	{"sim", []string{"eclipse/internal/sim"}},
	{"shell", []string{"eclipse/internal/shell"}},
	{"copro", []string{"eclipse/internal/copro", "eclipse/internal/coproc"}},
	{"trace", []string{"eclipse/internal/trace"}},
}

// workloadShareBuckets split the profile of the workload's own
// operations.
var workloadShareBuckets = []shareBucket{
	{"kpn", []string{"eclipse/internal/kpn"}},
	{"media", []string{"eclipse/internal/media"}},
	{"serve", []string{"eclipse/internal/serve"}},
	{"cluster", []string{"eclipse/internal/cluster"}},
	{"net_http", []string{"net/http", "net/http/"}},
	{"runtime", []string{"runtime", "runtime/", "internal/runtime/"}},
}

// addCPUShares reads a CPU profile with `go tool pprof -top` and adds
// each bucket's share of the flat samples.
func addCPUShares(s *sink, profPath string, buckets []shareBucket) error {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-unit=ms", profPath)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	top, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	flat, total, err := parsePprofTop(top)
	if err != nil {
		return err
	}
	if total == 0 {
		return fmt.Errorf("profile %s holds no samples", profPath)
	}
	for _, b := range buckets {
		var sum float64
		for pkg, v := range flat {
			if inBucket(pkg, b.pkgs) {
				sum += v
			}
		}
		s.add("cpu_share."+b.name, "fraction", sum/total, "flat CPU of %s over %.0f ms sampled in %s", strings.Join(b.pkgs, ","), total, filepath.Base(profPath))
	}
	return nil
}

func inBucket(pkg string, pkgs []string) bool {
	for _, p := range pkgs {
		if pkg == p || (strings.HasSuffix(p, "/") && strings.HasPrefix(pkg, p)) {
			return true
		}
	}
	return false
}

// parsePprofTop sums the flat column of `pprof -top -unit=ms` output by
// package and returns the per-package sums and their total, in ms.
func parsePprofTop(top []byte) (flat map[string]float64, total float64, err error) {
	flat = map[string]float64{}
	inRows := false
	sc := bufio.NewScanner(bytes.NewReader(top))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if !inRows {
			inRows = len(fields) > 0 && fields[0] == "flat"
			continue
		}
		if len(fields) < 6 {
			continue
		}
		v, err := parseMs(fields[0])
		if err != nil {
			return nil, 0, fmt.Errorf("pprof row %q: %v", sc.Text(), err)
		}
		flat[funcPackage(fields[5])] += v
		total += v
	}
	if !inRows {
		return nil, 0, fmt.Errorf("no rows in pprof output")
	}
	return flat, total, sc.Err()
}

// parseMs parses a pprof -unit=ms value such as "120ms" or "0".
func parseMs(f string) (float64, error) {
	if f == "0" {
		return 0, nil
	}
	d, err := time.ParseDuration(f)
	if err != nil {
		return 0, err
	}
	return ms(d), nil
}

// funcPackage returns the import path of a symbol such as
// "eclipse/internal/sim.(*Kernel).Run" or "runtime.mallocgc".
func funcPackage(sym string) string {
	slash := strings.LastIndex(sym, "/")
	if dot := strings.Index(sym[slash+1:], "."); dot >= 0 {
		return sym[:slash+1+dot]
	}
	return sym
}

// defaultProcs is the GOMAXPROCS the process started with.
var defaultProcs = runtime.GOMAXPROCS(0)

// setProcs sets GOMAXPROCS to n, or to defaultProcs when n is not
// positive, and returns the previous value.
func setProcs(n int) int {
	if n <= 0 {
		n = defaultProcs
	}
	return runtime.GOMAXPROCS(n)
}
