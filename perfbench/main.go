// Command perfbench is the repository's end-to-end benchmark. It runs one
// closed-loop workload for a fixed number of verified operations and
// prints every metric by name and unit; the last line of standard output
// is a JSON summary:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// separate traced run replays the workloads' operations, times the
// nested public calls of each layer and profiles the CPU, and the
// metrics are the per-layer ones. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// opts is one invocation's configuration.
type opts struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workdir  string // scratch space for CPU profiles
}

// outcome is the verdict of one run: how many operations were attempted
// and failed verification, and the metrics measured.
type outcome struct {
	attempted, failed int
	metrics           []metric
}

func (o *outcome) correct() bool { return o.attempted > 0 && o.failed == 0 }

func main() {
	var o opts
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "input seed; 1 is the default, 7 is held out for claims")
	flag.IntVar(&o.seconds, "seconds", 10, "nominal length of the timed phase; sizes the fixed op count")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for CPU profiles")
	flag.Parse()
	o.trace = trace == 1
	if o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1 and -trace 0 or 1")
		os.Exit(2)
	}
	out, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := printSummary(os.Stdout, out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !out.correct() {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed verification\n", out.failed, out.attempted)
		os.Exit(1)
	}
}

// run executes one invocation, printing the host block and the metric
// table to w.
func run(o opts, w io.Writer) (*outcome, error) {
	wl, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	procs := runtime.GOMAXPROCS(0)
	if wl.procs > 0 {
		procs = wl.procs
	}
	fmt.Fprintf(w, "host num_cpu=%d gomaxprocs=%d go=%s %s/%s\n",
		runtime.NumCPU(), procs, runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(w, "workload=%s seed=%d seconds=%d trace=%t\n", o.workload, o.seed, o.seconds, o.trace)
	var (
		out *outcome
		err error
	)
	if o.trace {
		out, err = runTraced(wl, o)
	} else {
		out, err = runEndToEnd(wl, o)
	}
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "ops attempted=%d failed=%d\n", out.attempted, out.failed)
	for _, m := range out.metrics {
		fmt.Fprintf(w, "%-32s %14.6g %-10s %s\n", m.Name, m.Value, m.Unit, m.Detail)
	}
	return out, nil
}

// printSummary writes the one-line JSON verdict.
func printSummary(w io.Writer, out *outcome) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for _, m := range out.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not finite", m.Name)
		}
		if _, dup := ms[m.Name]; dup {
			return fmt.Errorf("metric %s emitted twice", m.Name)
		}
		ms[m.Name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.correct(), out.attempted, out.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
