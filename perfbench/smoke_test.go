package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the smoke test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesWorkloads checks that BENCHMARK.json declares exactly
// the registered workloads and states each one's latency limit.
func TestSpecMatchesWorkloads(t *testing.T) {
	s := loadSpec(t)
	declared := map[string]bool{}
	for _, w := range s.Workloads {
		declared[w.Name] = true
		wl, ok := workloads[w.Name]
		if !ok {
			t.Errorf("BENCHMARK.json declares unknown workload %q", w.Name)
			continue
		}
		if slo := fmt.Sprintf("SLO %g ms", wl.sloMs); !strings.Contains(w.Why, slo) {
			t.Errorf("workload %s: why %q does not state %q", w.Name, w.Why, slo)
		}
	}
	for name := range workloads {
		if !declared[name] {
			t.Errorf("workload %s is not declared in BENCHMARK.json", name)
		}
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that each run verifies every operation and emits exactly the metrics
// BENCHMARK.json names, with their units.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	s := loadSpec(t)
	units := func(ms []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) map[string]string {
		u := map[string]string{}
		for _, m := range ms {
			u[m.Name] = m.Unit
		}
		return u
	}
	endToEnd, perLayer := units(s.EndToEnd), units(s.PerLayer)
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			name, traced := name, traced
			t.Run(fmt.Sprintf("%s/trace=%t", name, traced), func(t *testing.T) {
				out, err := run(opts{workload: name, seed: 1, seconds: 1, trace: traced, workdir: t.TempDir()}, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !out.correct() {
					t.Fatalf("%d of %d ops failed", out.failed, out.attempted)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				got := map[string]string{}
				for _, m := range out.metrics {
					got[m.Name] = m.Unit
				}
				for n, u := range want {
					if gu, ok := got[n]; !ok {
						t.Errorf("metric %s not emitted", n)
					} else if gu != u {
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", n, gu, u)
					}
				}
				for n := range got {
					if _, ok := want[n]; !ok {
						t.Errorf("metric %s emitted but not declared", n)
					}
				}
			})
		}
	}
}

// corrupting wraps an instance and corrupts the response of one op.
type corrupting struct {
	instance
	op int
}

func (c corrupting) do(i int, corrupt bool) error { return c.instance.do(i, corrupt || i == c.op) }

// TestCorruptResponseCounted checks the negative path: a deliberately
// corrupted response must count as a failed operation, for every
// workload's verifier.
func TestCorruptResponseCounted(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			fx, err := workloads[name].prepare(1)
			if err != nil {
				t.Fatal(err)
			}
			inst, err := fx.start()
			if err != nil {
				t.Fatal(err)
			}
			defer inst.stop()
			p := measure(corrupting{inst, 1}, 3, 1e9)
			if p.failed != 1 || p.inSLO != 2 {
				t.Errorf("3 ops with op 1 corrupted: %d failed, %d within the limit; want 1 and 2", p.failed, p.inSLO)
			}
			if err := selfTest(inst); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestSimCorruptRejected checks the simulator replay's verifier: a
// corrupted frame must fail, and a clean run must then still repeat the
// first run's cycles and events.
func TestSimCorruptRejected(t *testing.T) {
	f, err := prepareSim(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.runOnce(false); err != nil {
		t.Fatal(err)
	}
	if _, err := f.runOnce(true); err == nil {
		t.Error("a corrupted frame passed verification")
	}
	if _, err := f.runOnce(false); err != nil {
		t.Error(err)
	}
}

// TestTail checks the tail percentile choice: the highest candidate
// leaving at least ten samples beyond it.
func TestTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		pct  float64
		okay bool
	}{{20, 0, false}, {40, 75, true}, {100, 90, true}, {200, 95, true}, {1000, 99, true}, {10000, 99.9, true}} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(c.n - i)
		}
		v, pct, ok := tail(xs)
		if ok != c.okay || pct != c.pct {
			t.Errorf("n=%d: percentile %g ok=%t, want %g ok=%t", c.n, pct, ok, c.pct, c.okay)
			continue
		}
		if ok && c.n-int(v) < 10 {
			t.Errorf("n=%d: p%g = %g leaves %d samples beyond it", c.n, pct, v, c.n-int(v))
		}
	}
}

// TestParsePprofTop checks the per-package aggregation of pprof output.
func TestParsePprofTop(t *testing.T) {
	top := `File: perfbench
Type: cpu
Showing nodes accounting for 1500ms, 100% of 1500ms total
      flat  flat%   sum%        cum   cum%
     700ms 46.67% 46.67%      900ms 60.00%  eclipse/internal/sim.(*Kernel).Run
     300ms 20.00% 66.67%      300ms 20.00%  eclipse.(*System).Run (inline)
     200ms 13.33% 80.00%      200ms 13.33%  net/http.(*conn).serve
     300ms 20.00%   100%      300ms 20.00%  runtime.mallocgc
         0     0%   100%     1500ms   100%  main.main
`
	flat, total, err := parsePprofTop([]byte(top))
	if err != nil {
		t.Fatal(err)
	}
	if total != 1500 {
		t.Errorf("total %g ms, want 1500", total)
	}
	for pkg, want := range map[string]float64{"eclipse/internal/sim": 700, "eclipse": 300, "net/http": 200, "runtime": 300, "main": 0} {
		if flat[pkg] != want {
			t.Errorf("flat[%s] = %g, want %g", pkg, flat[pkg], want)
		}
	}
	if _, _, err := parsePprofTop([]byte("garbage")); err == nil {
		t.Error("unparsable output accepted")
	}
}
