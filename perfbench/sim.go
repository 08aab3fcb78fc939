package main

import (
	"fmt"
	"os"
	"time"

	"eclipse"
)

// fig10Cycles is the paper experiment's pinned cycle count for seed 1.
const fig10Cycles = 478139

// simCycleLimit bounds one simulated run; the Fig. 10 stream needs
// about half a million cycles.
const simCycleLimit = 10_000_000_000

// simLayerRate sizes the traced run's Fig. 10 replay: a run of -seconds
// S replays ceil(simLayerRate × S) simulated decodes, at least
// minLayerOps. One decode takes about 150 ms of host time.
const simLayerRate = 0.75

// simFixture is the Fig. 10 stream of one seed. It is not a gated
// workload (see README.md): the traced run replays it to time the
// simulator's layers.
type simFixture struct {
	seed   int64
	stream []byte
	// cycles and events of the first run; every later run of the same
	// stream must repeat them exactly.
	cycles, events uint64
}

// prepareSim encodes the QCIF 12-frame IPBB sequence of the paper's
// Fig. 10 experiment with the seed as the source seed.
func prepareSim(seed int64) (*simFixture, error) {
	cfg := eclipse.DefaultFig10()
	src := eclipse.DefaultSource(cfg.W, cfg.H)
	src.Seed = seed
	ccfg := eclipse.DefaultCodec(cfg.W, cfg.H)
	ccfg.Q, ccfg.GOPN, ccfg.GOPM = cfg.Q, cfg.GOPN, cfg.GOPM
	stream, _, _, err := eclipse.Encode(ccfg, eclipse.GenerateVideo(src, cfg.Frames))
	if err != nil {
		return nil, err
	}
	return &simFixture{seed: seed, stream: stream}, nil
}

// simRun is one simulated decode with the time spent in each layer.
type simRun struct {
	cycles, events     uint64
	build, run, verify time.Duration
}

// runOnce builds the Fig. 8 instance, maps the decode application with
// probes on, runs it to completion and verifies the frames against the
// offline decoder.
func (f *simFixture) runOnce(corrupt bool) (simRun, error) {
	var r simRun
	t0 := time.Now()
	sys := eclipse.NewSystem(eclipse.Fig8())
	defer sys.Shutdown()
	bufs := eclipse.DefaultDecodeBuffers()
	app, err := sys.AddDecodeApp("dec", f.stream, eclipse.DecodeOptions{Probes: true, Buffers: &bufs})
	if err != nil {
		return r, err
	}
	t1 := time.Now()
	if r.cycles, err = sys.Run(simCycleLimit); err != nil {
		return r, err
	}
	r.events = sys.K.Events()
	t2 := time.Now()
	if corrupt && len(app.Frames()) > 0 && app.Frames()[0] != nil {
		app.Frames()[0].Pix[0] ^= 0xff
	}
	err = app.VerifyAgainstReference(f.stream)
	t3 := time.Now()
	r.build, r.run, r.verify = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	if err != nil {
		return r, err
	}
	return r, f.checkDeterminism(r)
}

// checkDeterminism pins the cycle and event counts: seed 1 must give
// the paper's cycle count, and every run must repeat the first.
func (f *simFixture) checkDeterminism(r simRun) error {
	if f.seed == 1 && r.cycles != fig10Cycles {
		return fmt.Errorf("seed 1 ran %d cycles, want %d", r.cycles, fig10Cycles)
	}
	if f.cycles == 0 {
		f.cycles, f.events = r.cycles, r.events
		return nil
	}
	if r.cycles != f.cycles || r.events != f.events {
		return fmt.Errorf("run drifted: %d cycles %d events, first run %d cycles %d events",
			r.cycles, r.events, f.cycles, f.events)
	}
	return nil
}

// layers times the three phases of each simulated run separately:
// building and mapping the System, running the kernel, and verifying the
// frames against the offline decoder.
func (f *simFixture) layers(n int, out *sink) (attempted, failed int, err error) {
	var build, run, verify, mevs []float64
	for i := 0; i < n; i++ {
		r, err := f.runOnce(false)
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: simulated run %d: %v\n", i, err)
			continue
		}
		build = append(build, ms(r.build))
		run = append(run, ms(r.run))
		verify = append(verify, ms(r.verify))
		mevs = append(mevs, float64(r.events)/r.run.Seconds()/1e6)
	}
	out.medianMs("eclipse.build_ms", build)
	out.medianMs("sim.run_ms", run)
	if len(mevs) > 0 {
		out.add("sim.mevents_per_s", "Mevents/s", median(mevs), "p50 of %d runs", len(mevs))
		out.add("sim.events", "count", float64(f.events), "kernel events per run, identical in all %d runs", len(mevs))
		out.add("sim.cycles", "count", float64(f.cycles), "simulated cycles per run, identical in all %d runs", len(mevs))
	}
	out.medianMs("media.verify_ms", verify)
	return n, failed, nil
}
