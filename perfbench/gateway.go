package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"time"

	"eclipse/internal/cluster"
	"eclipse/internal/serve"
)

const (
	// gwClips small clips make up the gateway catalog. With 128 of them
	// each L1 shard holds four entries, so the hit rate barely depends
	// on how the seed's keys fall across the 16 shards. A 61 KB body
	// keeps the fixed per-request cost from being all of an op: with
	// 6 KB bodies the median flipped between two latency modes from
	// run to run.
	gwClips            = 128
	gwW, gwH, gwFrames = 96, 80, 8
	// gwL1Bytes is the gateway L1 budget: half the catalog's decoded
	// size, so the Zipf tail misses and evicts.
	gwL1Bytes = gwClips * gwW * gwH * gwFrames / 2
	// gwZipfS is the Zipf exponent of the request stream.
	gwZipfS = 1.1
	// gwBackends in-process eclipse-serve instances sit behind the
	// gateway.
	gwBackends = 2
)

func init() {
	register(&workload{
		name: "gateway_hot",
		// The latency limit is 1.5 to 3 times the p99.9 of 35 s runs on
		// a 2-vCPU VM (1.6-3.3 ms), so slo_attainment moves when the tail
		// does, not only when an op fails.
		sloMs:        5,
		opsPerSecond: 5000,
		procs:        1,
		prepare:      prepareGateway,
	})
}

// gwFixture is the gateway catalog and its Zipf request sequence.
type gwFixture struct {
	clips []*clip
	zipf  *rand.Zipf
	seq   []int // clip index of each operation, extended on demand
}

func prepareGateway(seed int64) (fixture, error) {
	f := &gwFixture{zipf: rand.NewZipf(rand.New(rand.NewSource(seed)), gwZipfS, 1, gwClips-1)}
	for i := 0; i < gwClips; i++ {
		c, err := makeClip(gwW, gwH, gwFrames, clipSeed(seed, i), false)
		if err != nil {
			return nil, err
		}
		f.clips = append(f.clips, c)
	}
	return f, nil
}

// op returns the clip of operation i.
func (f *gwFixture) op(i int) *clip {
	for len(f.seq) <= i {
		f.seq = append(f.seq, int(f.zipf.Uint64()))
	}
	return f.clips[f.seq[i]]
}

// gwInstance is a gateway with its L1 on, in front of two eclipse-serve
// backends with their result caches (L2) on, all on loopback listeners.
type gwInstance struct {
	f        *gwFixture
	srvs     []*serve.Server
	backends []*httptest.Server
	byName   map[string]int // backend listener address → index
	gw       *cluster.Gateway
	ts       *httptest.Server
	client   *client
	// backendReqs counts media requests that reached any backend.
	backendReqs atomic.Int64
}

// start builds the backends and the gateway, waits until both backends
// are routable, then warms: every clip is decoded once directly on each
// backend, which fills both L2s (so a hedge to the non-owner is also a
// hit), and requested once through the gateway, which fills the L1 and
// primes the adaptive hedge trigger. After this no operation does codec
// work.
func (f *gwFixture) start() (instance, error) {
	g := &gwInstance{f: f, byName: map[string]int{}, client: newClient()}
	var addrs []string
	for i := 0; i < gwBackends; i++ {
		srv := serve.New(serve.Config{CacheMaxAge: time.Hour})
		inner := srv.Handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost {
				g.backendReqs.Add(1)
			}
			inner.ServeHTTP(w, r)
		}))
		g.srvs = append(g.srvs, srv)
		g.backends = append(g.backends, ts)
		addr := ts.Listener.Addr().String()
		g.byName[addr] = i
		addrs = append(addrs, addr)
	}
	var err error
	g.gw, err = cluster.New(cluster.Config{
		Backends:      addrs,
		ProbeInterval: 50 * time.Millisecond,
		L1Bytes:       gwL1Bytes,
		L1TTL:         time.Hour,
	})
	if err != nil {
		g.stop()
		return nil, err
	}
	g.gw.Start()
	g.ts = httptest.NewServer(g.gw.Handler())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := g.gw.WaitReady(ctx, gwBackends); err != nil {
		g.stop()
		return nil, err
	}
	for _, ts := range g.backends {
		for _, c := range f.clips {
			if _, err := g.client.post(ts.URL+"/v1/decode", c.stream, c.raw, false); err != nil {
				g.stop()
				return nil, fmt.Errorf("warm backend: %w", err)
			}
		}
	}
	for _, c := range f.clips {
		if _, err := g.client.post(g.ts.URL+"/v1/decode", c.stream, c.raw, false); err != nil {
			g.stop()
			return nil, fmt.Errorf("warm gateway: %w", err)
		}
	}
	return g, nil
}

func (g *gwInstance) do(i int, corrupt bool) error {
	_, err := g.decode(i, corrupt)
	return err
}

func (g *gwInstance) decode(i int, corrupt bool) (http.Header, error) {
	c := g.f.op(i)
	return g.client.post(g.ts.URL+"/v1/decode", c.stream, c.raw, corrupt)
}

func (g *gwInstance) stop() {
	g.client.close()
	if g.ts != nil {
		g.ts.Close()
	}
	if g.gw != nil {
		g.gw.Stop()
	}
	for _, ts := range g.backends {
		ts.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, srv := range g.srvs {
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: serve shutdown:", err)
		}
	}
}

// Counters the traced run takes deltas of, indexing gwCounters.
const (
	cL1Hits = iota
	cL1Misses
	cL1Fills
	cL1Evictions
	cHedges
	cRetries
	cBackendReqs
	cL2Hits
	cL2Misses
	nCounters
)

type gwCounters [nCounters]uint64

func (g *gwInstance) counters() gwCounters {
	m := g.gw.Metrics()
	var c gwCounters
	c[cL1Hits], c[cL1Misses] = m.L1Hits.Load(), m.L1Misses.Load()
	c[cL1Fills], c[cL1Evictions] = m.L1Fills.Load(), m.L1Evictions.Load()
	c[cRetries], c[cBackendReqs] = m.Retries.Load(), uint64(g.backendReqs.Load())
	for k := range m.Hedges {
		c[cHedges] += m.Hedges[k].Load()
	}
	for _, srv := range g.srvs {
		s := srv.Cache().Snapshot()
		c[cL2Hits] += s.Hits
		c[cL2Misses] += s.Misses
	}
	return c
}

// layers replays the sequence on a fresh gateway. Each operation's
// client latency is split by the X-Cache outcome into L1 hits and
// proxied requests; then the same key is sent straight to the backend
// that served it, whose L2 holds it, which gives the backend's share of
// a proxied request. Counter deltas are taken around the gateway
// requests only.
func (f *gwFixture) layers(n int, out *sink) (attempted, failed int, err error) {
	inst, err := f.start()
	if err != nil {
		return 0, 0, err
	}
	g := inst.(*gwInstance)
	defer g.stop()
	var (
		hit, proxied, direct []float64
		total                gwCounters
	)
	for i := 0; i < n; i++ {
		attempted++
		c0 := g.counters()
		t0 := time.Now()
		h, err := g.decode(i, false)
		d := ms(time.Since(t0))
		c1 := g.counters()
		for k := range total {
			total[k] += c1[k] - c0[k]
		}
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: gateway op %d: %v\n", i, err)
			continue
		}
		if h.Get(cluster.CacheHeader) == cluster.XCacheL1Hit {
			hit = append(hit, d)
		} else {
			proxied = append(proxied, d)
		}
		b, ok := g.byName[h.Get(cluster.BackendHeader)]
		if !ok {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: gateway op %d: unknown backend %q\n", i, h.Get(cluster.BackendHeader))
			continue
		}
		c := f.op(i)
		t0 = time.Now()
		_, err = g.client.post(g.backends[b].URL+"/v1/decode", c.stream, c.raw, false)
		d = ms(time.Since(t0))
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: direct op %d: %v\n", i, err)
			continue
		}
		direct = append(direct, d)
	}
	ops := float64(n)
	out.ratio("cluster.l1_hit_rate", "fraction", float64(total[cL1Hits]), float64(total[cL1Hits]+total[cL1Misses]), "L1 hits over lookups")
	out.ratio("cluster.l1_fills_per_op", "count/op", float64(total[cL1Fills]), ops, "L1 fills")
	out.ratio("cluster.l1_evictions_per_op", "count/op", float64(total[cL1Evictions]), ops, "L1 evictions")
	out.medianMs("cluster.l1_hit_ms", hit)
	out.medianMs("cluster.proxied_ms", proxied)
	out.medianMs("serve.direct_hit_ms", direct)
	out.ratio("serve.l2_hit_rate", "fraction", float64(total[cL2Hits]), float64(total[cL2Hits]+total[cL2Misses]), "backend L2 hits over lookups")
	out.ratio("cluster.backend_reqs_per_op", "count/op", float64(total[cBackendReqs]), ops, "media requests reaching a backend")
	out.ratio("cluster.hedges_per_op", "count/op", float64(total[cHedges]), ops, "hedge attempts")
	out.ratio("cluster.retries_per_op", "count/op", float64(total[cRetries]), ops, "retry attempts")
	return attempted, failed, nil
}
