package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"time"

	"eclipse"
	"eclipse/internal/media"
	"eclipse/internal/serve"
)

const (
	// serveClips is the catalog size. It is odd, so the 3:1
	// decode/transcode interleave sends every clip through both kinds.
	serveClips = 13
	// serveFrames is the length of each QCIF clip.
	serveFrames = 12
	// xcodeQ is the transcode target quantizer.
	xcodeQ = 9
	// serveWarmOps is the warm pass: the first ops of the sequence, run
	// once during set-up and discarded.
	serveWarmOps = 8
)

func init() {
	register(&workload{
		name: "serve_miss",
		// The latency limit is 1.7 to 3 times the p99 of 35 s runs on a
		// 2-vCPU VM (64-116 ms, a transcode), so slo_attainment moves
		// when the tail does, not only when an op fails.
		sloMs:        200,
		opsPerSecond: 30,
		prepare:      prepareServe,
	})
}

// clip is one catalog entry with its offline oracles.
type clip struct {
	stream []byte
	seq    media.SeqHeader
	frames []*media.Frame // display-order reference decode
	raw    []byte         // the decode response: luma planes in display order
	xcode  []byte         // the q=xcodeQ transcode response
}

// makeClip encodes a synthetic clip and derives its oracles from the
// offline codec: media.Decode for raw planes and, when xcode is set,
// media.Encode(serve.TranscodeConfig(seq, xcodeQ)) for the transcode.
func makeClip(w, h, frames int, seed int64, xcode bool) (*clip, error) {
	src := media.DefaultSource(w, h)
	src.Seed = seed
	stream, _, _, err := media.Encode(media.DefaultCodec(w, h), media.NewSource(src).Frames(frames))
	if err != nil {
		return nil, err
	}
	ref, err := media.Decode(stream)
	if err != nil {
		return nil, err
	}
	c := &clip{stream: stream, seq: ref.Seq, frames: ref.DisplayFrames()}
	c.raw = planes(c.frames)
	if xcode {
		if c.xcode, _, _, err = media.Encode(serve.TranscodeConfig(ref.Seq, xcodeQ), c.frames); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// clipSeed derives catalog entry i's source seed from the run's seed.
func clipSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// serveFixture is the serve_miss catalog: distinct QCIF clips.
type serveFixture struct{ clips []*clip }

func prepareServe(seed int64) (fixture, error) {
	f := &serveFixture{}
	for i := 0; i < serveClips; i++ {
		c, err := makeClip(176, 144, serveFrames, clipSeed(seed, i), true)
		if err != nil {
			return nil, err
		}
		f.clips = append(f.clips, c)
	}
	return f, nil
}

// op returns operation i of the sequence: a fixed 3:1 interleave of
// decodes and transcodes, cycling through the catalog.
func (f *serveFixture) op(i int) (c *clip, transcode bool) {
	return f.clips[i%len(f.clips)], i%4 == 3
}

// serveInstance is one eclipse-serve on a loopback listener with the
// result cache off and the default decode engine (the KPN pipeline).
type serveInstance struct {
	f                   *serveFixture
	srv                 *serve.Server
	ts                  *httptest.Server
	client              *client
	decodeURL, xcodeURL string
}

func (f *serveFixture) start() (instance, error) {
	s := &serveInstance{f: f, srv: serve.New(serve.Config{CacheBytes: -1}), client: newClient()}
	s.ts = httptest.NewServer(s.srv.Handler())
	s.decodeURL, s.xcodeURL = s.ts.URL+"/v1/decode", fmt.Sprintf("%s/v1/transcode?q=%d", s.ts.URL, xcodeQ)
	if err := s.client.waitReady(s.ts.URL); err != nil {
		s.stop()
		return nil, err
	}
	for i := 0; i < serveWarmOps; i++ {
		if err := s.do(i, false); err != nil {
			s.stop()
			return nil, fmt.Errorf("warm op %d: %w", i, err)
		}
	}
	return s, nil
}

func (s *serveInstance) do(i int, corrupt bool) error {
	c, xc := s.f.op(i)
	if xc {
		_, err := s.client.post(s.xcodeURL, c.stream, c.xcode, corrupt)
		return err
	}
	_, err := s.client.post(s.decodeURL, c.stream, c.raw, corrupt)
	return err
}

func (s *serveInstance) stop() {
	s.client.close()
	s.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: serve shutdown:", err)
	}
}

// serveDecodeBuffers are eclipse-serve's KPN decode buffer sizes
// (serveDecodeBuffers in internal/serve/job.go), so kpn.decode_ms times
// the same network the server runs.
var serveDecodeBuffers = eclipse.DecodeBuffers{Bits: 4096, Tok: 8192, Hdr: 2048, Coef: 8192, Resid: 8192, Pix: 8192}

// runJob submits a job to the server's scheduler, bypassing HTTP, and
// waits for its result.
func runJob(sched *serve.Scheduler, j *serve.Job) ([]byte, error) {
	if err := sched.Submit(j); err != nil {
		return nil, err
	}
	<-j.Done()
	res, err := j.Result()
	return res.Body, err
}

// layers replays the sequence on a fresh server. For each operation it
// times, one after another on the same input: the HTTP request, the
// same job submitted straight to the scheduler, and the offline kernels
// underneath (the KPN decode with the server's buffers, media.Decode,
// media.Encode). Differences attribute time to HTTP, the scheduler, KPN
// and the kernels.
func (f *serveFixture) layers(n int, out *sink) (attempted, failed int, err error) {
	inst, err := f.start()
	if err != nil {
		return 0, 0, err
	}
	s := inst.(*serveInstance)
	defer s.stop()
	sched, met := s.srv.Scheduler(), s.srv.Metrics()
	pool := media.NewSyncFramePool(256)
	const tenant = "default"
	var (
		httpDec, httpXc, jobDec, jobXc, kpnDec, medDec, medEnc []float64
		preempts, push, pull                                   uint64
	)
	var opFailed bool
	check := func(got, want []byte, err error, what string) bool {
		if err == nil && !bytes.Equal(got, want) {
			err = fmt.Errorf("%s differs from the offline codec", what)
		}
		if err != nil {
			opFailed = true
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
			return false
		}
		return true
	}
	replay := func(i int) {
		c, xc := f.op(i)
		p0, s0, l0 := met.Preemptions.Load(), met.XcodePushStalls.Load(), met.XcodePullStalls.Load()
		t0 := time.Now()
		err := s.do(i, false)
		d := ms(time.Since(t0))
		preempts += met.Preemptions.Load() - p0
		push += met.XcodePushStalls.Load() - s0
		pull += met.XcodePullStalls.Load() - l0
		if !check(nil, nil, err, "http op") {
			return
		}
		if xc {
			httpXc = append(httpXc, d)
			t0 = time.Now()
			j, err := serve.NewTranscodeJobSegmented(context.Background(), tenant, c.stream, xcodeQ, pool,
				sched.DecodeWorkersFor(tenant), sched.EncodeWorkers(), sched.TranscodeSegmentsFor(tenant), met)
			var body []byte
			if err == nil {
				body, err = runJob(sched, j)
			}
			if d := ms(time.Since(t0)); check(body, c.xcode, err, "transcode job") {
				jobXc = append(jobXc, d)
			}
			t0 = time.Now()
			enc, _, _, err := media.Encode(serve.TranscodeConfig(c.seq, xcodeQ), c.frames)
			if d := ms(time.Since(t0)); check(enc, c.xcode, err, "media.Encode") {
				medEnc = append(medEnc, d)
			}
			return
		}
		httpDec = append(httpDec, d)
		t0 = time.Now()
		j, err := serve.NewDecodeJob(context.Background(), tenant, c.stream, pool, sched.DecodeWorkersFor(tenant))
		var body []byte
		if err == nil {
			body, err = runJob(sched, j)
		}
		if d := ms(time.Since(t0)); check(body, c.raw, err, "decode job") {
			jobDec = append(jobDec, d)
		}
		t0 = time.Now()
		frames, err := eclipse.RunFunctionalDecode(c.stream, serveDecodeBuffers)
		if d := ms(time.Since(t0)); check(planes(frames), c.raw, err, "KPN decode") {
			kpnDec = append(kpnDec, d)
		}
		t0 = time.Now()
		ref, err := media.Decode(c.stream)
		d = ms(time.Since(t0))
		var got []byte
		if err == nil {
			got = planes(ref.DisplayFrames())
		}
		if check(got, c.raw, err, "media.Decode") {
			medDec = append(medDec, d)
		}
	}
	for i := 0; i < n; i++ {
		opFailed = false
		replay(i)
		attempted++
		if opFailed {
			failed++
		}
	}
	out.medianMs("serve.decode_ms", httpDec)
	out.medianMs("serve.transcode_ms", httpXc)
	out.medianMs("serve.job_decode_ms", jobDec)
	out.medianMs("serve.job_transcode_ms", jobXc)
	out.medianMs("kpn.decode_ms", kpnDec)
	out.medianMs("media.decode_ms", medDec)
	out.medianMs("media.encode_ms", medEnc)
	out.ratio("serve.preemptions_per_op", "count/op", float64(preempts), float64(n), "scheduler preemptions during HTTP ops")
	out.ratio("serve.xcode_push_stalls_per_op", "count/op", float64(push), float64(n), "decoder-side handoff stalls during HTTP ops")
	out.ratio("serve.xcode_pull_stalls_per_op", "count/op", float64(pull), float64(n), "encoder-side handoff stalls during HTTP ops")
	out.add("serve.xcode_peak_frames", "count", float64(met.XcodePeakFrames.Load()), "peak frames in flight in one transcode job")
	return attempted, failed, nil
}

// planes concatenates frames' luma planes, the decode response format.
func planes(frames []*media.Frame) []byte {
	var b []byte
	for _, f := range frames {
		b = append(b, f.Pix...)
	}
	return b
}
