package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	comet "github.com/comet-explain/comet"
	"github.com/comet-explain/comet/internal/core"
	"github.com/comet-explain/comet/internal/costmodel"
	"github.com/comet-explain/comet/internal/persist"
	"github.com/comet-explain/comet/internal/service"
	"github.com/comet-explain/comet/internal/wire"
	"github.com/comet-explain/comet/internal/x86"
)

const serveSpec = "c@hsw"

// serveWorkload sizes the serve workload.
type serveWorkload struct {
	// quality is how many cold requests every run completes whatever
	// the deadline; counts and quality guards are taken over exactly
	// these, so they repeat at a fixed seed.
	quality int
	// warmBlocks is how many of the first cold requests the warm stream
	// repeats once the cold phase has explained them (at most quality).
	warmBlocks int
	// pool is the number of blocks generated from the seed.
	pool      int
	setupReps int
	// rate is the warm stream's open-loop rate, well below saturation:
	// at under a tenth of a millisecond a call, the stream keeps the
	// handler busy a few percent of the time.
	rate float64
	// cross are the models the traced run measures as layers.
	cross []crossModel
}

var serveDefault = serveWorkload{quality: 64, warmBlocks: 32, pool: 1000, setupReps: 15, rate: 400, cross: zooCross}

// serveEnv is one running cometd behind a loopback listener, with the
// cold client's connection and the handler the warm stream calls in
// process.
type serveEnv struct {
	srv       *service.Server
	store     *persist.Log
	handler   http.Handler
	http      *http.Server
	served    chan error
	base      string
	cold      *http.Client
	closeOnce sync.Once
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// startServe opens a durable store under dir, builds the service,
// warms model c (or registers model under it), and serves it on a
// loopback port.
func startServe(dir string, model costmodel.Model, epsilon float64) (*serveEnv, error) {
	store, err := persist.Open(dir, persist.Options{})
	if err != nil {
		return nil, err
	}
	srv := service.New(service.Config{
		DefaultModel: "c",
		Store:        store,
		Logger:       slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	fail := func(err error) (*serveEnv, error) {
		_ = srv.Shutdown(context.Background())
		store.Close()
		return nil, err
	}
	if model != nil {
		srv.RegisterModel("c", model.Arch(), model, epsilon)
	} else if err := srv.WarmModel(serveSpec, "hsw"); err != nil {
		return fail(err)
	}
	srv.SetReady()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	h := srv.Handler()
	e := &serveEnv{srv: srv, store: store, handler: h, http: &http.Server{Handler: h}, served: make(chan error, 1),
		base: "http://" + ln.Addr().String(), cold: newClient()}
	go func() { e.served <- e.http.Serve(ln) }()
	resp, err := e.cold.Get(e.base + "/healthz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: status %d", resp.StatusCode)
		}
	}
	if err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// close stops the listener, drains the service and closes the store,
// waiting for the serving goroutine to exit. Later calls do nothing.
func (e *serveEnv) close() {
	e.closeOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = e.http.Shutdown(ctx) // the drain below bounds what is left
		<-e.served
		_ = e.srv.Shutdown(ctx)
		e.cold.CloseIdleConnections()
		e.store.Close()
	})
}

// setEncoding sets an explain request's content type and, for binary
// frames, asks for a binary answer.
func setEncoding(req *http.Request, binary bool) {
	if binary {
		req.Header.Set("Content-Type", wire.FrameContentType)
		req.Header.Set("Accept", wire.FrameContentType)
	} else {
		req.Header.Set("Content-Type", "application/json")
	}
}

// post sends one explain request and returns the status and body.
func post(c *http.Client, url string, body []byte, binary bool) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	setEncoding(req, binary)
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// local sends one explain request straight to the service's HTTP
// handler, in process, and returns the status and body. Over loopback
// TCP most of a warm round trip was the host's network stack and the
// wake-ups between the two vCPUs, and its median followed hypervisor
// steal (290-490 µs over ten seeds on a shared 2-vCPU host, against
// 38-43 µs for the library's warm path in the same runs).
func (e *serveEnv) local(body []byte, binary bool) (int, []byte) {
	req := httptest.NewRequest(http.MethodPost, "/v1/explain", bytes.NewReader(body))
	setEncoding(req, binary)
	rec := httptest.NewRecorder()
	e.handler.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// scrape reads the public /metrics endpoint into series → value.
func (e *serveEnv) scrape() (map[string]float64, error) {
	resp, err := e.cold.Get(e.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// serveCounters are the /metrics deltas the benchmark reports.
type serveCounters struct {
	explains, resultHits, internHits, rejected float64
}

func counters(m map[string]float64) serveCounters {
	var c serveCounters
	for k, v := range m {
		if !strings.HasPrefix(k, `comet_requests_total{route="explain",`) {
			continue
		}
		c.explains += v
		if strings.HasSuffix(k, `code="429"}`) || strings.HasSuffix(k, `code="503"}`) {
			c.rejected += v
		}
	}
	c.resultHits = m["comet_result_store_hits_total"]
	c.internHits = m["comet_intern_hits_total"]
	return c
}

func (c serveCounters) sub(o serveCounters) serveCounters {
	return serveCounters{c.explains - o.explains, c.resultHits - o.resultHits, c.internHits - o.internHits, c.rejected - o.rejected}
}

// coldReq is one cold explain request of the closed-loop client.
type coldReq struct {
	block *x86.BasicBlock
	seed  int64
	body  []byte
}

func makeColdReq(b *x86.BasicBlock, seed int64) (coldReq, error) {
	body, err := json.Marshal(&wire.ExplainRequest{Block: b.String(), Model: "c",
		Config: &wire.ConfigOverrides{Seed: seed}})
	return coldReq{block: b, seed: seed, body: body}, err
}

// warmReq is one already-explained block in both encodings, with the
// JSON body every answer must reproduce.
type warmReq struct {
	jsonBody, frameBody, ref []byte
}

// warmCells is the number of (block, frame type) cells of a warm
// stream over n blocks.
func warmCells(n int) int { return 2 * n }

// coldPhase is the outcome of the closed-loop cold client.
type coldPhase struct {
	rssMB  float64             // peak RSS once the first p.quality requests completed
	ms     []float64           // round-trip latencies, in request order
	bodies [][]byte            // response bodies, in request order
	expls  []*wire.Explanation // parsed responses, in request order
	errs   []error
	wall   time.Duration // cold requests only: warm slices are left out
}

// serveWarm is the warm stream a cold phase interleaves: its schedule,
// the warm set once the cold phase has explained its blocks, and the
// samples sent so far.
type serveWarm struct {
	sched   *warmSchedule
	set     []warmReq
	samples []olSample
	err     error // from priming the warm set
}

// coldLoop sends cold explains one at a time until at least p.quality
// have completed and dur has passed. With a recorder every round trip
// is an "http.explain.cold" span, and cur holds the span in flight so
// model spans can name it as their parent. With a warm stream, once the
// first p.warmBlocks requests are answered their blocks become the warm
// set, and warm slices run between cold requests as its schedule
// directs (a failure to prime the warm set ends the phase).
func (e *serveEnv) coldLoop(p serveWorkload, reqs []coldReq, dur time.Duration, profile bool, rec *recorder, cur *atomic.Int64,
	warm *serveWarm) coldPhase {
	var c coldPhase
	url := e.base + "/v1/explain"
	if profile {
		url += "?profile=1"
	}
	start := time.Now()
	var warmTime time.Duration
	for i, r := range reqs {
		if i >= p.quality && time.Since(start) > dur {
			break
		}
		if warm != nil && warm.set != nil && warm.sched.due() {
			t := time.Now()
			warm.samples = append(warm.samples, e.warmLoop(p, warm.set, warm.sched.slice, nil, len(warm.samples))...)
			warm.sched.ranSlice(time.Since(t))
			warmTime += time.Since(t)
		}
		sp := rec.begin("http.explain.cold", 0)
		if cur != nil {
			cur.Store(sp.id)
		}
		t0 := time.Now()
		code, body, err := post(e.cold, url, r.body, false)
		el := time.Since(t0)
		sp.end()
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("cold explain: status %d: %s", code, bytes.TrimSpace(body))
		}
		var expl *wire.Explanation
		if err == nil {
			expl = new(wire.Explanation)
			if err = json.Unmarshal(body, expl); err != nil {
				expl = nil
			}
		}
		c.errs = append(c.errs, err)
		c.bodies = append(c.bodies, body)
		c.expls = append(c.expls, expl)
		c.ms = append(c.ms, float64(el)/float64(time.Millisecond))
		if i+1 == p.quality {
			c.rssMB = peakRSSMB()
		}
		if warm != nil && i+1 == p.warmBlocks {
			if warm.set, warm.err = e.prime(reqs[:p.warmBlocks]); warm.err != nil {
				break
			}
		}
	}
	c.wall = time.Since(start) - warmTime
	return c
}

// warmLoop runs the open-loop warm stream for dur, from request base
// on, alternating JSON and binary frames over the warm set; every answer
// must reproduce the block's first JSON body. Request k goes to cell k
// mod warmCells(len(warm)): block (k/2) mod len(warm), binary when k is
// odd.
func (e *serveEnv) warmLoop(p serveWorkload, warm []warmReq, dur time.Duration, rec *recorder, base int) []olSample {
	return openLoop(p.rate, dur, base, func(k int) error {
		cell := k % warmCells(len(warm))
		r := warm[cell/2]
		binary := cell%2 == 1
		body := r.jsonBody
		if binary {
			body = r.frameBody
		}
		sp := rec.begin("http.explain.warm", 0)
		code, resp := e.local(body, binary)
		sp.end()
		if code != http.StatusOK {
			return fmt.Errorf("warm explain: status %d", code)
		}
		if binary {
			return checkFrame(resp, r.ref)
		}
		if !bytes.Equal(resp, r.ref) {
			return fmt.Errorf("warm JSON response differs from the first answer:\n got %s\nwant %s", resp, r.ref)
		}
		return nil
	})
}

// checkFrame requires a binary response, decoded, to equal the JSON
// body of the same explanation.
func checkFrame(frame, ref []byte) error {
	msg, err := wire.DecodeBinary(frame)
	if err != nil {
		return fmt.Errorf("warm binary response: %w", err)
	}
	got, err := jsonLine(msg)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, ref) {
		return fmt.Errorf("warm binary response decodes to\n %s\nnot the JSON body\n %s", got, ref)
	}
	return nil
}

// serveInputs generates the run's cold requests, one per block.
func serveInputs(p serveWorkload, seed int64) ([]coldReq, error) {
	var out []coldReq
	for i, b := range comet.GenerateBlocks(p.pool, seed) {
		r, err := makeColdReq(b, core.BlockSeed(seed, i))
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// prime fetches one JSON answer for each block of an already-explained
// set and returns the warm requests with those reference bodies.
func (e *serveEnv) prime(set []coldReq) ([]warmReq, error) {
	out := make([]warmReq, len(set))
	for i, r := range set {
		code, body := e.local(r.body, false)
		if code != http.StatusOK {
			return nil, fmt.Errorf("priming warm block %d: status %d", i, code)
		}
		var req wire.ExplainRequest
		if err := json.Unmarshal(r.body, &req); err != nil {
			return nil, err
		}
		frame, err := wire.EncodeBinary(&req)
		if err != nil {
			return nil, err
		}
		out[i] = warmReq{jsonBody: r.body, frameBody: frame, ref: body}
	}
	return out, nil
}

// setupServe starts the service p.setupReps times, keeping the last
// one, and returns it with the median set-up time: block generation,
// store open, service construction, model warm-up, listener and a
// health probe.
func setupServe(rc *runCtx, p serveWorkload) (*serveEnv, []coldReq, float64, error) {
	var (
		env   *serveEnv
		cold  []coldReq
		times []float64
	)
	for i := 0; i < p.setupReps; i++ {
		if env != nil {
			env.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if cold, err = serveInputs(p, rc.seed); err != nil {
			return nil, nil, 0, err
		}
		if env, err = startServe(filepath.Join(rc.dir, fmt.Sprintf("store-%d", i)), nil, 0); err != nil {
			return nil, nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return env, cold, median(times), nil
}

// runServe runs the serve workload. The cold client and the warm stream
// take turns, never run at once: on a 2-vCPU machine concurrent warm
// latency measured scheduler contention that varied with the cold
// blocks (IQR 59% of the median over five seeds) rather than the warm
// path. The warm stream repeats the first cold requests, so its
// reference answers are also checked against the cold ones.
func runServe(rc *runCtx, p serveWorkload) error {
	env, cold, setupS, err := setupServe(rc, p)
	if err != nil {
		return err
	}
	defer env.close()
	fmt.Printf("  serve: %s, cold closed loop (1 client), then warm open loop over the first %d blocks at %.0f req/s; setup %.3fs\n",
		env.base, p.warmBlocks, p.rate, setupS)
	if rc.trace {
		return traceServe(rc, p, env, cold)
	}
	rc.rep.set("setup_s", setupS, "s", p.setupReps, "block generation + store open + service.New + warm-up + listen + healthz, median")

	warm := &serveWarm{sched: newWarmSchedule(rc.seconds)}
	c := env.coldLoop(p, cold, rc.seconds, false, nil, nil, warm)
	if warm.err != nil {
		return warm.err
	}
	if warm.set == nil {
		return errors.New("the cold phase ended before the warm set was explained")
	}
	warm.samples = append(warm.samples, env.warmLoop(p, warm.set, warm.sched.owed(), nil, len(warm.samples))...)
	for i, w := range warm.set {
		rc.check(bytes.Equal(w.ref, c.bodies[i]), "warm block %d: first warm answer differs from the cold one:\n warm %s\n cold %s",
			i, w.ref, c.bodies[i])
	}
	ws := warm.samples
	for _, err := range c.errs {
		rc.op(err)
	}
	for _, s := range ws {
		rc.op(s.Err)
	}
	// Memory is read after the fixed quality set: the time-boxed rest
	// would charge a faster engine for the extra requests it serves.
	rc.rep.set("peak_rss_mb", c.rssMB, "MB", 1, fmt.Sprintf("VmHWM after the first %d cold requests", p.quality))
	rc.rep.set("explain_per_s", 1000/median(c.ms), "1/s", len(c.ms),
		fmt.Sprintf("cold closed loop: 1 / median round trip; %d explanations in %.2fs, %.2f/s overall",
			len(c.ms), c.wall.Seconds(), float64(len(c.ms))/c.wall.Seconds()))
	setTail(rc, "cold_p50_ms", c.ms, 0.5, "ms", "cold HTTP explain round trip")
	setTail(rc, "cold_p90_ms", c.ms, 0.9, "ms", "cold HTTP explain round trip")
	cells := warmCells(len(warm.set))
	timed := pastFirstPass(ws, cells)
	rc.rep.set("warm_p50_us", meanOfMedians(warmCellLatencies(timed, cells)), "us", len(timed), fmt.Sprintf(
		"mean over %d (block, frame type) cells of the cell's median in-process warm handler call from its due time; "+
			"open loop %.0f/s in %d slices through the run, JSON and binary alternating", cells, p.rate, warmSlices))
	lat, _, _ := openLoopStats(timed)
	setTail(rc, "warm_p99_us", lat, 0.99, "us", "in-process warm handler call from its due time")
	blocks, expls := servedQuality(rc, p, cold, c)
	qualityGuards(rc, x86.Haswell, blocks, expls, fmt.Sprintf("first %d cold requests", p.quality))
	return checkServedCold(rc, p, cold, c)
}

// pastFirstPass drops the first pass over the warm cells, which is
// checked but not timed: its requests meet caches the cold phase just
// evicted.
func pastFirstPass(ws []olSample, cells int) []olSample {
	var out []olSample
	for _, s := range ws {
		if s.K >= cells {
			out = append(out, s)
		}
	}
	return out
}

// warmCellLatencies groups a warm stream's successful latencies, in µs,
// by cell (request k is in cell k mod cells).
func warmCellLatencies(ws []olSample, cells int) [][]float64 {
	out := make([][]float64, cells)
	for _, s := range ws {
		if s.Err == nil {
			out[s.K%cells] = append(out[s.K%cells], float64(s.Latency())/float64(time.Microsecond))
		}
	}
	return out
}

// servedQuality converts the quality set's served explanations back to
// library values.
func servedQuality(rc *runCtx, p serveWorkload, cold []coldReq, c coldPhase) ([]*x86.BasicBlock, []*core.Explanation) {
	n := min(p.quality, len(c.expls))
	blocks := make([]*x86.BasicBlock, n)
	expls := make([]*core.Explanation, n)
	for i := 0; i < n; i++ {
		blocks[i] = cold[i].block
		if c.expls[i] == nil {
			continue
		}
		e, err := c.expls[i].Core()
		rc.op(err)
		expls[i] = e
	}
	return blocks, expls
}

// checkServedCold requires a sample of served cold explanations to be
// byte-identical to the library path for the same spec, block and
// config: ExplainContext with the server's per-request options (the
// model's ε, Parallelism 1, the request seed). The served cache
// accounting reflects the server's shared prediction cache, so it is
// zeroed on both sides.
func checkServedCold(rc *runCtx, p serveWorkload, cold []coldReq, c coldPhase) error {
	rm, err := comet.ResolveModelString(serveSpec)
	if err != nil {
		return err
	}
	n := min(p.quality, len(c.expls))
	expls := make([]*core.Explanation, n)
	for i := 0; i < n; i++ {
		if c.expls[i] != nil {
			expls[i], _ = c.expls[i].Core()
		}
	}
	for _, i := range cheapest(expls, checkSample) {
		lib, err := core.NewExplainer(rm.Model, core.DefaultConfig()).ExplainContext(context.Background(), cold[i].block,
			core.WithEpsilon(rm.Epsilon), core.WithParallelism(1), core.WithSeed(cold[i].seed))
		if err != nil {
			rc.op(fmt.Errorf("library explain of served block %d: %w", i, err))
			continue
		}
		want, errA := normalizedJSON(lib)
		served := *c.expls[i]
		served.CacheHits, served.ModelCalls, served.Profile = 0, 0, nil
		got, errB := json.Marshal(&served)
		rc.check(errA == nil && errB == nil && bytes.Equal(got, want),
			"cold request %d: served explanation differs from the library path:\n  served  %s\n  library %s", i, got, want)
	}
	return nil
}

// traceServe is the per-layer run of the serve workload: an untraced
// cold phase, then a traced cold phase on a fresh service over the same
// requests and a traced warm stream, then the layer replay over the
// served blocks. Like the corpus trace, it completes at least the first
// traceBlocks requests per phase, not the whole quality set.
func traceServe(rc *runCtx, p serveWorkload, env *serveEnv, cold []coldReq) error {
	p.quality = min(p.quality, traceBlocks)
	warmDur := time.Duration(float64(rc.seconds) * warmShare)
	coldDur := (rc.seconds - warmDur) / 2
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	plain := env.coldLoop(p, cold, coldDur, false, nil, nil, nil)
	runtime.ReadMemStats(&m1)
	env.close()
	rc.rep.set("peak_rss_mb", plain.rssMB, "MB", 1, fmt.Sprintf("VmHWM after the first %d cold requests", p.quality))
	nPlain := float64(len(plain.ms))
	rc.rep.set("core.allocs_per_explain", float64(m1.Mallocs-m0.Mallocs)/nPlain, "count", len(plain.ms),
		"untraced cold phase, process-wide (server and client) per cold explanation")
	rc.rep.set("core.alloc_bytes_per_explain", float64(m1.TotalAlloc-m0.TotalAlloc)/nPlain, "B", len(plain.ms),
		"untraced cold phase, process-wide per cold explanation")

	rm, err := comet.ResolveModelString(serveSpec)
	if err != nil {
		return err
	}
	var cur atomic.Int64
	tm := newTimedModel(rm.Model, rc.rec, cur.Load)
	tenv, err := startServe(filepath.Join(rc.dir, "store-traced"), tm, rm.Epsilon)
	if err != nil {
		return err
	}
	defer tenv.close()
	before, err := tenv.scrape()
	if err != nil {
		return err
	}
	busy0 := tm.busyNS.Load()
	traced := tenv.coldLoop(p, cold[:len(plain.ms)], coldDur, true, rc.rec, &cur, nil)
	warm, err := tenv.prime(cold[:p.warmBlocks])
	if err != nil {
		return err
	}
	runtime.GC()
	ws := tenv.warmLoop(p, warm, warmDur, rc.rec, 0)
	after, err := tenv.scrape()
	if err != nil {
		return err
	}
	for _, errs := range [][]error{plain.errs, traced.errs} {
		for _, err := range errs {
			rc.op(err)
		}
	}
	for _, s := range ws {
		rc.op(s.Err)
	}

	expls := make([]*core.Explanation, len(traced.expls))
	for i, w := range traced.expls {
		if w != nil {
			expls[i], err = profiled(w)
			rc.op(err)
		}
	}
	if countNonNil(expls) == 0 {
		return errors.New("traced phase completed no cold explanation")
	}
	split := stageSplit(rc, expls, p.quality, time.Duration(tm.busyNS.Load()-busy0), traced.wall, 1,
		"traced cold phase, served ?profile=1, mean per explanation")
	common := min(len(plain.ms), len(traced.ms))
	pm, tmean := mean(plain.ms[:common]), mean(traced.ms[:common])
	rc.rep.set("bench.trace_overhead_frac", tmean/pm-1, "frac", common,
		fmt.Sprintf("mean cold round trip traced %.2fms vs untraced %.2fms over the same %d requests", tmean, pm, common))
	rc.rep.set("bench.split_gap_frac", split/pm-1, "frac", common,
		fmt.Sprintf("traced setup+coverage+search %.2fms vs untraced cold round trip %.2fms", split, pm))
	timed := pastFirstPass(ws, warmCells(len(warm)))
	wlat, late, _ := openLoopStats(timed)
	rc.rep.set("warm_p50_us", meanOfMedians(warmCellLatencies(timed, warmCells(len(warm)))), "us", len(timed),
		"traced in-process warm handler stream, mean over (block, frame type) cells of the cell's median")
	rc.rep.set("bench.lateness_p99_ms", tailValue(late, 0.99), "ms", len(late), "warm open-loop generator lateness")
	setTail(rc, "warm_p99_us", wlat, 0.99, "us", "traced in-process warm handler stream, from the due time")
	setTail(rc, "cold_p90_ms", plain.ms, 0.9, "ms", "untraced cold phase, HTTP round trip")
	d := counters(after).sub(counters(before))
	rc.rep.set("service.result_hit_frac", d.resultHits/max(d.explains, 1), "frac", int(d.explains),
		fmt.Sprintf("/metrics result-store hits (intern hits %.0f are a subset) over explain requests", d.internHits))
	rc.rep.set("service.rejected_frac", d.rejected/max(d.explains, 1), "frac", int(d.explains), "/metrics explain 429+503 over explain requests")

	if err := checkServedCold(rc, p, cold, plain); err != nil {
		return err
	}
	blocks, expls := servedQuality(rc, p, cold, traced)
	cfg := core.ApplyOptions(core.DefaultConfig(), core.WithEpsilon(rm.Epsilon))
	cross, err := crossModels(rc, p.cross, cfg, blocks, expls)
	if err != nil {
		return err
	}
	return replay(rc, rm.Model, cfg, blocks, expls, cross)
}

// profiled converts a served explanation, with the profile the wire
// form carries in microseconds, back to a library value.
func profiled(w *wire.Explanation) (*core.Explanation, error) {
	e, err := w.Core()
	if err != nil || w.Profile == nil {
		return e, err
	}
	p, us := w.Profile, func(v int64) time.Duration { return time.Duration(v) * time.Microsecond }
	e.Profile = &core.Profile{Setup: us(p.SetupUS), Coverage: us(p.CoverageUS), Search: us(p.SearchUS),
		Model: us(p.ModelUS), Precision: us(p.PrecisionUS), Store: us(p.StoreUS), Total: us(p.TotalUS),
		Queries: p.Queries, CacheHits: p.CacheHits, ModelCalls: p.ModelCalls, Batches: p.Batches}
	return e, nil
}
