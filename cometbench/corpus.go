package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	comet "github.com/comet-explain/comet"
	"github.com/comet-explain/comet/internal/analytical"
	"github.com/comet-explain/comet/internal/core"
	"github.com/comet-explain/comet/internal/costmodel"
	"github.com/comet-explain/comet/internal/persist"
	"github.com/comet-explain/comet/internal/wire"
	"github.com/comet-explain/comet/internal/x86"
)

// corpusWorkload sizes one corpus-* workload.
type corpusWorkload struct {
	spec string
	// quality is how many leading blocks every run explains whatever the
	// deadline: counts and quality guards are taken over exactly these,
	// so they repeat at a fixed seed.
	quality int
	// pool is the number of blocks generated from the seed; a run stops
	// early if it explains them all.
	pool int
	// setupReps is how many times a run sets up; setup_s is the median.
	setupReps int
	// cross are further model specs the traced run measures on the same
	// blocks and Γ samples: direct Predict calls, and the model's share
	// of one explanation's time.
	cross []crossModel
}

// crossModel is a model measured only in the traced run, under the
// metric prefix name.
type crossModel struct{ name, spec string }

// corpusC is the corpus-c workload. uica and a small Ithemal were
// corpus workloads of their own, but their per-block cost spans two
// orders of magnitude and a run explains only 10-40 blocks, so over
// seeds their explain_per_s spread 0.9 and 2.5 of the median; they are
// measured here as layers instead. The Ithemal spec pins every
// parameter (workers=1 included) so its weights do not depend on the
// machine.
var corpusC = corpusWorkload{spec: "c@hsw", quality: 96, pool: 1500, setupReps: 15, cross: zooCross}

// zooCross are the cross models of both workloads.
var zooCross = []crossModel{
	{"uica", "uica@hsw"},
	{"ithemal", "ithemal@hsw?data=42&embed=16&epochs=4&hidden=32&seed=1&train=400&workers=1"},
}

const (
	// corpusWarmBlocks is how many leading blocks the warm re-run
	// repeats, once ExplainAll has explained them.
	corpusWarmBlocks = 32
	// checkSample is how many blocks are re-explained sequentially to
	// check byte-identity with ExplainAll.
	checkSample = 2
	// crossBlocks is how many blocks each cross model explains.
	crossBlocks = 3
	// traceBlocks bounds the leading blocks the traced run's three
	// passes explain, so that the run stays within its time on a slow
	// host.
	traceBlocks = 48
)

// corpusEnv is a set-up corpus workload.
type corpusEnv struct {
	rm     *comet.ResolvedModel
	cfg    core.Config
	blocks []*x86.BasicBlock
}

// setupCorpus resolves (for ithemal: trains) the model and generates
// the corpus, setupReps times; it returns the last set-up and the
// median time.
func setupCorpus(w corpusWorkload, seed int64) (*corpusEnv, float64, int, error) {
	var env *corpusEnv
	times := make([]float64, 0, w.setupReps)
	for i := 0; i < w.setupReps; i++ {
		env = nil
		runtime.GC()
		start := time.Now()
		rm, err := comet.ResolveModelString(w.spec)
		if err != nil {
			return nil, 0, 0, err
		}
		blocks := comet.GenerateBlocks(w.pool, seed)
		cfg := core.DefaultConfig()
		cfg.Epsilon = rm.Epsilon
		env = &corpusEnv{rm: rm, cfg: cfg, blocks: blocks}
		times = append(times, time.Since(start).Seconds())
	}
	return env, median(times), len(times), nil
}

// coldRun is the outcome of one ExplainAll over a corpus.
type coldRun struct {
	expls   []*core.Explanation // by block index; nil where not run, failed or stopped
	ms      []float64           // engine wall time of each explanation, warm slices taken out, in ms
	wall    time.Duration       // until the last result
	paused  time.Duration       // of wall, in warm slices
	workers int                 // ExplainAll block workers
	rssMB   float64             // peak RSS once the first quality blocks were done
}

// errStopped aborts the blocks still in flight when a time-boxed corpus
// run is stopped.
var errStopped = errors.New("corpus run stopped at its deadline")

// stoppable is the model a corpus explainer queries: it forwards every
// call, and once stopped it aborts the querying explanation with
// errStopped at its next batch of model queries, so a block with a long
// query tail does not run on past the deadline. Every batch holds gate
// for reading; a warm slice holds it for writing, which parks the
// explanations at their next batch until the slice is over.
type stoppable struct {
	costmodel.BatchModel
	stopped atomic.Bool
	gate    sync.RWMutex
}

func (m *stoppable) PredictBatch(blocks []*x86.BasicBlock) []float64 {
	m.gate.RLock()
	defer m.gate.RUnlock()
	if m.stopped.Load() {
		costmodel.AbortQuery(errStopped)
	}
	return m.BatchModel.PredictBatch(blocks)
}

// interval is a span of wall time.
type interval struct{ from, to time.Time }

// paused returns how much of [from, to] the pauses cover.
func paused(from, to time.Time, pauses []interval) time.Duration {
	var d time.Duration
	for _, p := range pauses {
		if lo, hi := maxTime(from, p.from), minTime(to, p.to); hi.After(lo) {
			d += hi.Sub(lo)
		}
	}
	return d
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

// explainCorpus runs one ExplainAll with library defaults (workers =
// GOMAXPROCS) over blocks on a fresh explainer. Once the first quality
// blocks are done and the deadline has passed, it stops the run: the
// context it passes as CorpusOptions.Context is canceled, so blocks not
// yet started are skipped, and blocks in flight are aborted by the
// model wrapper and not counted. A zero deadline stops as soon as the
// quality blocks are done.
//
// With a warm re-run, warm slices are interleaved as its schedule
// directs, from the moment the first corpusWarmBlocks blocks are
// explained (a failure to open the warm set stops the run): each
// slice parks the explanations (stoppable's gate) and runs on the
// calling goroutine, and its length is taken out of the wall time of
// every explanation it overlapped, so the cold times count only the
// engine's own work.
func explainCorpus(rc *runCtx, model costmodel.Model, cfg core.Config, blocks []*x86.BasicBlock, quality int, deadline time.Time,
	warm *corpusWarm) *coldRun {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sm := &stoppable{BatchModel: costmodel.AsBatch(model)}
	c := &coldRun{expls: make([]*core.Explanation, len(blocks)), workers: min(runtime.GOMAXPROCS(0), len(blocks))}
	start := time.Now()
	var qualityDone atomic.Bool
	stop := func() {
		sm.stopped.Store(true)
		cancel()
	}
	timer := time.AfterFunc(time.Until(deadline), func() {
		if qualityDone.Load() {
			stop()
		}
	})
	defer timer.Stop()
	// Index is called as a worker starts a block: it records the
	// start, from which the warm slices' overlap is taken.
	starts := make([]time.Time, len(blocks))
	results := core.NewExplainer(sm, cfg).ExplainAll(blocks, core.CorpusOptions{Context: ctx,
		Index: func(i int) int { starts[i] = time.Now(); return i }})
	var (
		pauses    []interval
		sliceDue  <-chan time.Time
		left      = quality
		warmN     = min(corpusWarmBlocks, quality)
		warmLeft  = warmN
		sliceWait *time.Timer
	)
	for {
		var res core.CorpusResult
		var ok bool
		select {
		case res, ok = <-results:
		case <-sliceDue:
			sm.gate.Lock()
			from := time.Now()
			warm.set.run(warm.sched.slice)
			to := time.Now()
			sm.gate.Unlock()
			pauses = append(pauses, interval{from, to})
			warm.sched.ranSlice(to.Sub(from))
			c.paused += to.Sub(from)
			sliceWait.Reset(time.Until(warm.sched.next))
			continue
		}
		if !ok {
			break
		}
		if errors.Is(res.Err, errStopped) {
			continue
		}
		rc.op(res.Err)
		if res.Err == nil {
			c.expls[res.Index] = res.Explanation
		}
		if res.Index < quality {
			if left--; left == 0 {
				c.rssMB = peakRSSMB()
				qualityDone.Store(true)
			}
		}
		if warm != nil && res.Index < warmN {
			if warmLeft--; warmLeft == 0 {
				if warm.set, warm.err = warm.open(c.expls[:warmN]); warm.err == nil {
					sliceWait = time.NewTimer(time.Until(warm.sched.next))
					defer sliceWait.Stop()
					sliceDue = sliceWait.C
				} else {
					stop()
				}
			}
		}
		if left <= 0 && !time.Now().Before(deadline) {
			stop()
		}
	}
	c.wall = time.Since(start)
	for i, e := range c.expls {
		if e != nil && e.Profile != nil {
			d := e.Profile.Total - paused(starts[i], starts[i].Add(e.Profile.Total), pauses)
			c.ms = append(c.ms, float64(d)/float64(time.Millisecond))
		}
	}
	return c
}

// qualityGuards reports certified_frac, coverage_mean and accuracy_c
// over explanations of blocks. accuracy_c is the paper's §6 accuracy,
// scored against analytical model C's closed-form ground truth, which
// is independent of the engine.
func qualityGuards(rc *runCtx, arch x86.Arch, blocks []*x86.BasicBlock, sets []*core.Explanation, note string) {
	c := analytical.New(arch)
	var cert, acc, n float64
	var cov []float64
	for i, e := range sets {
		if e == nil {
			continue
		}
		n++
		if e.Certified {
			cert++
		}
		cov = append(cov, e.Coverage)
		gt, err := c.GroundTruth(blocks[i])
		rc.op(err)
		if err == nil && core.Accurate(e.Features, gt) {
			acc++
		}
	}
	if n == 0 {
		n = 1
	}
	rc.rep.set("certified_frac", cert/n, "frac", int(n), note)
	rc.rep.set("coverage_mean", mean(cov), "frac", len(cov), note)
	rc.rep.set("accuracy_c", acc/n, "frac", int(n), note+"; vs analytical.Model.GroundTruth")
}

// normalizedJSON is an explanation's wire bytes with the cache
// accounting zeroed: cache hits depend on what a shared prediction
// cache already held, every other field must match exactly.
func normalizedJSON(e *core.Explanation) ([]byte, error) {
	w := wire.FromExplanation(e)
	w.CacheHits, w.ModelCalls = 0, 0
	return json.Marshal(w)
}

// cheapest returns the indices of the k explanations with the fewest
// queries (ties by index), a deterministic sample that keeps the
// sequential re-check short on heavy-tailed models.
func cheapest(expls []*core.Explanation, k int) []int {
	var idx []int
	for i, e := range expls {
		if e != nil {
			idx = append(idx, i)
		}
	}
	sort.SliceStable(idx, func(a, b int) bool { return expls[idx[a]].Queries < expls[idx[b]].Queries })
	return idx[:min(k, len(idx))]
}

// checkSequential re-explains a sample of corpus blocks one at a time
// with ExplainContext, WithSeed(BlockSeed(seed, i)) and the per-block
// Parallelism ExplainAll uses, on a fresh explainer, and requires the
// result to be byte-identical to the ExplainAll one.
func checkSequential(rc *runCtx, env *corpusEnv, expls []*core.Explanation) {
	for _, i := range cheapest(expls, checkSample) {
		ex := core.NewExplainer(env.rm.Model, env.cfg)
		got, err := ex.ExplainContext(context.Background(), env.blocks[i],
			core.WithSeed(core.BlockSeed(env.cfg.Seed, i)), core.WithParallelism(1))
		if err != nil {
			rc.op(fmt.Errorf("sequential re-explain of block %d: %w", i, err))
			continue
		}
		a, errA := normalizedJSON(got)
		b, errB := normalizedJSON(expls[i])
		rc.check(errA == nil && errB == nil && bytes.Equal(a, b),
			"block %d: ExplainAll result differs from sequential ExplainContext:\n  corpus     %s\n  sequential %s", i, b, a)
	}
}

// corpusWarm is the warm re-run a cold corpus run interleaves: its
// schedule, and how to open the warm set once the blocks it repeats are
// explained.
type corpusWarm struct {
	sched *warmSchedule
	open  func(expls []*core.Explanation) (*warmSet, error)
	set   *warmSet
	err   error // from open
}

// warmSet re-explains already-explained blocks on an explainer whose
// durable persist artifact store answers before any computation: the
// warm path of a corpus re-run. Calls are closed loop, one at a time,
// round robin over the set. The first pass is checked (each answer must
// equal the block's cold explanation byte for byte) but not timed.
type warmSet struct {
	rc      *runCtx
	env     *corpusEnv
	store   *persist.Log
	es      *persist.ExplainerStore
	wex     *core.Explainer
	idx     []int
	refs    [][]byte
	calls   int
	lat     []float64   // timed latencies in µs, in call order
	byBlock [][]float64 // the same, by position in idx
}

// openWarmSet stores the non-nil explanations of expls (indexed like
// env.blocks) in a fresh durable store.
func openWarmSet(rc *runCtx, env *corpusEnv, expls []*core.Explanation) (*warmSet, error) {
	store, err := persist.Open(filepath.Join(rc.dir, "store"), persist.Options{})
	if err != nil {
		return nil, err
	}
	w := &warmSet{rc: rc, env: env, store: store, es: persist.NewExplainerStore(store, env.rm.Spec.String()),
		wex: core.NewExplainer(env.rm.Model, env.cfg)}
	for i, e := range expls {
		if e == nil {
			continue
		}
		w.es.Store(w.wex.EffectiveConfig(core.WithSeed(core.BlockSeed(env.cfg.Seed, i)), core.WithParallelism(1)), e)
		ref, err := json.Marshal(wire.FromExplanation(e))
		if err != nil {
			store.Close()
			return nil, err
		}
		w.idx = append(w.idx, i)
		w.refs = append(w.refs, ref)
	}
	if len(w.idx) == 0 {
		store.Close()
		return nil, fmt.Errorf("no explanations to re-run warm")
	}
	w.wex.SetArtifactStore(w.es)
	w.byBlock = make([][]float64, len(w.idx))
	return w, nil
}

// run makes warm calls for dur.
func (w *warmSet) run(dur time.Duration) {
	ctx := context.Background()
	start := time.Now()
	for {
		t0 := time.Now()
		if t0.Sub(start) >= dur {
			return
		}
		j := w.calls % len(w.idx)
		i := w.idx[j]
		sp := w.rc.rec.begin("core.ExplainContext.warm", 0)
		got, err := w.wex.ExplainContext(ctx, w.env.blocks[i], core.WithSeed(core.BlockSeed(w.env.cfg.Seed, i)), core.WithParallelism(1))
		el := time.Since(t0)
		sp.end()
		first := w.calls < len(w.idx)
		w.calls++
		if err == nil && first {
			var b []byte
			if b, err = json.Marshal(wire.FromExplanation(got)); err == nil && !bytes.Equal(b, w.refs[j]) {
				err = fmt.Errorf("block %d: warm artifact-store answer differs from the cold explanation", i)
			}
		}
		w.rc.op(err)
		if err == nil && !first {
			us := float64(el) / float64(time.Microsecond)
			w.lat = append(w.lat, us)
			w.byBlock[j] = append(w.byBlock[j], us)
		}
	}
}

// close closes the store, requires that no call missed it, and returns
// its hit fraction.
func (w *warmSet) close() float64 {
	hits, misses := w.es.Counters()
	w.store.Close()
	w.rc.check(misses == 0, "%d warm requests missed the artifact store and were recomputed", misses)
	return float64(hits) / float64(max(hits+misses, 1))
}

func runCorpus(rc *runCtx, w corpusWorkload) error {
	env, setupS, reps, err := setupCorpus(w, rc.seed)
	if err != nil {
		return err
	}
	fmt.Printf("  corpus: %d blocks generated, quality set %d, setup %.3fs (median of %d)\n",
		len(env.blocks), w.quality, setupS, reps)
	if rc.trace {
		return traceCorpus(rc, w, env)
	}
	rc.rep.set("setup_s", setupS, "s", reps, "model resolve/train + corpus generation, median")

	warm := &corpusWarm{sched: newWarmSchedule(rc.seconds),
		open: func(expls []*core.Explanation) (*warmSet, error) { return openWarmSet(rc, env, expls) }}
	cold := explainCorpus(rc, env.rm.Model, env.cfg, env.blocks, w.quality, time.Now().Add(rc.seconds), warm)
	if warm.err != nil {
		return warm.err
	}
	if warm.set == nil {
		return errors.New("the corpus run ended before the warm set was explained")
	}
	warm.set.run(warm.sched.owed())
	warm.set.close()
	done := countNonNil(cold.expls)
	rc.rep.set("explain_per_s", float64(cold.workers)*1000/median(cold.ms), "1/s", len(cold.ms),
		fmt.Sprintf("one ExplainAll, %d workers: workers / median per-explanation engine time; %d blocks in %.2fs, %.2f/s overall",
			cold.workers, done, (cold.wall-cold.paused).Seconds(), float64(done)/(cold.wall-cold.paused).Seconds()))
	note := "per-explanation engine wall time (Profile.Total, warm slices taken out) inside ExplainAll"
	setTail(rc, "cold_p50_ms", cold.ms, 0.5, "ms", note)
	setTail(rc, "cold_p90_ms", cold.ms, 0.9, "ms", note)
	qualityGuards(rc, env.rm.Model.Arch(), env.blocks[:w.quality], cold.expls[:w.quality],
		fmt.Sprintf("first %d blocks", w.quality))

	note = fmt.Sprintf("warm corpus re-run of the first %d blocks in %d slices through the run: ExplainContext answered "+
		"by the persist artifact store, closed loop, one call at a time", len(warm.set.idx), warmSlices)
	rc.rep.set("warm_p50_us", meanOfMedians(warm.set.byBlock), "us", len(warm.set.lat),
		"mean over the blocks of the block's median; "+note)
	setTail(rc, "warm_p99_us", warm.set.lat, 0.99, "us", note)
	checkSequential(rc, env, cold.expls[:w.quality])
	return nil
}

// setTail records a median, or a tail percentile as windowedTail
// estimates it, with the percentile actually used (lowered to the
// highest one with minBeyond samples above it).
func setTail(rc *runCtx, name string, xs []float64, q float64, unit, note string) {
	if q <= 0.5 {
		rc.rep.set(name, median(xs), unit, len(xs), "median; "+note)
		return
	}
	v, used, windows := windowedTail(xs, q)
	rc.rep.set(name, v, unit, len(xs), fmt.Sprintf("p%.1f, median of %d windows; %s", used*100, windows, note))
}

// traceCorpus is the per-layer run of a corpus workload over its
// quality set: an untraced pass (memory, allocations), a traced pass
// (stage split, counts), a second untraced pass (with the first, the
// reference for the tracing overhead), a traced warm re-run, the cross
// models, and the layer replay. Every pass is one ExplainAll with
// library defaults.
func traceCorpus(rc *runCtx, w corpusWorkload, env *corpusEnv) error {
	blocks := env.blocks[:min(w.quality, traceBlocks)]

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	plain := explainCorpus(rc, env.rm.Model, env.cfg, blocks, len(blocks), time.Time{}, nil)
	runtime.ReadMemStats(&m1)
	rc.rep.set("peak_rss_mb", plain.rssMB, "MB", 1, fmt.Sprintf("VmHWM after the untraced pass over the first %d blocks", len(blocks)))
	n := float64(countNonNil(plain.expls))
	rc.rep.set("core.allocs_per_explain", float64(m1.Mallocs-m0.Mallocs)/n, "count", int(n), "untraced pass, process-wide")
	rc.rep.set("core.alloc_bytes_per_explain", float64(m1.TotalAlloc-m0.TotalAlloc)/n, "B", int(n), "untraced pass, process-wide")

	// The traced pass runs between two untraced ones and is compared
	// with their mean: on a shared host, passes run one after the other
	// differed by up to 20% from drift alone.
	var sp openSpan
	tm := newTimedModel(env.rm.Model, rc.rec, func() int64 { return sp.id })
	sp = rc.rec.begin("core.ExplainAll", 0)
	traced := explainCorpus(rc, tm, env.cfg, blocks, len(blocks), time.Time{}, nil)
	sp.end()
	plain2 := explainCorpus(rc, env.rm.Model, env.cfg, blocks, len(blocks), time.Time{}, nil)

	split := stageSplit(rc, traced.expls, len(blocks), time.Duration(tm.busyNS.Load()), traced.wall, traced.workers,
		"traced pass, mean per explanation")
	ref := (plain.wall + plain2.wall) / 2
	rc.rep.set("bench.trace_overhead_frac", traced.wall.Seconds()/ref.Seconds()-1, "frac", int(n),
		fmt.Sprintf("traced %.3fs vs untraced %.3fs (mean of the passes before and after) on the same blocks",
			traced.wall.Seconds(), ref.Seconds()))
	untraced := mean(append(append([]float64(nil), plain.ms...), plain2.ms...))
	rc.rep.set("bench.split_gap_frac", split/untraced-1, "frac", int(n),
		fmt.Sprintf("traced setup+coverage+search %.2fms vs untraced Profile.Total %.2fms per explanation", split, untraced))

	ws, err := openWarmSet(rc, env, plain.expls[:min(corpusWarmBlocks, len(blocks))])
	if err != nil {
		return err
	}
	ws.run(time.Duration(float64(rc.seconds) * warmShare))
	hitFrac, wlat := ws.close(), ws.lat
	rc.rep.set("bench.lateness_p99_ms", 0, "ms", len(wlat), "the warm re-run is closed loop: no generator to run late")
	setTail(rc, "warm_p99_us", wlat, 0.99, "us", "traced warm corpus re-run")
	rc.rep.set("warm_p50_us", meanOfMedians(ws.byBlock), "us", len(wlat),
		"traced warm corpus re-run, mean over the blocks of the block's median")
	setTail(rc, "cold_p90_ms", plain.ms, 0.9, "ms", "untraced pass, Profile.Total")
	rc.rep.set("service.result_hit_frac", hitFrac, "frac", len(wlat), "library path: persist artifact-store hits over warm calls")
	rc.rep.set("service.rejected_frac", 0, "frac", len(wlat), "library path has no admission control")

	checkSequential(rc, env, plain.expls)
	cross, err := crossModels(rc, w.cross, env.cfg, blocks, plain.expls)
	if err != nil {
		return err
	}
	return replay(rc, env.rm.Model, env.cfg, blocks, plain.expls, cross)
}

// crossModels resolves the cross models and reports, for each, the
// model's share of explanation time over the crossBlocks blocks whose
// workload explanations took the fewest queries, explained through the
// timing wrapper.
func crossModels(rc *runCtx, cross []crossModel, base core.Config, blocks []*x86.BasicBlock, expls []*core.Explanation) ([]namedModel, error) {
	var out []namedModel
	pick := cheapest(expls, crossBlocks)
	for _, cm := range cross {
		rm, err := comet.ResolveModelString(cm.spec)
		if err != nil {
			return nil, err
		}
		cfg := base
		cfg.Epsilon = rm.Epsilon
		var total time.Duration
		var queries int
		var sp openSpan
		tm := newTimedModel(rm.Model, rc.rec, func() int64 { return sp.id })
		for _, i := range pick {
			sp = rc.rec.begin("core.ExplainContext."+cm.name, 0)
			e, err := core.NewExplainer(tm, cfg).ExplainContext(context.Background(), blocks[i], core.WithSeed(core.BlockSeed(cfg.Seed, i)))
			sp.end()
			rc.op(err)
			if err == nil {
				total += e.Profile.Total
				queries += e.Queries
			}
		}
		rc.rep.set(cm.name+".model_busy_frac", float64(tm.busyNS.Load())/float64(max(total, 1)), "frac", len(pick),
			fmt.Sprintf("%s: time inside the model over explanation time, %d blocks, %d queries", cm.spec, len(pick), queries))
		out = append(out, namedModel{cm.name, rm.Model})
	}
	return out, nil
}

// stageSplit reports the engine's stage split and counts from traced
// explanations: stage times are means over all of expls, counts over
// the first q (the blocks every run completes, so they repeat exactly
// at a fixed seed). busy is the time inside the timing model, and the
// explanations ran on workers workers for wall. It returns the mean
// setup+coverage+search time in ms, for comparison with untraced runs.
func stageSplit(rc *runCtx, expls []*core.Explanation, q int, busy, wall time.Duration, workers int, note string) float64 {
	var setup, coverage, search, model, precision, total time.Duration
	var queries, calls, hits, batches, n, nq int
	for i, e := range expls {
		if e == nil || e.Profile == nil {
			continue
		}
		p := e.Profile
		n++
		setup += p.Setup
		coverage += p.Coverage
		search += p.Search
		model += p.Model
		precision += p.Precision
		total += p.Total
		if i < q {
			nq++
			queries += e.Queries
			calls += e.ModelCalls
			hits += e.CacheHits
			batches += p.Batches
		}
	}
	if n == 0 {
		return 0
	}
	per := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) / float64(n) }
	rc.rep.set("core.setup_ms", per(setup), "ms", n, note)
	rc.rep.set("core.coverage_ms", per(coverage), "ms", n, note)
	rc.rep.set("core.sampling_ms", per(precision-model), "ms", n, note+"; Profile.Precision − Profile.Model")
	rc.rep.set("anchors.bookkeeping_ms", per(search-precision), "ms", n, note+"; Profile.Search − Profile.Precision")
	rc.rep.set("model.busy_ms", per(busy), "ms", n, note+"; inside the timing BatchCostModel")
	rc.rep.set("costmodel.overhead_ms", per(model-busy), "ms", n, note+"; Profile.Model − model.busy_ms")
	rc.rep.set("core.worker_idle_frac", 1-float64(total)/(float64(wall)*float64(workers)), "frac", n,
		fmt.Sprintf("1 − ΣProfile.Total / (wall × %d workers)", workers))
	cnote := fmt.Sprintf("first %d explanations", nq)
	nq = max(nq, 1)
	rc.rep.set("anchors.queries_per_explain", float64(queries)/float64(nq), "count", nq, cnote)
	rc.rep.set("model.calls_per_explain", float64(calls)/float64(nq), "count", nq, cnote+"; Explanation.ModelCalls")
	rc.rep.set("model.batches_per_explain", float64(batches)/float64(nq), "count", nq, cnote+"; Profile.Batches")
	rc.rep.set("costmodel.hit_frac", float64(hits)/float64(max(queries, 1)), "frac", nq, cnote+"; cache + in-batch dedup hits over queries")
	return per(setup) + per(coverage) + per(search)
}

// tailValue is tailQuantile without the percentile used.
func tailValue(xs []float64, q float64) float64 {
	v, _ := tailQuantile(xs, q)
	return v
}

func countNonNil(expls []*core.Explanation) int {
	n := 0
	for _, e := range expls {
		if e != nil {
			n++
		}
	}
	return n
}

var _ costmodel.BatchModel = (*timedModel)(nil)
