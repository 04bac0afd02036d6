package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/comet-explain/comet/internal/core"
	"github.com/comet-explain/comet/internal/wire"
)

func TestTailQuantile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: the helper must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n          int
		q          float64
		want, used float64
	}{
		{1000, 0.99, 990, 0.99},  // exactly 10 samples above rank 990
		{2000, 0.99, 1980, 0.99}, // 20 above
		{500, 0.99, 490, 0.98},   // lowered: only 10 may lie beyond
		{100, 0.9, 90, 0.9},
		{50, 0.9, 40, 0.8},
		{101, 0.5, 51, 51.0 / 101},
		{5, 0.99, 3, 0.6}, // too few for any tail: the median
	} {
		v, used := tailQuantile(seq(tc.n), tc.q)
		if v != tc.want || used != tc.used {
			t.Errorf("tailQuantile(n=%d, q=%v) = %v (p%v), want %v (p%v)", tc.n, tc.q, v, used, tc.want, tc.used)
		}
		if beyond := tc.n - int(v); tc.n > minBeyond && beyond < minBeyond {
			t.Errorf("n=%d q=%v: only %d samples beyond the reported value", tc.n, tc.q, beyond)
		}
	}
}

func TestWindowedTail(t *testing.T) {
	xs := make([]float64, 3000)
	for i := range xs {
		xs[i] = float64(i % 1000) // three identical windows of 0..999
	}
	for i := 0; i < 50; i++ {
		xs[i] = 1e6 // a burst inside the first window only
	}
	v, used, windows := windowedTail(xs, 0.99)
	if windows != 3 || used != 0.99 || v != 989 {
		t.Errorf("windowedTail = %v (p%v, %d windows), want 989 (p0.99, 3 windows)", v, used, windows)
	}
	if v, _ := tailQuantile(xs, 0.99); v != 1e6 {
		t.Errorf("unwindowed p99 = %v: the test burst should dominate it", v)
	}
	if v, _, windows := windowedTail(xs[:1500], 0.99); windows != 1 {
		t.Errorf("1500 samples: %d windows (value %v), want one window", windows, v)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
}

func TestMeanOfMedians(t *testing.T) {
	// Two inputs, one three times as costly: the median of all samples
	// jumps between the modes as the mix shifts by one sample, the mean
	// of per-input medians does not move.
	a := [][]float64{{100, 101, 102}, {300, 301, 302, 303}}
	b := [][]float64{{100, 101, 102, 103}, {300, 301, 302}}
	if got := meanOfMedians(a); got != (101+301.5)/2 {
		t.Errorf("meanOfMedians = %v", got)
	}
	if da, db := meanOfMedians(a), meanOfMedians(b); math.Abs(da-db) > 1 {
		t.Errorf("mean of medians moved from %v to %v with the mix", da, db)
	}
	if got := meanOfMedians([][]float64{nil, {5}}); got != 5 {
		t.Errorf("empty groups must be skipped: %v", got)
	}
}

func TestPausedOverlap(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	pauses := []interval{{at(10), at(20)}, {at(50), at(60)}, {at(90), at(100)}}
	for _, tc := range []struct {
		from, to int
		want     time.Duration
	}{
		{0, 5, 0},
		{0, 15, 5 * time.Millisecond},
		{15, 55, 10 * time.Millisecond},
		{0, 200, 30 * time.Millisecond},
		{20, 50, 0},
	} {
		if got := paused(at(tc.from), at(tc.to), pauses); got != tc.want {
			t.Errorf("paused(%d, %d) = %v, want %v", tc.from, tc.to, got, tc.want)
		}
	}
}

func TestOpenLoopStatsFromDueTime(t *testing.T) {
	ms := time.Millisecond
	samples := []olSample{
		{Due: 0, Start: 0, End: 1 * ms},
		{Due: 5 * ms, Start: 5 * ms, End: 20 * ms},   // a stall
		{Due: 10 * ms, Start: 20 * ms, End: 21 * ms}, // sent 10ms late behind it
		{Due: 15 * ms, Start: 21 * ms, End: 22 * ms, Err: errors.New("boom")},
	}
	lat, late, failed := openLoopStats(samples)
	if want := []float64{1000, 15000, 11000}; fmt.Sprint(lat) != fmt.Sprint(want) {
		t.Errorf("latencies = %v µs, want %v (timed from the due time, failures excluded)", lat, want)
	}
	if want := []float64{0, 0, 10, 6}; fmt.Sprint(late) != fmt.Sprint(want) {
		t.Errorf("lateness = %v ms, want %v", late, want)
	}
	if failed != 1 {
		t.Errorf("failed = %d, want 1", failed)
	}
}

func TestOpenLoopCarriesBacklog(t *testing.T) {
	const rate = 200.0 // 5ms apart
	stall := 30 * time.Millisecond
	samples := openLoop(rate, 100*time.Millisecond, 0, func(k int) error {
		if k == 1 {
			time.Sleep(stall)
		}
		return nil
	})
	if len(samples) != 20 {
		t.Fatalf("sent %d requests in 100ms at 200/s, want 20 (open loop sends on schedule)", len(samples))
	}
	for k, s := range samples {
		if s.Due != time.Duration(k)*5*time.Millisecond {
			t.Fatalf("request %d due at %v", k, s.Due)
		}
		if s.Start < s.Due {
			t.Fatalf("request %d sent %v before it was due", k, s.Due-s.Start)
		}
	}
	// Request 2 was due 10ms in but could only go out after the 30ms
	// stall: its lateness and its latency both carry the backlog.
	if late := samples[2].Lateness(); late < stall-10*time.Millisecond {
		t.Errorf("request 2 lateness %v, want ≥ %v", late, stall-10*time.Millisecond)
	}
	if lat := samples[2].Latency(); lat < samples[2].Lateness() {
		t.Errorf("request 2 latency %v shorter than its lateness %v", lat, samples[2].Lateness())
	}
}

func TestNameValidation(t *testing.T) {
	for _, ok := range []string{"cold_p50_ms", "core.setup_ms", "corpus-c", "9lives", "a"} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "-x", "a b", "a/b", "p99%", "ü", strings.Repeat("a", 65)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
	for _, ok := range []string{"ms", "1/s", "count", "%", "frac", "MB"} {
		if !validUnit(ok) {
			t.Errorf("validUnit(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "µs", "ms ", strings.Repeat("s", 17)} {
		if validUnit(bad) {
			t.Errorf("validUnit(%q) = true", bad)
		}
	}
	var r report
	r.set("bad name", 1, "ms", 1, "")
	if r.validate() == nil {
		t.Error("report with an invalid metric name validated")
	}
}

// TestBenchmarkFile checks BENCHMARK.json against the contract the
// benchmark is run under and against this program's workload table.
func TestBenchmarkFile(t *testing.T) {
	bf, err := loadBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, list := range [][]struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}{bf.EndToEnd, bf.PerLayer} {
		for _, m := range list {
			if !validName(m.Name) || !validUnit(m.Unit) || seen[m.Name] {
				t.Errorf("metric %q (unit %q) is invalid or repeated", m.Name, m.Unit)
			}
			seen[m.Name] = true
		}
	}
	if !seen["setup_s"] {
		t.Error("BENCHMARK.json lacks setup_s")
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || !validName(w.Name) {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
}

// smokeRun runs one workload at a tiny size in both modes and requires
// every metric BENCHMARK.json lists for the mode, a clean correctness
// record, and at least one check.
func smokeRun(t *testing.T, name string, run func(rc *runCtx) error) {
	t.Helper()
	bf, err := loadBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, trace := range []bool{false, true} {
		rc := &runCtx{seed: 3, seconds: 300 * time.Millisecond, trace: trace, dir: t.TempDir()}
		if trace {
			rc.rec = newRecorder()
		}
		if err := run(rc); err != nil {
			t.Fatalf("%s trace=%v: %v", name, trace, err)
		}
		rc.rep.set("bench.calib_ns", calibrate(), "ns", 1, "")
		rc.rep.set("bench.steal_frac", 0, "frac", 1, "")
		rc.rep.set("success_frac", 1, "frac", 1, "")
		if rc.failed != 0 || rc.attempted == 0 {
			t.Fatalf("%s trace=%v: %d of %d operations failed: %v", name, trace, rc.failed, rc.attempted, rc.mismatches)
		}
		if err := rc.rep.validate(); err != nil {
			t.Fatal(err)
		}
		devnull, err := os.Open(os.DevNull)
		if err != nil {
			t.Fatal(err)
		}
		stdout := os.Stdout
		os.Stdout = devnull
		_, err = emit(&rc.rep, bf.expected(trace))
		os.Stdout = stdout
		devnull.Close()
		if err != nil {
			t.Errorf("%s trace=%v: %v", name, trace, err)
		}
		if trace {
			path, err := rc.rec.write(t.TempDir(), "trace.json")
			if err != nil {
				t.Fatal(err)
			}
			if st, err := os.Stat(path); err != nil || st.Size() == 0 {
				t.Errorf("trace file %s not written: %v", path, err)
			}
		}
	}
}

// tinyCross are cross models small enough for a unit test: the same
// zoo models as production, with a tiny Ithemal.
var tinyCross = []crossModel{
	{"uica", "uica@hsw"},
	{"ithemal", "ithemal@hsw?embed=4&epochs=1&hidden=4&seed=1&train=20&workers=1"},
}

func TestSmokeCorpusC(t *testing.T) {
	smokeRun(t, "corpus-c", func(rc *runCtx) error {
		return runCorpus(rc, corpusWorkload{spec: "c@hsw", quality: 4, pool: 6, setupReps: 1, cross: tinyCross})
	})
}

func TestSmokeServe(t *testing.T) {
	smokeRun(t, "serve", func(rc *runCtx) error {
		return runServe(rc, serveWorkload{quality: 4, warmBlocks: 2, pool: 12, setupReps: 1, rate: 200, cross: tinyCross})
	})
}

// TestChecksCatchMismatch feeds the correctness checks outputs that
// differ from what the program produces and requires each to fail.
func TestChecksCatchMismatch(t *testing.T) {
	w := corpusWorkload{spec: "c@hsw", quality: 2, pool: 2, setupReps: 1}
	env, _, _, err := setupCorpus(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	rc := &runCtx{seed: 3, seconds: time.Millisecond, dir: t.TempDir()}
	cold := explainCorpus(rc, env.rm.Model, env.cfg, env.blocks, 2, time.Time{}, nil)
	tampered := append([]*core.Explanation(nil), cold.expls...)
	for i, e := range tampered {
		c := *e
		c.Precision += 0.125
		tampered[i] = &c
	}
	checkSequential(rc, env, tampered)
	if rc.failed != checkSample {
		t.Errorf("sequential check flagged %d of %d tampered explanations", rc.failed, checkSample)
	}

	ref, err := jsonLine(wire.FromExplanation(cold.expls[0]))
	if err != nil {
		t.Fatal(err)
	}
	frame, err := wire.EncodeBinary(wire.FromExplanation(cold.expls[1]))
	if err != nil {
		t.Fatal(err)
	}
	if checkFrame(frame, ref) == nil {
		t.Error("checkFrame accepted a binary response of another explanation")
	}
	same, err := wire.EncodeBinary(wire.FromExplanation(cold.expls[0]))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkFrame(same, ref); err != nil {
		t.Errorf("checkFrame rejected a matching response: %v", err)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "child", Start: 30, End: 60},  // overlaps 2
		{ID: 4, Parent: 1, Name: "child", Start: 90, End: 120}, // runs past the parent
	}
	got := map[string]layerTime{}
	for _, l := range selfTimes(spans) {
		got[l.Name] = l
	}
	if r := got["root"]; r.SelfNS != 100-50-10 || r.TotalNS != 100 {
		t.Errorf("root = %+v, want self 40 of 100", r)
	}
	if c := got["child"]; c.Count != 3 || c.SelfNS != 30+30+30 {
		t.Errorf("child = %+v", c)
	}
}
