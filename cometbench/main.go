// Command cometbench is the COMET engine benchmark. One invocation runs
// one workload from a single process, checks the program's outputs, and
// prints every metric by name, unit and sample count; the last line of
// standard output is a JSON object with the keys correct, attempted,
// failed and metrics.
//
//	bash cometbench/run.sh --workload corpus-c --seed 1 --seconds 50 --trace 0
//
// --trace 0 runs untraced and reports the end-to-end metrics listed in
// BENCHMARK.json; --trace 1 reports the per-layer metrics, from an
// untraced pass, a traced pass over the same inputs, and direct replay
// calls into each layer. The benchmark only calls the engine's public
// package functions; spans are recorded around those calls from this
// package, kept in memory, and written to .bench_build/traces at the end.
// Inputs come only from comet.GenerateBlocks(n, --seed).
//
// Workloads (the workloads table below holds the full provenance):
//
//	corpus-c  ExplainAll over generated blocks against analytical model C,
//	          paused ten times for slices of a warm re-run answered by the
//	          persist artifact store
//	serve     cometd over loopback HTTP: a closed-loop cold client, paused
//	          ten times for slices of an open-loop warm stream that calls
//	          the handler in process, alternating JSON and binary frames
//
// End-to-end metrics mean, on each workload:
//
//	explain_per_s   corpus-c: one ExplainAll's workers over its median
//	                per-explanation engine time; serve: 1 / the median
//	                cold round trip
//	cold_p50_ms     corpus-c: per-explanation engine time (Profile.Total);
//	                serve: cold HTTP round trip
//	certified_frac, coverage_mean, accuracy_c
//	                over the first (always completed) blocks; accuracy_c
//	                against analytical.Model.GroundTruth
//	success_frac    1 − failed/attempted
//	setup_s         median of several set-ups in the run
//
// Both explain_per_s definitions are medians because per-block cost is
// heavy-tailed: a few blocks per seed take 100× the median, so the plain
// rate of a 40-second run depends on which of them the seed draws (one
// ExplainAll's blocks/s spread 0.25-0.4 of the median over five seeds,
// with every windowed rate tried). The plain rate is printed in the note.
//
// warm_p50_us (corpus-c: ExplainContext answered by the artifact store,
// closed loop; serve: the service's HTTP handler called in process, open
// loop, from the due time; the mean over the warm set's blocks, for
// serve blocks and frame types, of each one's median) is reported with
// the per-layer metrics, and the untraced run still prints it: on serve
// its spread over ten seeds was 0.35 of the median with the host
// otherwise quiet (corpus-c: 0.05-0.08).
// cold_p90_ms, warm_p99_us and peak_rss_mb are reported with the
// per-layer metrics: on a shared 2-vCPU host their spread over seeds
// (cold p90 0.19-0.53 of the median, warm p99 0.25-11, RSS up to 2.2,
// the last from how many heavy-tailed blocks a seed draws) is beyond any
// bound a regression gate can use. Tail percentiles are the highest with
// at least ten samples beyond them, taken as the median over windows of
// the run.
//
// While a run measures, one SCHED_IDLE busy loop per CPU keeps the CPUs
// the workload leaves idle from halting (idle.go).
//
// Any correctness mismatch or failed operation marks the run incorrect,
// counts in the failed total, and makes the command exit non-zero.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// benchDir is where runs keep stores, traces and scratch files,
// relative to the repository root the benchmark runs from.
const benchDir = ".bench_build"

// workload is one benchmark input set: how it is generated and driven,
// and why it is in the benchmark.
type workload struct {
	name string
	// spec is the exact model spec the workload resolves.
	spec string
	// provenance records why the workload was chosen: the layers it
	// stresses and the ones it bypasses, its inputs, and its load shape.
	provenance string
	run        func(rc *runCtx) error
}

var workloads = []workload{
	{
		name: "corpus-c",
		spec: corpusC.spec,
		provenance: fmt.Sprintf("ExplainAll (library defaults: block workers = GOMAXPROCS, Parallelism 1 per block) "+
			"over GenerateBlocks(%d, seed) against analytical model C, the cheapest model: about half of each "+
			"explanation is Γ sampling, dependency graphs, the coverage pool and keying, so perturb/deps/features/"+
			"costmodel changes show here; C's closed-form ground truth (paper §6) scores accuracy_c. Bypasses wire, "+
			"service and HTTP. One ExplainAll runs until the first %d blocks (counts, quality) are done and the "+
			"deadline has passed; %d times through the run it is paused while one closed-loop caller re-runs the "+
			"first %d blocks warm (ExplainContext answered by the persist artifact store), %.0f%% of the run in all.",
			corpusC.pool, corpusC.quality, warmSlices, corpusWarmBlocks, warmShare*100),
		run: func(rc *runCtx) error { return runCorpus(rc, corpusC) },
	},
	{
		name: "serve",
		spec: serveSpec,
		provenance: fmt.Sprintf("service.New with a durable persist store, served over loopback HTTP in this "+
			"process: one closed-loop client sends cold explains of fresh blocks (model c) one at a time over "+
			"one connection (single-explanation latency, intra-explanation parallelism, store writes); %d times "+
			"through the run it pauses while one open-loop stream calls the service's HTTP handler in process, "+
			"repeating the first %d of those blocks at %.0f req/s alternating JSON and binary frames (the "+
			"wire/service/obs fast path the corpus workloads never touch), %.0f%% of the run in all. Latency is "+
			"timed from the due time.",
			warmSlices, serveDefault.warmBlocks, serveDefault.rate, warmShare*100),
		run: func(rc *runCtx) error { return runServe(rc, serveDefault) },
	},
}

// runCtx is one benchmark run's state and results.
type runCtx struct {
	seed    int64
	seconds time.Duration
	trace   bool
	dir     string // per-run scratch directory under benchDir
	rec     *recorder
	rep     report

	attempted  int
	failed     int
	mismatches []string
}

// op counts one attempted operation and, when err is non-nil, one
// failure.
func (rc *runCtx) op(err error) {
	rc.attempted++
	if err != nil {
		rc.failed++
		rc.mismatch("%v", err)
	}
}

// mismatch records a correctness failure (already counted by the
// caller as failed).
func (rc *runCtx) mismatch(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(rc.mismatches) < 20 {
		fmt.Fprintf(os.Stderr, "cometbench: %s\n", msg)
	}
	rc.mismatches = append(rc.mismatches, msg)
}

// check counts one correctness check.
func (rc *runCtx) check(ok bool, format string, args ...any) {
	rc.attempted++
	if !ok {
		rc.failed++
		rc.mismatch(format, args...)
	}
}

// benchmarkFile is the part of BENCHMARK.json the benchmark reads to
// check that a run reports exactly the metrics the file promises.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
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

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// expected returns the metric names and units a run in the given mode
// must report.
func (bf *benchmarkFile) expected(trace bool) map[string]string {
	out := make(map[string]string)
	list := bf.EndToEnd
	if trace {
		list = bf.PerLayer
	}
	for _, m := range list {
		out[m.Name] = m.Unit
	}
	return out
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 50, "measurement length in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics")
	)
	flag.Parse()
	bf, err := loadBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "cometbench: %v (run from the repository root)\n", err)
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "usage: cometbench --workload <%s> --seed N --seconds S --trace 0|1\n", workloadNames())
		return 2
	}
	dir, err := os.MkdirTemp(mustMkdir(filepath.Join(benchDir, "runs")), fmt.Sprintf("%s-seed%d-", wl.name, *seed))
	if err != nil {
		fmt.Fprintf(os.Stderr, "cometbench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(dir)

	rc := &runCtx{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, dir: dir}
	if rc.trace {
		rc.rec = newRecorder()
	}
	stopSpinners, spinners := startIdleSpinners(runtime.NumCPU())
	defer stopSpinners()
	fmt.Printf("cometbench %s seed=%d seconds=%g trace=%d GOMAXPROCS=%d idle-spinners=%d %s\n",
		wl.name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0), spinners, runtime.Version())
	fmt.Printf("  spec: %s\n  why:  %s\n", wl.spec, wl.provenance)

	calib := []float64{calibrate()}
	cpu0, cpuOK := readCPUStat()
	if err := wl.run(rc); err != nil {
		fmt.Fprintf(os.Stderr, "cometbench: %s: %v\n", wl.name, err)
		return 1
	}
	calib = append(calib, calibrate())
	rc.rep.set("bench.calib_ns", median(calib), "ns", len(calib),
		"fixed CPU loop, median of start and end of run; a drift signal, not a program metric")
	steal, note := 0.0, "no /proc/stat"
	if cpu1, ok := readCPUStat(); ok && cpuOK {
		steal, note = cpu1.stealFrac(cpu0), "hypervisor steal over all CPU time during the run (/proc/stat)"
	}
	rc.rep.set("bench.steal_frac", steal, "frac", 1, note)
	if rc.attempted == 0 {
		rc.attempted = 1
	}
	rc.rep.set("success_frac", 1-float64(rc.failed)/float64(rc.attempted), "frac", rc.attempted,
		"1 − failed/attempted; failed counts errors, non-2xx responses and correctness mismatches")

	if rc.trace {
		path, err := rc.rec.write(filepath.Join(benchDir, "traces"), fmt.Sprintf("%s-seed%d.json", wl.name, *seed))
		if err != nil {
			fmt.Fprintf(os.Stderr, "cometbench: %v\n", err)
			return 1
		}
		spans := rc.rec.snapshot()
		fmt.Printf("  spans: %d written to %s\n", len(spans), path)
		printLayers(selfTimes(spans))
	}
	if err := rc.rep.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "cometbench: %v\n", err)
		return 1
	}
	out, err := emit(&rc.rep, bf.expected(rc.trace))
	if err != nil {
		fmt.Fprintf(os.Stderr, "cometbench: %v\n", err)
		return 1
	}
	correct := rc.failed == 0
	line, err := json.Marshal(struct {
		Correct   bool                       `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    int                        `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}{correct, rc.attempted, rc.failed, out})
	if err != nil {
		fmt.Fprintf(os.Stderr, "cometbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		fmt.Fprintf(os.Stderr, "cometbench: %d of %d operations failed or mismatched\n", rc.failed, rc.attempted)
		return 1
	}
	return 0
}

// emit prints the human table of the metrics a mode reports and returns
// them as JSON values. Every expected metric must be present with the
// unit BENCHMARK.json gives it.
func emit(rep *report, want map[string]string) (map[string]json.RawMessage, error) {
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make(map[string]json.RawMessage, len(names))
	for _, name := range names {
		m, ok := rep.get(name)
		if !ok {
			return nil, fmt.Errorf("metric %s listed in BENCHMARK.json was not measured", name)
		}
		if m.Unit != want[name] {
			return nil, fmt.Errorf("metric %s: unit %s, BENCHMARK.json says %s", name, m.Unit, want[name])
		}
		fmt.Printf("  %-28s %16s %-6s n=%-6d %s\n", name, strconv.FormatFloat(m.Value, 'g', 8, 64), m.Unit, m.Samples, m.Note)
		raw, err := json.Marshal(struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}{m.Value, m.Unit})
		if err != nil {
			return nil, err
		}
		out[name] = raw
	}
	var extra []string
	for _, m := range rep.metrics {
		if _, ok := want[m.Name]; !ok {
			extra = append(extra, fmt.Sprintf("  %-28s %16s %-6s n=%-6d %s", m.Name,
				strconv.FormatFloat(m.Value, 'g', 8, 64), m.Unit, m.Samples, m.Note))
		}
	}
	if len(extra) > 0 {
		fmt.Println("  also measured, not reported in this mode:")
		fmt.Println(strings.Join(extra, "\n"))
	}
	return out, nil
}

func printLayers(layers []layerTime) {
	fmt.Printf("  %-34s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, l := range layers {
		fmt.Printf("  %-34s %8d %12.3f %12.3f\n", l.Name, l.Count, float64(l.TotalNS)/1e6, float64(l.SelfNS)/1e6)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, "|")
}

func mustMkdir(dir string) string {
	_ = os.MkdirAll(dir, 0o755) // MkdirTemp reports the failure
	return dir
}

// calibSink keeps the calibration loop from being optimized away.
var calibSink uint64

// calibrate times a fixed integer loop (median of seven) in
// nanoseconds. It does no work the program does; it moves only when the
// machine does, which separates drift from a code change.
func calibrate() float64 {
	times := make([]float64, 7)
	for i := range times {
		start := time.Now()
		x := uint64(0x9E3779B97F4A7C15)
		for j := 0; j < 1<<21; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			x *= 0xBF58476D1CE4E5B9
		}
		calibSink += x
		times[i] = float64(time.Since(start).Nanoseconds())
	}
	return median(times)
}

// peakRSSMB returns the process's peak resident set size in MB
// (VmHWM), falling back to the Go runtime's total obtained memory where
// /proc is unavailable.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// cpuStat is the aggregate CPU time line of /proc/stat, in ticks.
type cpuStat struct{ total, steal uint64 }

func readCPUStat() (cpuStat, bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuStat{}, false
	}
	var s cpuStat
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuStat{}, false
		}
		if i < 8 { // user..steal; guest time is already inside user
			s.total += v
		}
		if i == 7 {
			s.steal = v
		}
	}
	return s, true
}

func (s cpuStat) stealFrac(before cpuStat) float64 {
	if s.total <= before.total {
		return 0
	}
	return float64(s.steal-before.steal) / float64(s.total-before.total)
}

// jsonLine marshals v the way the service writes a JSON body (with a
// trailing newline), for byte comparisons against served responses.
func jsonLine(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
