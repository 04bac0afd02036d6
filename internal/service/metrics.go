package service

import (
	"runtime"
	"strconv"
	"sync/atomic"

	"github.com/comet-explain/comet/internal/obs"
	"github.com/comet-explain/comet/internal/persist"
	"github.com/comet-explain/comet/internal/version"
)

// metrics holds cometd's instruments, all declared in one obs.Registry
// that renders GET /metrics and feeds the /debug/history sampler:
// request counters by (route, status), per-route latency histograms,
// per-spec explanation latency and quality histograms, service-level
// counters, and gauges read from live structures at render time.
//
// The request hot path is allocation- and lock-free: each route's stats
// slot is resolved once at mux wiring time and caches its per-status
// counters, so observe is two atomic adds and a bucket search.
type metrics struct {
	reg    *obs.Registry
	routes []*routeStats // registration order, all wired in New

	requests obs.CounterVec   // route, code
	slow     obs.CounterVec   // route
	latency  obs.HistogramVec // route

	// Per-spec explanation telemetry, recorded wherever an explanation
	// is actually computed — sync request, local corpus job, worker
	// shard lease — and never on the coordinator's merge path, so cluster
	// runs count each explanation exactly once (on the process that
	// computed it). Cardinality is bounded by the model registry's entry
	// cap.
	explanationSeconds obs.HistogramVec
	precision          obs.HistogramVec // achieved Prec(F)
	coverage           obs.HistogramVec // achieved Cov(F)
	queries            obs.HistogramVec // perturbations per explanation
	violations         obs.CounterVec   // Certified == false
	qualitySamples     obs.CounterVec

	coalesced       *obs.Counter
	resultStoreHits *obs.Counter
	explanations    *obs.Counter
	predictions     *obs.Counter
	shardBlocks     *obs.Counter
	persistHits     *obs.Counter
	persistMisses   *obs.Counter
	storeErrors     *obs.Counter
	internHits      *obs.Counter // binary requests answered from the intern table (no decode)
	frameRequests   *obs.Counter // binary-framed request bodies decoded
	streamedResults *obs.Counter

	// Binary-ingestion counters (POST /v1/corpus upload mode).
	ingestBinaries *obs.Counter
	ingestSections *obs.Counter
	ingestBytes    *obs.Counter
	ingestBlocks   *obs.Counter
	ingestDeduped  *obs.Counter
	ingestSkipped  *obs.Counter
	ingestRejected *obs.Counter
}

// Latency buckets from 1ms to ~2min; explanations of big blocks on slow
// models legitimately take seconds.
var latencyBounds = []float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 120}

// Fraction buckets for precision/coverage in [0, 1]; the top buckets are
// dense because that is where the certification threshold lives.
var fractionBounds = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 1}

// Perturbation-count buckets: cheap anchors run tens of queries, hard
// blocks on tight thresholds run thousands.
var queryBounds = []float64{10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000}

func newMetrics() *metrics {
	reg := &obs.Registry{}
	m := &metrics{reg: reg}
	route, spec := []string{"route"}, []string{"spec"}
	m.requests = reg.Counter(obs.Desc{Name: "comet_requests_total",
		Help: "HTTP requests served, by route and status code.", Labels: []string{"route", "code"}})
	m.slow = reg.Counter(obs.Desc{Name: "comet_slow_requests_total",
		Help:   "Requests committed as outlier traces (latency over the slow threshold, or status >= 500), by route.",
		Labels: route, Series: []obs.Series{{Name: "outliers.rps"}}})
	m.latency = reg.Histogram(obs.Desc{Name: "comet_request_seconds", Help: "Request latency, by route.",
		Labels: route, Series: []obs.Series{
			{Name: "route.{route}.rps"},
			{Name: "route.{route}.p50_ms", Quantile: 0.50},
			{Name: "route.{route}.p99_ms", Quantile: 0.99},
		}}, latencyBounds)
	m.explanationSeconds = reg.Histogram(obs.Desc{Name: "comet_explanation_seconds",
		Help: "Computed-explanation wall time, by model spec (cache hits excluded).", Labels: spec}, latencyBounds)
	m.precision = reg.Histogram(obs.Desc{Name: "comet_explanation_precision",
		Help:   "Achieved precision Prec(F) of computed explanations, by model spec.",
		Labels: spec, Series: []obs.Series{{Name: "spec.{spec}.precision_mean", Mean: true}}}, fractionBounds)
	m.coverage = reg.Histogram(obs.Desc{Name: "comet_explanation_coverage",
		Help: "Achieved coverage Cov(F) of computed explanations (fraction of the coverage pool), by model spec.", Labels: spec}, fractionBounds)
	m.queries = reg.Histogram(obs.Desc{Name: "comet_explanation_queries",
		Help: "Cost-model queries (perturbations) issued per computed explanation, by model spec.", Labels: spec}, queryBounds)
	m.violations = reg.Counter(obs.Desc{Name: "comet_explanation_epsilon_violations_total",
		Help: "Computed explanations whose precision bound failed certification (Certified=false), by model spec.", Labels: spec})
	m.qualitySamples = reg.Counter(obs.Desc{Name: "comet_explanation_quality_samples_total",
		Help:   "Computed explanations feeding the quality histograms, by model spec.",
		Labels: spec, Series: []obs.Series{{Name: "spec.{spec}.explanations_rps"}}})

	counter := func(name, help, series string) *obs.Counter {
		d := obs.Desc{Name: name, Help: help}
		if series != "" {
			d.Series = []obs.Series{{Name: series}}
		}
		return reg.Counter(d).With()
	}
	m.coalesced = counter("comet_explain_coalesced_total", "Explain requests coalesced onto an identical in-flight computation.", "explain.coalesced_rps")
	m.resultStoreHits = counter("comet_result_store_hits_total", "Explain requests served from the explanation result store.", "")
	m.explanations = counter("comet_explanations_computed_total", "Explanations actually computed (not coalesced or cached).", "explain.computed_rps")
	m.predictions = counter("comet_predictions_served_total", "Blocks predicted through POST /v1/predict.", "")
	m.shardBlocks = counter("comet_shard_blocks_total", "Blocks explained on behalf of cluster coordinators through POST /v1/shard.", "")
	m.persistHits = counter("comet_persist_hits_total", "Explain requests served from the durable store.", "")
	m.persistMisses = counter("comet_persist_misses_total", "Durable-store lookups that fell through to computation.", "")
	m.storeErrors = counter("comet_store_errors_total", "Durable-store write or sync failures (requests are never failed on them).", "")
	m.internHits = counter("comet_intern_hits_total", "Binary explain requests answered from the intern table without decoding.", "")
	m.frameRequests = counter("comet_frame_requests_total", "Binary-framed request bodies decoded.", "")
	m.streamedResults = counter("comet_streamed_results_total", "Corpus results delivered over GET /v1/jobs/{id}/stream.", "")
	m.ingestBinaries = counter("comet_ingest_binaries_total", "ELF binaries ingested through POST /v1/corpus uploads.", "")
	m.ingestSections = counter("comet_ingest_sections_total", "Executable sections scanned during binary ingestion.", "")
	m.ingestBytes = counter("comet_ingest_bytes_total", "Code bytes decoded during binary ingestion.", "")
	m.ingestBlocks = counter("comet_ingest_blocks_total", "Unique basic blocks extracted during binary ingestion.", "")
	m.ingestDeduped = counter("comet_ingest_deduped_total", "Duplicate basic blocks dropped during binary ingestion.", "")
	m.ingestSkipped = counter("comet_ingest_skipped_total", "Instructions outside the modeled subset skipped during binary ingestion.", "")
	m.ingestRejected = counter("comet_ingest_rejected_total", "Binary uploads rejected (oversized or unextractable).", "")

	reg.GaugeVec(obs.Desc{Name: "comet_build_info", Help: "Build version and Go toolchain; the value is always 1.",
		Labels: []string{"version", "goversion"}},
		func(emit func(float64, ...string)) { emit(1, version.Version, runtime.Version()) })
	reg.Gauge(obs.Desc{Name: "comet_goroutines", Help: "Live goroutines.",
		Series: []obs.Series{{Name: "runtime.goroutines"}}},
		func() float64 { return float64(runtime.NumGoroutine()) })
	memStat := func(read func(*runtime.MemStats) float64) func() float64 {
		return func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return read(&ms)
		}
	}
	reg.Gauge(obs.Desc{Name: "comet_heap_bytes", Help: "Bytes of allocated heap objects.",
		Series: []obs.Series{{Name: "runtime.heap_bytes"}}},
		memStat(func(ms *runtime.MemStats) float64 { return float64(ms.HeapAlloc) }))
	reg.Gauge(obs.Desc{Name: "comet_gc_pause_seconds_total", Help: "Cumulative GC stop-the-world pause time."},
		memStat(func(ms *runtime.MemStats) float64 { return float64(ms.PauseTotalNs) / 1e9 }))
	reg.Gauge(obs.Desc{Name: "comet_gc_cycles_total", Help: "Completed GC cycles."},
		memStat(func(ms *runtime.MemStats) float64 { return float64(ms.NumGC) }))
	return m
}

// gauge declares an unlabeled gauge over an integer reader.
func gauge[T int | int64 | uint64](reg *obs.Registry, name, help, series string, read func() T) {
	d := obs.Desc{Name: name, Help: help}
	if series != "" {
		d.Series = []obs.Series{{Name: series}}
	}
	reg.Gauge(d, func() float64 { return float64(read()) })
}

// routeStats is one route's slot, resolved once when the mux is wired.
// Status codes index a fixed array (100–599) of counters resolved on a
// code's first use, so recording a request touches no shared lock and
// allocates nothing.
type routeStats struct {
	name     string
	requests obs.CounterVec
	codes    [500]atomic.Pointer[obs.Counter] // status code − 100
	latency  *obs.Histogram
}

// route registers (or returns) the stats slot for a route name. Called
// only while New wires the mux, never on the request path.
func (m *metrics) route(name string) *routeStats {
	for _, rs := range m.routes {
		if rs.name == name {
			return rs
		}
	}
	rs := &routeStats{name: name, requests: m.requests, latency: m.latency.With(name)}
	m.routes = append(m.routes, rs)
	return rs
}

// observe records one finished request.
func (rs *routeStats) observe(code int, seconds float64) {
	if code < 100 || code >= 600 {
		code = 599 // never drop a sample; 599 is the "invalid status" bucket
	}
	c := rs.codes[code-100].Load()
	if c == nil {
		c = rs.requests.With(rs.name, strconv.Itoa(code))
		rs.codes[code-100].Store(c)
	}
	c.Add(1)
	rs.latency.Observe(seconds)
}

// codeCount sums the route's requests over status codes [lo, hi).
func (rs *routeStats) codeCount(lo, hi int) uint64 {
	var n uint64
	for c := lo; c < hi; c++ {
		if ctr := rs.codes[c-100].Load(); ctr != nil {
			n += ctr.Load()
		}
	}
	return n
}

// observeExplanation records one computed explanation's wall time under
// its model spec.
func (m *metrics) observeExplanation(spec string, seconds float64) {
	m.explanationSeconds.With(spec).Observe(seconds)
}

// observeQuality records one computed explanation's quality signals
// under its model spec.
func (m *metrics) observeQuality(spec string, precision, coverage float64, queries int, certified bool) {
	m.precision.With(spec).Observe(precision)
	m.coverage.With(spec).Observe(coverage)
	m.queries.With(spec).Observe(float64(queries))
	violations := m.violations.With(spec) // created at zero: every spec renders one
	if !certified {
		violations.Add(1)
	}
	m.qualitySamples.With(spec).Add(1)
}

// declareMetrics declares the gauges read from the server's live
// structures; called once in New, after every structure exists.
func (s *Server) declareMetrics() {
	reg := s.metrics.reg
	gauge(reg, "comet_explain_inflight", "Explain computations holding a worker slot.", "queue.explain_inflight",
		func() int { return len(s.explainSlots) })
	gauge(reg, "comet_explain_waiting", "Explain requests waiting for a worker slot.", "queue.explain_waiting",
		s.explainWaiting.Load)
	gauge(reg, "comet_result_store_entries", "Explanations held by the result store.", "", s.results.len)
	gauge(reg, "comet_intern_entries", "Binary request frames held by the intern table.", "", s.intern.len)
	s.jobs.declareMetrics(reg)
	s.models.declareMetrics(reg)
	if s.coordinator != nil {
		s.declareClusterMetrics()
	}
	if s.store == nil {
		return
	}
	stat := func(name, help string, read func(persist.Stats) float64) {
		reg.Gauge(obs.Desc{Name: name, Help: help}, func() float64 { return read(s.store.Stats()) })
	}
	stat("comet_store_entries", "Live records in the durable store.",
		func(st persist.Stats) float64 { return float64(st.Entries) })
	stat("comet_store_live_bytes", "On-disk bytes of live durable-store records.",
		func(st persist.Stats) float64 { return float64(st.LiveBytes) })
	stat("comet_store_total_bytes", "On-disk bytes of every durable-store segment.",
		func(st persist.Stats) float64 { return float64(st.TotalBytes) })
	stat("comet_store_segments", "Durable-store segment files.",
		func(st persist.Stats) float64 { return float64(st.Segments) })
	stat("comet_store_hits_total", "Durable-store lookups that hit.",
		func(st persist.Stats) float64 { return float64(st.Hits) })
	stat("comet_store_misses_total", "Durable-store lookups that missed.",
		func(st persist.Stats) float64 { return float64(st.Misses) })
	stat("comet_store_puts_total", "Durable-store writes.",
		func(st persist.Stats) float64 { return float64(st.Puts) })
	stat("comet_store_corrupt_records_total", "Durable-store frames skipped as corrupt.",
		func(st persist.Stats) float64 { return float64(st.CorruptRecords) })
	stat("comet_store_evictions_total", "Durable-store entries dropped by compaction.",
		func(st persist.Stats) float64 { return float64(st.Evictions) })
	stat("comet_store_compactions_total", "Durable-store compaction passes.",
		func(st persist.Stats) float64 { return float64(st.Compactions) })
}
