package service

// Telemetry history wiring: the background sampler (obs.History)
// snapshots the series declared with the metric registry's instruments
// (see metrics.go), plus the derived series below, and GET
// /debug/history serves the retained windows — locally, or federated
// across the cluster with ?cluster=1.
//
// Series names are dot-paths grouped by subsystem so clients (comet-top)
// can select by prefix:
//
//	route.<r>.rps            requests per second, plus .rps_2xx/.rps_4xx/.rps_5xx
//	route.<r>.p50_ms/.p99_ms per-tick latency quantiles (gap when idle)
//	hit_rate.*               per-tick cache hit fractions (prediction_cache,
//	                         intern, persist, result_store)
//	queue.*                  explain wait/inflight depth, corpus job queue
//	jobs.running             corpus jobs executing
//	runtime.*                goroutines, heap bytes
//	explain.*                computed and coalesced explanations per second
//	outliers.rps             slow/5xx traces committed per second
//	spec.<spec>.*            per-model-spec explanation rate and per-tick
//	                         mean precision (registered as specs appear)
//
// Every reader is a handful of atomic loads; the sampler's tick cost is
// independent of request volume.

import (
	"fmt"
	"net/http"
	"time"

	"github.com/comet-explain/comet/internal/obs"
)

// registerHistory wires the history: the registry offers its declared
// series before every tick (so per-spec series appear with their
// specs), and the derived series — status-class rates and hit ratios,
// which combine several instruments — are registered here. Called once
// in New, after the mux (and therefore every route's stats slot) is
// built.
func (s *Server) registerHistory() {
	h := s.history
	h.BeforeSample = func() { s.metrics.reg.Offer(h) }
	for _, rs := range s.metrics.routes {
		for _, class := range []int{2, 4, 5} {
			lo := class * 100
			h.Rate(fmt.Sprintf("route.%s.rps_%dxx", rs.name, class),
				func() float64 { return float64(rs.codeCount(lo, lo+100)) })
		}
	}
	m := s.metrics
	h.Value("hit_rate.prediction_cache", ratioSeries(
		func() uint64 { hits, _ := s.models.cacheTotals(); return hits },
		func() uint64 { hits, misses := s.models.cacheTotals(); return hits + misses },
	))
	h.Value("hit_rate.intern", ratioSeries(
		m.internHits.Load,
		// Every binary frame request consults the intern table: hits answer
		// from it, misses go on to decode (frameRequests).
		func() uint64 { return m.internHits.Load() + m.frameRequests.Load() },
	))
	h.Value("hit_rate.persist", ratioSeries(
		m.persistHits.Load,
		func() uint64 { return m.persistHits.Load() + m.persistMisses.Load() },
	))
	h.Value("hit_rate.result_store", ratioSeries(m.resultStoreHits.Load, m.route("explain").latency.Count))
}

// ratioSeries returns a value reader computing num-delta / den-delta per
// tick — a windowed hit rate over a pair of monotonic counters. Ticks
// with no denominator traffic (and the baseline-priming first tick) are
// gaps, not zeros.
func ratioSeries(num, den func() uint64) func() (float64, bool) {
	var prevNum, prevDen uint64
	first := true
	return func() (float64, bool) {
		n, d := num(), den()
		dn, dd := n-prevNum, d-prevDen
		prevNum, prevDen = n, d
		if first || dd == 0 {
			first = false
			return 0, false
		}
		return float64(dn) / float64(dd), true
	}
}

// handleHistory serves GET /debug/history: every retained telemetry
// series, oldest point first. With ?cluster=1 on a coordinator, the
// response carries one history dump per cluster process (local plus
// every live worker), each labeled; a down worker contributes an error
// entry, never a failed view.
func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	if r.URL.Query().Get("cluster") == "1" && s.coordinator != nil {
		s.serveFederatedHistory(w, r)
		return
	}
	writeJSON(w, http.StatusOK, s.history.Dump(s.cfg.ProcessLabel))
}

// serveFederatedHistory answers GET /debug/history?cluster=1 on a
// coordinator: the local dump plus a concurrent fan-out to every live
// worker (queried without ?cluster=1, so federation never recurses).
func (s *Server) serveFederatedHistory(w http.ResponseWriter, r *http.Request) {
	local := s.history.Dump(s.cfg.ProcessLabel)
	processes := []obs.ProcessView{{Process: s.cfg.ProcessLabel, History: &local}}
	for _, p := range federate[*obs.HistoryDump](r.Context(), s, "/debug/history") {
		if p.body != nil {
			p.body.Process = p.worker
		}
		processes = append(processes, obs.ProcessView{Process: p.worker, Error: p.err, History: p.body})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"cluster":   true,
		"now":       time.Now().UTC(),
		"processes": processes,
	})
}
