package service

// Trace inspection endpoints. Kept traces live in the tracer's bounded
// in-process store (obs.Store); these handlers are the only way out.
// They are debugging surface, not an export pipeline: the store forgets,
// the JSON is small, and a trace that spans processes (coordinator +
// worker) is assembled by GET /debug/traces/{id}?cluster=1 — the
// coordinator fans the trace ID out to every worker in its pool and
// merges the remote spans with its own into one parent-linked tree.
//
// GET /debug/traces lists the head-sampled and forced traces;
// ?outliers=1 lists the retained outliers instead: the slow/5xx
// requests whose full span trees were kept regardless of head sampling.
// ?route= and ?min_ms= filter both listings; ?cluster=1 federates the
// outlier view like the trace view.
//
// GET /debug/flight dumps the flight recorder: the black-box ring of
// request/lease/job/outlier records kept regardless of trace sampling.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/comet-explain/comet/internal/obs"
)

// handleTraces serves GET /debug/traces: recently kept traces, most
// recent first — or, with ?outliers=1, the retained slow/5xx traces.
// ?limit= caps the listing (default 100), ?route= keeps one route, and
// ?min_ms= drops entries faster than the threshold.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if !s.tracingAvailable(w, r) {
		return
	}
	limit, err := queryInt(r, "limit", 100)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	minMS, err := queryInt(r, "min_ms", 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	q := r.URL.Query()
	route := q.Get("route")
	if q.Get("outliers") == "1" {
		s.serveOutliers(w, r, route, minMS, limit)
		return
	}
	traces := firstN(s.tracer.Store().Traces(0), limit, func(ts obs.TraceSummary) bool {
		return (route == "" || ts.Root == route || ts.Root == "http."+route) && ts.DurationUS >= int64(minMS)*1000
	})
	writeJSON(w, http.StatusOK, map[string]any{"traces": traces})
}

// firstN keeps the items match accepts, in order, up to limit (0 = all).
func firstN[T any](in []T, limit int, match func(T) bool) []T {
	out := make([]T, 0, len(in))
	for _, v := range in {
		if match(v) {
			out = append(out, v)
			if len(out) == limit {
				break
			}
		}
	}
	return out
}

// tracingAvailable answers the requests the trace views cannot serve
// (wrong method, tracing off) and reports whether to go on.
func (s *Server) tracingAvailable(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return false
	}
	if !s.tracer.Enabled() {
		writeError(w, http.StatusNotFound, "tracing is disabled (trace sample rate < 0)")
		return false
	}
	return true
}

// serveOutliers answers GET /debug/traces?outliers=1: the store's
// outliers after the listing filters, newest first. With ?cluster=1 on a
// coordinator, every live worker's outliers (queried with the same
// filters) are merged in, each labeled with the process that kept it.
func (s *Server) serveOutliers(w http.ResponseWriter, r *http.Request, route string, minMS, limit int) {
	all, written := s.tracer.Store().Outliers()
	outliers := firstN(all, limit, func(o obs.TraceEntry) bool {
		return (route == "" || o.Route == route) && o.DurationUS >= int64(minMS)*1000
	})
	if r.URL.Query().Get("cluster") != "1" || s.coordinator == nil {
		writeJSON(w, http.StatusOK, map[string]any{"outliers": outliers, "written": written})
		return
	}
	for i := range outliers {
		outliers[i].Process = s.cfg.ProcessLabel
	}
	processes := []obs.ProcessView{{Process: s.cfg.ProcessLabel, Outliers: len(outliers)}}
	for _, p := range federate[struct{ Outliers []obs.TraceEntry }](r.Context(), s, withoutCluster(r.URL)) {
		for i := range p.body.Outliers {
			p.body.Outliers[i].Process = p.worker
		}
		processes = append(processes, obs.ProcessView{Process: p.worker, Outliers: len(p.body.Outliers), Error: p.err})
		outliers = append(outliers, p.body.Outliers...)
	}
	sort.SliceStable(outliers, func(i, j int) bool { return outliers[i].Start.After(outliers[j].Start) })
	if limit > 0 && len(outliers) > limit {
		outliers = outliers[:limit]
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"cluster":   true,
		"processes": processes,
		"outliers":  outliers,
	})
}

// handleTrace serves GET /debug/traces/{id}: every span the store holds
// for one trace, oldest first. With ?cluster=1 on a coordinator, the
// response is the federated view: local spans merged with the spans
// every pool worker holds for the same trace ID, each labeled with the
// process that recorded it.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if !s.tracingAvailable(w, r) {
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/debug/traces/")
	if id == "" || strings.Contains(id, "/") {
		writeError(w, http.StatusNotFound, "no such trace")
		return
	}
	spans := s.tracer.Store().Trace(id)
	if r.URL.Query().Get("cluster") != "1" || s.coordinator == nil {
		if len(spans) == 0 {
			writeError(w, http.StatusNotFound, "no spans recorded for trace %q (the store is bounded; old traces age out)", id)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"trace_id": id, "spans": spans})
		return
	}
	for i := range spans {
		spans[i].Process = s.cfg.ProcessLabel
	}
	processes := []obs.ProcessView{{Process: s.cfg.ProcessLabel, Spans: len(spans)}}
	groups := [][]obs.SpanRecord{spans}
	for _, p := range federate[struct{ Spans []obs.SpanRecord }](r.Context(), s, withoutCluster(r.URL)) {
		for i := range p.body.Spans {
			p.body.Spans[i].Process = p.worker
		}
		processes = append(processes, obs.ProcessView{Process: p.worker, Spans: len(p.body.Spans), Error: p.err})
		groups = append(groups, p.body.Spans)
	}
	merged := obs.MergeSpans(groups...)
	if len(merged) == 0 {
		writeError(w, http.StatusNotFound,
			"no spans recorded for trace %q on the coordinator or any of %d workers", id, len(groups)-1)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"trace_id":  id,
		"cluster":   true,
		"processes": processes,
		"spans":     merged,
	})
}

// withoutCluster is the request's path and query minus ?cluster=1, so
// workers answer their own view and federation never recurses.
func withoutCluster(u *url.URL) string {
	q := u.Query()
	q.Del("cluster")
	if len(q) == 0 {
		return u.EscapedPath()
	}
	return u.EscapedPath() + "?" + q.Encode()
}

// peerAnswer is one live worker's answer in a federated view: its
// decoded body, or the error that kept it out. A worker holding no data
// for the query (404) answers with the zero body — an answer, not a
// failure.
type peerAnswer[T any] struct {
	worker string
	body   T
	err    string
}

// peerClient fetches remote debug views during federation; the short
// timeout bounds the whole fan-out — a dead worker costs one timeout,
// not a hung request.
var peerClient = &http.Client{Timeout: 5 * time.Second}

// federate queries path (never with ?cluster=1, so federation does not
// recurse) on every live pool worker — static pool plus dynamic joins;
// workers whose heartbeats have expired are skipped — concurrently, and
// decodes each answer into T. Federated views never fail on a down
// worker: its error rides in its answer.
func federate[T any](ctx context.Context, s *Server, path string) []peerAnswer[T] {
	var out []peerAnswer[T]
	for _, worker := range s.coordinator.Pool().Snapshot() {
		if worker.State != "expired" {
			out = append(out, peerAnswer[T]{worker: worker.ID})
		}
	}
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func(p *peerAnswer[T]) {
			defer wg.Done()
			if err := fetchPeerJSON(ctx, strings.TrimSuffix(p.worker, "/")+path, &p.body); err != nil {
				var zero T
				p.body, p.err = zero, err.Error()
			}
		}(&out[i])
	}
	wg.Wait()
	return out
}

// fetchPeerJSON performs one federation GET, decoding a 200 answer into
// v and leaving v untouched on a 404.
func fetchPeerJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := peerClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		return json.NewDecoder(io.LimitReader(resp.Body, 32<<20)).Decode(v)
	case http.StatusNotFound:
		return nil
	}
	return fmt.Errorf("status %d", resp.StatusCode)
}

// handleFlight serves GET /debug/flight: the flight recorder's current
// contents as one JSON document — the same dump a SIGQUIT writes to
// stderr.
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = s.flight.WriteJSON(w, s.cfg.ProcessLabel)
}
