package service

// TestObservabilitySurfacePinned pins the observable surface of the
// telemetry plane against testdata/observability_surface.golden: every
// /metrics family's name, TYPE and label keys; every /debug/history
// series name after one explain, one corpus job and one sample tick; and
// the JSON field sets of the trace views. Refactors of the metric
// registry, the trace store or the history sampler must leave it
// unchanged. A deliberate surface change updates the golden file in the
// same change, where review sees it.

import (
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/comet-explain/comet/internal/cluster"
	"github.com/comet-explain/comet/internal/wire"
)

func TestObservabilitySurfacePinned(t *testing.T) {
	worker, workerTS := newTestServer(t, Config{})
	worker.SetReady()
	store := openTestStore(t, t.TempDir())
	t.Cleanup(func() { store.Close() })
	s, ts := newTestServer(t, Config{
		Store:           store,
		ClusterWorkers:  []string{workerTS.URL},
		Cluster:         cluster.Options{LeaseBlocks: 2, ProbeBackoff: 10 * time.Millisecond, Tick: 5 * time.Millisecond},
		TraceSample:     1, // every trace lands in the listing
		TraceSlowMS:     1, // every computed explain is an outlier
		HistoryInterval: -1,
	})

	resp, body := postJSON(t, ts.URL+"/v1/explain", wire.ExplainRequest{
		Block: testBlock, Model: "uica", Arch: "hsw", Config: fastOverrides(),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain: status %d: %s", resp.StatusCode, body)
	}
	traceID := resp.Header.Get("X-Comet-Trace-Id")
	resp, body = postJSON(t, ts.URL+"/v1/corpus", wire.CorpusRequest{
		Blocks: clusterTestBlocks, Model: "uica", Config: fastOverrides(),
	})
	var acc wire.JobAccepted
	if err := json.Unmarshal(body, &acc); err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("corpus: status %d: %s", resp.StatusCode, body)
	}
	if _, st := pollJob(t, ts.URL, acc.ID); st.State != wire.JobDone {
		t.Fatalf("job: %+v", st)
	}
	s.history.Sample()

	var lines []string
	lines = append(lines, metricFamilies(t, fetchMetrics(t, ts.URL))...)

	var hist struct {
		Series []struct {
			Name string `json:"name"`
		} `json:"series"`
	}
	getJSON(t, ts.URL+"/debug/history", &hist)
	for _, sr := range hist.Series {
		lines = append(lines, "history "+sr.Name)
	}

	for _, path := range []string{
		"/debug/traces",
		"/debug/traces/" + traceID,
		"/debug/traces/" + traceID + "?cluster=1",
		"/debug/traces?outliers=1",
		"/debug/traces?outliers=1&cluster=1",
	} {
		var v any
		if resp := getJSON(t, ts.URL+path, &v); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		view := strings.ReplaceAll(path, traceID, "{id}")
		for _, field := range jsonFields(v) {
			lines = append(lines, "json "+view+" "+field)
		}
	}

	got := strings.Join(lines, "\n") + "\n"
	want, err := os.ReadFile("testdata/observability_surface.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("observability surface changed:\n%s\nfull surface:\n%s", lineDiff(string(want), got), got)
	}
}

// metricFamilies reduces an exposition to one sorted line per family:
// "metric <name> <type> <label keys>", histogram le labels excluded.
func metricFamilies(t *testing.T, text string) []string {
	t.Helper()
	types := checkExposition(t, text)
	keys := map[string]map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		name, labelBody, _ := strings.Cut(line, "{")
		if i := strings.IndexByte(name, ' '); i >= 0 {
			name, labelBody = name[:i], ""
		}
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, suffix); base != name && types[base] == "histogram" {
				name = base
			}
		}
		if keys[name] == nil {
			keys[name] = map[string]bool{}
		}
		if labelBody != "" {
			labels, err := parseLabels(labelBody[:strings.LastIndexByte(labelBody, '}')])
			if err != nil {
				t.Fatal(err)
			}
			for k := range labels {
				if k != "le" {
					keys[name][k] = true
				}
			}
		}
	}
	var out []string
	for name, typ := range types {
		var ks []string
		for k := range keys[name] {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		out = append(out, strings.TrimSpace("metric "+name+" "+typ+" "+strings.Join(ks, ",")))
	}
	sort.Strings(out)
	return out
}

// jsonFields lists the field paths of a decoded JSON document, sorted:
// "traces[].trace_id". Array paths are the union over elements; span
// attribute maps are leaves (their keys are data, not shape).
func jsonFields(v any) []string {
	seen := map[string]bool{}
	var walk func(v any, path string)
	walk = func(v any, path string) {
		switch x := v.(type) {
		case map[string]any:
			for k, child := range x {
				p := k
				if path != "" {
					p = path + "." + k
				}
				seen[p] = true
				if k != "attrs" {
					walk(child, p)
				}
			}
		case []any:
			for _, child := range x {
				walk(child, path+"[]")
			}
		}
	}
	walk(v, "")
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// lineDiff lists the lines only one side has.
func lineDiff(want, got string) string {
	in := func(s string) map[string]bool {
		m := map[string]bool{}
		for _, l := range strings.Split(s, "\n") {
			m[l] = true
		}
		return m
	}
	w, g := in(want), in(got)
	var b strings.Builder
	for _, l := range strings.Split(want, "\n") {
		if !g[l] {
			b.WriteString("- " + l + "\n")
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if !w[l] {
			b.WriteString("+ " + l + "\n")
		}
	}
	return b.String()
}
