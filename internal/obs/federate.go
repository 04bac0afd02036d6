package obs

// Trace federation helpers: merging the span sets that a coordinator and
// its workers each hold for one trace ID into a single parent-linked
// tree, and rendering that tree for humans (comet-top -trace, and tests).
// Spans already cross processes correctly — every hop propagates the W3C
// traceparent, so a worker's root span carries the coordinator's span as
// its parent — federation is just collection, dedup, and ordering.

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// ProcessView is one process's line in a federated (?cluster=1) view:
// what it contributed — spans of a trace, retained outliers, or its
// telemetry history — or, when it could not be queried (down worker,
// timeout), the error that left its contribution out.
type ProcessView struct {
	Process  string       `json:"process"`
	Spans    int          `json:"spans,omitempty"`
	Outliers int          `json:"outliers,omitempty"`
	Error    string       `json:"error,omitempty"`
	History  *HistoryDump `json:"history,omitempty"`
}

// MergeSpans merges span sets collected from several processes for the
// same trace: duplicates (by span ID — straggler re-dispatch can record
// one lease twice) keep the first occurrence, and the result is ordered
// by start time with span-ID tie-breaks, the same order a single ring
// would serve.
func MergeSpans(groups ...[]SpanRecord) []SpanRecord {
	total := 0
	for _, g := range groups {
		total += len(g)
	}
	out := make([]SpanRecord, 0, total)
	seen := make(map[string]bool, total)
	for _, g := range groups {
		for _, sp := range g {
			if sp.SpanID == "" || seen[sp.SpanID] {
				continue
			}
			seen[sp.SpanID] = true
			out = append(out, sp)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].SpanID < out[j].SpanID
	})
	return out
}

// WriteTree renders spans as an indented tree with wall-time bars:
//
//	http.corpus                      2.1ms ▐█────────────────────────────▌ process=coordinator status=202
//	  job.run                      401.3ms ▐─████████████████████████████▌ job_id=job-..-1 state=done
//	    cluster.lease              120.0ms ▐─███████──────────────────────▌ worker=http://127.0.0.1:401
//
// Parentage follows ParentID; spans whose parent is missing from the set
// (aged out of a ring, or the remote process was unreachable) render as
// additional roots. width is the bar width in cells (0 = 30). Attrs
// render sorted by key, so per-explanation profile stages attached as
// span attributes (setup_us, search_us, ...) appear inline.
func WriteTree(w io.Writer, spans []SpanRecord, width int) {
	if len(spans) == 0 {
		return
	}
	if width <= 0 {
		width = 30
	}
	children := make(map[string][]int, len(spans))
	byID := make(map[string]bool, len(spans))
	for _, sp := range spans {
		byID[sp.SpanID] = true
	}
	var roots []int
	for i, sp := range spans {
		if sp.ParentID != "" && byID[sp.ParentID] {
			children[sp.ParentID] = append(children[sp.ParentID], i)
		} else {
			roots = append(roots, i)
		}
	}

	start := spans[0].Start
	end := spans[0].Start
	for _, sp := range spans {
		if sp.Start.Before(start) {
			start = sp.Start
		}
		if e := spanEnd(sp); e.After(end) {
			end = e
		}
	}
	total := end.Sub(start)
	if total <= 0 {
		total = time.Microsecond
	}

	nameWidth := 0
	var measure func(idx, depth int)
	measure = func(idx, depth int) {
		if n := 2*depth + len(spans[idx].Name); n > nameWidth {
			nameWidth = n
		}
		for _, c := range children[spans[idx].SpanID] {
			measure(c, depth+1)
		}
	}
	for _, r := range roots {
		measure(r, 0)
	}

	var render func(idx, depth int)
	render = func(idx, depth int) {
		sp := spans[idx]
		name := strings.Repeat("  ", depth) + sp.Name
		bar := timeBar(sp, start, total, width)
		fmt.Fprintf(w, "%-*s %10s ▐%s▌%s\n",
			nameWidth, name, formatDuration(sp.DurationUS), bar, attrSuffix(sp))
		for _, c := range children[sp.SpanID] {
			render(c, depth+1)
		}
	}
	for _, r := range roots {
		render(r, 0)
	}
}

func spanEnd(sp SpanRecord) time.Time {
	return sp.Start.Add(time.Duration(sp.DurationUS) * time.Microsecond)
}

// timeBar places the span's wall time on a fixed-width track spanning
// the whole trace.
func timeBar(sp SpanRecord, start time.Time, total time.Duration, width int) string {
	from := int(int64(width) * int64(sp.Start.Sub(start)) / int64(total))
	to := int(int64(width) * int64(spanEnd(sp).Sub(start)) / int64(total))
	if from >= width {
		from = width - 1
	}
	if to <= from {
		to = from + 1 // every span gets at least one visible cell
	}
	if to > width {
		to = width
	}
	var b strings.Builder
	for i := 0; i < width; i++ {
		if i >= from && i < to {
			b.WriteRune('█')
		} else {
			b.WriteRune('─')
		}
	}
	return b.String()
}

// attrSuffix renders " process=... k=v ..." — the process label first,
// then attrs sorted by key.
func attrSuffix(sp SpanRecord) string {
	if sp.Process == "" && len(sp.Attrs) == 0 {
		return ""
	}
	var b strings.Builder
	if sp.Process != "" {
		fmt.Fprintf(&b, " process=%s", sp.Process)
	}
	keys := make([]string, 0, len(sp.Attrs))
	for k := range sp.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := sp.Attrs[k]
		if strings.ContainsAny(v, " \t\n\"") || v == "" {
			v = fmt.Sprintf("%q", v)
		}
		fmt.Fprintf(&b, " %s=%s", k, v)
	}
	return b.String()
}

// formatDuration renders microseconds human-first (µs/ms/s) in 10 cells.
func formatDuration(us int64) string {
	switch {
	case us < 1000:
		return fmt.Sprintf("%dµs", us)
	case us < 1_000_000:
		return fmt.Sprintf("%.1fms", float64(us)/1000)
	default:
		return fmt.Sprintf("%.2fs", float64(us)/1e6)
	}
}
