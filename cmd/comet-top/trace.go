package main

// Trace mode (-trace): render one distributed trace as a span tree —
// fetched with ?cluster=1 unless -local is set, so a coordinator answers
// with its own spans merged with every pool worker's — or, with -trace
// list, list the traces the server's store still holds.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/url"
	"time"

	"github.com/comet-explain/comet/internal/inspect"
	"github.com/comet-explain/comet/internal/obs"
)

// listTraces renders GET /debug/traces as a table.
func listTraces(w io.Writer, client *inspect.Client, base string, limit int, route string, minMS int) error {
	u := fmt.Sprintf("%s/debug/traces?limit=%d", base, limit)
	if route != "" {
		u += "&route=" + url.QueryEscape(route)
	}
	if minMS > 0 {
		u += fmt.Sprintf("&min_ms=%d", minMS)
	}
	var body struct {
		Traces []obs.TraceSummary `json:"traces"`
	}
	if err := client.GetJSON(u, &body); err != nil {
		return err
	}
	if len(body.Traces) == 0 {
		fmt.Fprintln(w, "no traces recorded (is -trace-sample off, or has the ring aged out?)")
		return nil
	}
	fmt.Fprintf(w, "%-34s %-14s %6s  %-20s  %s\n", "TRACE", "ROOT", "SPANS", "START", "DURATION")
	for _, t := range body.Traces {
		fmt.Fprintf(w, "%-34s %-14s %6d  %-20s  %s\n",
			t.TraceID, t.Root, t.Spans,
			t.Start.UTC().Format(time.RFC3339), inspect.FormatUS(t.DurationUS))
	}
	return nil
}

// showTrace fetches one trace (federated unless told otherwise) and
// renders the span tree.
func showTrace(w io.Writer, client *inspect.Client, base, id string, federate, rawJSON bool, width int) error {
	u := base + "/debug/traces/" + url.PathEscape(id)
	if federate {
		u += "?cluster=1"
	}
	var body struct {
		TraceID   string            `json:"trace_id"`
		Cluster   bool              `json:"cluster"`
		Processes []obs.ProcessView `json:"processes"`
		Spans     []obs.SpanRecord  `json:"spans"`
	}
	if err := client.GetJSON(u, &body); err != nil {
		return err
	}
	if rawJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(body)
	}
	if len(body.Processes) > 0 {
		fmt.Fprintf(w, "trace %s — %d spans from %d processes\n", body.TraceID, len(body.Spans), len(body.Processes))
		for _, p := range body.Processes {
			if p.Error != "" {
				fmt.Fprintf(w, "  %-40s %4d spans  (unreachable: %s)\n", p.Process, p.Spans, p.Error)
			} else {
				fmt.Fprintf(w, "  %-40s %4d spans\n", p.Process, p.Spans)
			}
		}
		fmt.Fprintln(w)
	} else {
		fmt.Fprintf(w, "trace %s — %d spans\n\n", body.TraceID, len(body.Spans))
	}
	// Server output is start-ordered already, but MergeSpans is cheap
	// insurance that local views render in the same canonical order.
	spans := obs.MergeSpans(body.Spans)
	obs.WriteTree(w, spans, width)
	return nil
}
