package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
)

func TestTraceparentRoundTrip(t *testing.T) {
	sc := SpanContext{Trace: NewTraceID(), Span: NewSpanID(), Sampled: true}
	hdr := sc.Traceparent()
	if len(hdr) != 55 || !strings.HasPrefix(hdr, "00-") || !strings.HasSuffix(hdr, "-01") {
		t.Fatalf("traceparent format: %q", hdr)
	}
	got, ok := ParseTraceparent(hdr)
	if !ok || got != sc {
		t.Fatalf("round trip: got %+v ok=%v, want %+v", got, ok, sc)
	}
	sc.Sampled = false
	got, ok = ParseTraceparent(sc.Traceparent())
	if !ok || got != sc {
		t.Fatalf("unsampled round trip: got %+v ok=%v", got, ok)
	}
}

func TestTraceparentRejectsMalformed(t *testing.T) {
	valid := SpanContext{Trace: NewTraceID(), Span: NewSpanID(), Sampled: true}.Traceparent()
	bad := []string{
		"",
		"00",
		valid[:54],                          // truncated
		"ff" + valid[2:],                    // forbidden version
		strings.Replace(valid, "-", "_", 1), // wrong separator
		"00-" + strings.Repeat("0", 32) + valid[35:],      // zero trace ID
		valid[:36] + strings.Repeat("0", 16) + valid[52:], // zero span ID
		strings.Replace(valid, "0", "g", 1),               // non-hex
		valid + "-extra",                                  // version 00 with trailing fields
		valid + "x",                                       // trailing junk
	}
	for _, s := range bad {
		if sc, ok := ParseTraceparent(s); ok {
			t.Errorf("ParseTraceparent(%q) accepted: %+v", s, sc)
		}
	}
}

func TestStartRootSamplingAndPropagation(t *testing.T) {
	// sampleN=1: every trace records.
	tr := NewTracer(64, 1)
	ctx, span, id := tr.Start(context.Background(), "explain", SpanContext{}, false, false)
	if span == nil || id.IsZero() {
		t.Fatal("always-sample tracer returned no span")
	}
	if SpanFromContext(ctx) != span {
		t.Fatal("span not installed in context")
	}
	// A child inherits trace and parent linkage.
	_, child := StartSpan(ctx, "model")
	if child == nil || child.trace != span.trace || child.parent != span.id {
		t.Fatalf("child linkage: %+v vs parent %+v", child, span)
	}
	child.SetInt("queries", 42)
	child.End()
	child.End() // double End is a no-op
	tr.Commit(span, Outcome{Trace: id})
	recs := tr.Store().Trace(id.String())
	if len(recs) != 2 {
		t.Fatalf("store holds %d spans, want 2", len(recs))
	}
	if recs[1].Attrs["queries"] != "42" {
		t.Errorf("child attrs = %v", recs[1].Attrs)
	}

	// sampleN=0: tracing off, but nothing breaks.
	off := NewTracer(64, 0)
	ctx2, span2, id2 := off.Start(context.Background(), "explain", SpanContext{}, true, true)
	if span2 != nil || !id2.IsZero() || SpanFromContext(ctx2) != nil {
		t.Fatal("disabled tracer produced a span")
	}
}

func TestSamplingHonorsParentDecision(t *testing.T) {
	tr := NewTracer(64, 1_000_000_000) // local sampling effectively never fires
	parent := SpanContext{Trace: NewTraceID(), Span: NewSpanID(), Sampled: true}
	_, span, id := tr.Start(context.Background(), "shard", parent, false, false)
	if span == nil {
		t.Fatal("sampled parent was not honored")
	}
	if id != parent.Trace || span.parent != parent.Span {
		t.Fatal("parent linkage lost")
	}
	parent.Sampled = false
	_, span, id = tr.Start(context.Background(), "shard", parent, false, false)
	if span != nil {
		t.Fatal("unsampled parent was recorded")
	}
	if id != parent.Trace {
		t.Fatal("trace ID must still propagate for the response header")
	}
	// force overrides the parent's negative decision.
	if _, span, _ = tr.Start(context.Background(), "shard", parent, true, false); span == nil || !span.Context().Sampled {
		t.Fatal("force did not override the unsampled parent")
	}
}

func TestResume(t *testing.T) {
	tr := NewTracer(64, 1)
	parent := SpanContext{Trace: NewTraceID(), Span: NewSpanID(), Sampled: true}
	ctx, span := tr.Resume(context.Background(), "job", parent)
	if span == nil || SpanFromContext(ctx) != span {
		t.Fatal("resume did not produce an active span")
	}
	if span.trace != parent.Trace || span.parent != parent.Span {
		t.Fatal("resume linkage lost")
	}
	if _, s := tr.Resume(context.Background(), "job", SpanContext{}); s != nil {
		t.Fatal("resume from zero context produced a span")
	}
}

func TestNilSpanSafety(t *testing.T) {
	var s *Span
	s.Set("k", "v")
	s.SetInt("k", 1)
	s.SetBool("k", true)
	s.SetErr(nil)
	s.End()
	if !s.Context().IsZero() || !s.TraceID().IsZero() {
		t.Fatal("nil span leaked identity")
	}
	ctx, child := StartSpan(context.Background(), "x")
	if child != nil || SpanFromContext(ctx) != nil {
		t.Fatal("span minted without a parent")
	}
}

func TestRingEvictionAndTraces(t *testing.T) {
	tr := NewTracer(64, 1)
	var last TraceID
	for i := 0; i < 100; i++ {
		_, span, id := tr.Start(context.Background(), "req", SpanContext{}, false, false)
		tr.Commit(span, Outcome{Trace: id})
		last = id
	}
	traces := tr.Store().Traces(0)
	if len(traces) != 64 {
		t.Fatalf("store retains %d traces, want 64", len(traces))
	}
	if traces[0].TraceID != last.String() {
		t.Fatal("most recent trace not listed first")
	}
	if got := tr.Store().Traces(5); len(got) != 5 {
		t.Fatalf("limit ignored: %d", len(got))
	}
	if recs := tr.Store().Trace(last.String()); len(recs) != 1 || recs[0].Name != "req" {
		t.Fatalf("single-trace fetch: %+v", recs)
	}
}

func TestSpanRecordJSONShape(t *testing.T) {
	tr := NewTracer(64, 1)
	_, span, id := tr.Start(context.Background(), "explain", SpanContext{}, false, false)
	span.Set("spec", "uica@hsw")
	tr.Commit(span, Outcome{Trace: id})
	data, err := json.Marshal(tr.Store().Trace(id.String()))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"trace_id"`, `"span_id"`, `"name":"explain"`, `"duration_us"`, `"spec":"uica@hsw"`} {
		if !bytes.Contains(data, []byte(want)) {
			t.Errorf("trace JSON missing %s: %s", want, data)
		}
	}
	if bytes.Contains(data, []byte(`"parent_id"`)) {
		t.Errorf("root span rendered a parent_id: %s", data)
	}
}

func TestNewLoggerFormatsAndLevels(t *testing.T) {
	var buf bytes.Buffer
	lg, err := NewLogger(&buf, "json", "info")
	if err != nil {
		t.Fatal(err)
	}
	id := NewTraceID()
	Component(lg, "service").Info("request", TraceAttr(id), "route", "explain")
	var line map[string]any
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("not JSON: %v (%s)", err, buf.Bytes())
	}
	if line["component"] != "service" || line["trace_id"] != id.String() || line["route"] != "explain" {
		t.Fatalf("log line: %v", line)
	}

	buf.Reset()
	lg, err = NewLogger(&buf, "text", "warn")
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("dropped")
	lg.Warn("kept", TraceAttr(TraceID{})) // zero trace ID elided
	out := buf.String()
	if strings.Contains(out, "dropped") || !strings.Contains(out, "kept") {
		t.Fatalf("level filtering: %q", out)
	}
	if strings.Contains(out, "trace_id") {
		t.Fatalf("zero trace ID rendered: %q", out)
	}

	if _, err := NewLogger(&buf, "yaml", "info"); err == nil {
		t.Error("unknown format accepted")
	}
	if _, err := NewLogger(&buf, "text", "loud"); err == nil {
		t.Error("unknown level accepted")
	}
}
