package obs

import (
	"context"
	"sync"
	"testing"
	"time"
)

// commitOutlier commits root as a slow outlier and returns the newest
// outlier entry.
func commitOutlier(t *testing.T, tr *Tracer, root *Span) TraceEntry {
	t.Helper()
	tr.Commit(root, Outcome{Trace: root.TraceID(), Route: "explain", Status: 200, Start: time.Now(), Kept: KeptSlow})
	outliers, _ := tr.Store().Outliers()
	if len(outliers) == 0 {
		t.Fatal("an outlier commit kept nothing")
	}
	return outliers[0]
}

// TestSpanBufferCommit: an unsampled tail-recorded root with children is
// kept as an outlier with the trace topology and attributes intact.
func TestSpanBufferCommit(t *testing.T) {
	tr := NewTracer(64, 1<<30) // sampling effectively never fires

	ctx, root, trace := tr.Start(context.Background(), "GET /v1/explain", SpanContext{}, false, true)
	if root == nil {
		t.Fatal("tail-recorded root must be non-nil even when unsampled")
	}
	if trace.IsZero() {
		t.Fatal("root must mint a trace ID")
	}
	root.Set("http.route", "explain")

	cctx, child := StartSpan(ctx, "stage.predict")
	if child == nil {
		t.Fatal("child of a recorded root must be recorded, not dropped")
	}
	if child.Context().Trace != trace {
		t.Fatal("child must share the root's trace")
	}
	if child.Context().Sampled {
		t.Fatal("tail-recorded child must propagate the real (unsampled) head decision")
	}
	_, grand := StartSpan(cctx, "stage.score")
	grand.Set("k", "v")
	grand.End()
	child.End()

	e := commitOutlier(t, tr, root)
	if e.Reason != "slow" || e.Route != "explain" || e.TraceID != trace.String() {
		t.Fatalf("entry: %+v", e)
	}
	recs := e.Spans
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	if recs[0].Name != "GET /v1/explain" || recs[0].ParentID != "" {
		t.Fatalf("root record: %+v", recs[0])
	}
	if recs[0].Attrs["http.route"] != "explain" {
		t.Fatalf("root attrs: %+v", recs[0].Attrs)
	}
	if recs[1].Name != "stage.predict" || recs[1].ParentID != recs[0].SpanID {
		t.Fatalf("child record: %+v", recs[1])
	}
	if recs[2].Name != "stage.score" || recs[2].ParentID != recs[1].SpanID || recs[2].Attrs["k"] != "v" {
		t.Fatalf("grandchild record: %+v", recs[2])
	}
	for _, r := range recs {
		if r.TraceID != trace.String() {
			t.Fatalf("record %s carries trace %s, want %s", r.Name, r.TraceID, trace)
		}
	}
	// An unsampled outlier is not part of the trace listing.
	if got := tr.Store().Trace(trace.String()); len(got) != 0 {
		t.Fatalf("unsampled outlier listed as a trace: %+v", got)
	}
}

// TestSpanBufferSampledFlush: a head-sampled root's spans land in the
// trace listing on commit; an unsampled, healthy one leaves no trace.
func TestSpanBufferSampledFlush(t *testing.T) {
	tr := NewTracer(64, 1) // sample everything
	ctx, root, trace := tr.Start(context.Background(), "root", SpanContext{}, false, true)
	_, child := StartSpan(ctx, "child")
	child.End()
	tr.Commit(root, Outcome{Trace: trace})
	if got := tr.Store().Trace(trace.String()); len(got) != 2 {
		t.Fatalf("sampled trace holds %d spans, want 2", len(got))
	}
	if outliers, _ := tr.Store().Outliers(); len(outliers) != 0 {
		t.Fatal("a healthy sampled trace was kept as an outlier")
	}

	quiet := NewTracer(64, 1<<30)
	_, root, trace = quiet.Start(context.Background(), "root", SpanContext{}, false, true)
	quiet.Commit(root, Outcome{Trace: trace})
	if outliers, _ := quiet.Store().Outliers(); len(outliers) != 0 || len(quiet.Store().Traces(0)) != 0 {
		t.Fatal("an unsampled healthy trace was kept")
	}
}

// TestSpanBufferParentPropagation: an incoming traceparent pins trace ID,
// parent span, and the upstream sampling decision.
func TestSpanBufferParentPropagation(t *testing.T) {
	tr := NewTracer(64, 1<<30)
	parent := SpanContext{Trace: NewTraceID(), Span: NewSpanID(), Sampled: true}
	_, root, trace := tr.Start(context.Background(), "root", parent, false, true)
	if trace != parent.Trace {
		t.Fatalf("trace = %s, want parent's %s", trace, parent.Trace)
	}
	if !root.Context().Sampled {
		t.Fatal("an upstream-sampled trace stays sampled locally")
	}
	tr.Commit(root, Outcome{Trace: trace})
	recs := tr.Store().Trace(trace.String())
	if len(recs) != 1 || recs[0].ParentID != parent.Span.String() {
		t.Fatalf("root records = %+v, want one parented on %s", recs, parent.Span)
	}
}

// TestSpanBufferRecycleInvalidatesSpans: writes through a handle that
// outlived its buffer are dropped, not applied to the slot's next life.
func TestSpanBufferRecycleInvalidatesSpans(t *testing.T) {
	// A private buffer, recycled by hand: the pool must not see stale handles.
	buf := &spanBuffer{arena: make([]Span, spanBufferArena), limit: 64}
	trace := NewTraceID()
	stale := buf.startSpan(trace, SpanID{}, "first life", false)
	buf.gen.Add(1)
	buf.used = 0

	// The recycle window: the buffer was reset but its slots not yet
	// reissued. Writes through the old handle must be dropped here — the
	// race a request goroutine that leaks a span past its own end opens.
	stale.Set("stale", "write")
	stale.End()

	fresh := buf.startSpan(trace, SpanID{}, "second life", false)
	fresh.End()
	recs := buf.records(time.Now())
	if len(recs) != 1 || recs[0].Name != "second life" {
		t.Fatalf("records after recycle: %+v", recs)
	}
	if len(recs[0].Attrs) != 0 {
		t.Fatalf("stale write leaked into the recycled slot: %+v", recs[0].Attrs)
	}
}

// TestSpanBufferArenaOverflow: spans past the arena spill to the heap and
// are still recorded in order; past half the store's size they are
// dropped.
func TestSpanBufferArenaOverflow(t *testing.T) {
	tr := NewTracer(200, 1)
	ctx, root, trace := tr.Start(context.Background(), "root", SpanContext{}, false, false)
	n := spanBufferArena + 5
	for i := 1; i < n; i++ {
		_, s := StartSpan(ctx, "child")
		s.End()
	}
	tr.Commit(root, Outcome{Trace: trace})
	recs := tr.Store().Trace(trace.String())
	if len(recs) != n {
		t.Fatalf("got %d records, want %d", len(recs), n)
	}
	for _, r := range recs[1:] {
		if r.Name != "child" || r.ParentID != recs[0].SpanID {
			t.Fatalf("overflow span lost its parent: %+v", r)
		}
	}

	ctx, root, trace = tr.Start(context.Background(), "root", SpanContext{}, false, false)
	for i := 0; i < 150; i++ {
		_, s := StartSpan(ctx, "child")
		s.End()
	}
	tr.Commit(root, Outcome{Trace: trace})
	if got := len(tr.Store().Trace(trace.String())); got != 100 {
		t.Fatalf("a root past half the store size kept %d spans, want 100", got)
	}
}

// TestSpanBufferSteadyStateAllocs: the buffering machinery for a healthy
// unsampled request — get a buffer, record a root and two children with
// constant attributes, recycle — allocates nothing once the pool is warm.
// (Context propagation via ContextWithSpan is measured separately by the
// service bench gate; here we bound the buffer itself, so spans start
// through the in-package allocator.)
func TestSpanBufferSteadyStateAllocs(t *testing.T) {
	tr := NewTracer(64, 1<<30)
	trace := NewTraceID()
	warm := func() {
		buf := spanBufferPool.Get().(*spanBuffer)
		buf.limit = 64
		root := buf.startSpan(trace, SpanID{}, "root", false)
		root.Set("route", "explain")
		c1 := buf.startSpan(trace, root.id, "stage.predict", false)
		c1.Set("cache", "hit")
		c2 := buf.startSpan(trace, c1.id, "stage.score", false)
		c2.End()
		c1.End()
		tr.Commit(root, Outcome{Trace: trace})
	}
	warm()
	if got := testing.AllocsPerRun(200, warm); got != 0 {
		t.Fatalf("steady-state buffered request allocates %.1f times, want 0", got)
	}
}

// TestOutlierRingNewestFirst: Outliers returns newest first and reports
// how many outliers the store has seen in total.
func TestOutlierRingNewestFirst(t *testing.T) {
	tr := NewTracer(64, 1)
	for i := 0; i < 100; i++ {
		tr.Commit(nil, Outcome{Trace: NewTraceID(), Status: 500 + i, Kept: KeptError})
	}
	got, written := tr.Store().Outliers()
	if written != 100 {
		t.Fatalf("written = %d, want 100", written)
	}
	if len(got) != 64 {
		t.Fatalf("store retains %d span-less outliers, want 64", len(got))
	}
	for i, o := range got {
		if want := 500 + 99 - i; o.Status != want || o.Reason != "error" {
			t.Fatalf("outliers[%d] = %d %q, want %d error (newest first)", i, o.Status, o.Reason, want)
		}
	}
}

// TestStoreSampledFloodKeepsOutliers: sampled traces several times the
// store's size push out only each other while the outliers stay within
// their share.
func TestStoreSampledFloodKeepsOutliers(t *testing.T) {
	tr := NewTracer(64, 1)
	_, root, trace := tr.Start(context.Background(), "slow", SpanContext{}, false, false)
	tr.Commit(root, Outcome{Trace: trace, Kept: KeptSlow})
	for i := 0; i < 500; i++ {
		_, root, id := tr.Start(context.Background(), "fast", SpanContext{}, false, false)
		tr.Commit(root, Outcome{Trace: id})
	}
	outliers, _ := tr.Store().Outliers()
	if len(outliers) != 1 || outliers[0].TraceID != trace.String() || len(outliers[0].Spans) != 1 {
		t.Fatalf("outlier lost to the sampled flood: %+v", outliers)
	}
	if got := len(tr.Store().Traces(0)); got != 64 {
		t.Fatalf("store lists %d traces, want 64: the sampled outlier and 63 newest fast ones", got)
	}
}

// TestStartRootBufferedDisabledTracer: with tracing off, Start and
// Commit are no-ops.
func TestStartRootBufferedDisabledTracer(t *testing.T) {
	var tr *Tracer
	ctx := context.Background()
	got, s, trace := tr.Start(ctx, "root", SpanContext{}, true, true)
	if got != ctx || s != nil || !trace.IsZero() {
		t.Fatalf("nil tracer: span=%v trace=%s", s, trace)
	}
	tr.Commit(nil, Outcome{Kept: KeptError}) // must not panic
	if outliers, _ := tr.Store().Outliers(); outliers != nil {
		t.Fatal("disabled tracer kept an outlier")
	}
}

// TestTracerConcurrentCommits: roots started, extended and committed
// from many goroutines while the store is read keep the store within its
// size and every kept trace whole.
func TestTracerConcurrentCommits(t *testing.T) {
	tr := NewTracer(64, 4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ctx, root, trace := tr.Start(context.Background(), "root", SpanContext{}, false, true)
				_, child := StartSpan(ctx, "child")
				child.SetInt("i", int64(i))
				child.End()
				var kept Kept
				if i%10 == g {
					kept = KeptSlow
				}
				tr.Commit(root, Outcome{Trace: trace, Kept: kept})
				if i%25 == 0 {
					tr.Store().Traces(0)
					tr.Store().Outliers()
				}
			}
		}(g)
	}
	wg.Wait()
	outliers, written := tr.Store().Outliers()
	spans := 0
	for _, o := range outliers {
		if len(o.Spans) != 2 {
			t.Fatalf("outlier %s kept %d spans, want 2", o.TraceID, len(o.Spans))
		}
		spans += len(o.Spans)
	}
	if written != 8*20 || spans > 64 {
		t.Fatalf("written %d outliers (want %d), holding %d spans in a 64-span store", written, 8*20, spans)
	}
}
