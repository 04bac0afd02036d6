package obs

// Spans are recorded provisionally into a pooled, recycled buffer per
// root — the request or async task that owns the trace fragment — and
// Tracer.Commit decides at the root's end whether the fragment is kept.
// Head sampling (1 in N by trace ID) is therefore only a retention rule:
// a trace that turns out slow or broken is kept with its full span tree
// even when head sampling would have thrown it away.
//
// The buffer is built for a zero-allocation steady state: spans come
// from a preallocated arena, attribute slices keep their capacity across
// recycles, and nothing is hex-encoded or map-boxed until a commit
// actually keeps the trace — the common fast-and-healthy request pays a
// pool Get/Put and struct writes, nothing more.

import (
	"context"
	"encoding/binary"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer mints spans and keeps finished traces in its Store. Sampling is
// decided once per trace, deterministically from the trace ID, so every
// process in a cluster agrees on whether a trace is recorded without
// coordinating: a sampled coordinator trace is sampled on every worker
// it touches.
type Tracer struct {
	store *Store
	// sampleN is the hot-route sampling rate: 0 disables tracing
	// entirely, 1 records every trace, N records roughly one in N.
	// Routes that matter individually (jobs, shards, cluster ops) force
	// sampling regardless.
	sampleN uint64
}

// NewTracer builds a tracer keeping finished traces in a store of size
// spans (minimum 64), sampling one in sampleN hot-route traces.
func NewTracer(size int, sampleN uint64) *Tracer {
	return &Tracer{store: newStore(size), sampleN: sampleN}
}

// Enabled reports whether the tracer records anything at all.
func (t *Tracer) Enabled() bool { return t != nil && t.sampleN > 0 }

// Store exposes the trace store for the /debug/traces handlers.
func (t *Tracer) Store() *Store {
	if t == nil {
		return nil
	}
	return t.store
}

// sampled is the deterministic per-trace sampling decision.
func (t *Tracer) sampled(id TraceID) bool {
	if t.sampleN == 1 {
		return true
	}
	return binary.LittleEndian.Uint64(id[8:])%t.sampleN == 0
}

// Start begins the root span of a request. parent is the parsed incoming
// traceparent (zero when the request starts a new trace); force keeps
// the trace regardless of the sampling rate (job submissions, ?trace=1);
// tail records an unsampled trace provisionally, so Commit can still
// keep it if the request turns out slow or broken. The returned trace ID
// is valid even when nothing is recorded — the X-Comet-Trace-Id response
// header always carries it — and the returned span is nil (and ctx
// untouched, costing nothing) for traces that are not recorded. Every
// non-nil root must be handed to Commit.
func (t *Tracer) Start(ctx context.Context, name string, parent SpanContext, force, tail bool) (context.Context, *Span, TraceID) {
	if !t.Enabled() {
		return ctx, nil, TraceID{}
	}
	var trace TraceID
	var parentID SpanID
	var sampled bool
	if !parent.IsZero() {
		trace, parentID, sampled = parent.Trace, parent.Span, parent.Sampled
	} else {
		trace = NewTraceID()
		sampled = t.sampled(trace)
	}
	var kept Kept
	if sampled {
		kept = KeptSampled
	}
	if force {
		kept |= KeptForced
	}
	if kept == 0 && !tail {
		return ctx, nil, trace
	}
	buf := spanBufferPool.Get().(*spanBuffer)
	// No fragment may outgrow the outliers' share of the store, so one
	// huge trace (a long corpus job) never pushes out everything else.
	buf.kept, buf.limit = kept, t.store.size/outlierShare
	// A forced trace propagates as sampled so downstream hops record it;
	// a tail-only one carries the real (unsampled) decision.
	s := buf.startSpan(trace, parentID, name, kept != 0)
	return ContextWithSpan(ctx, s), s, trace
}

// Resume begins the root of an async task parented on a stored span
// context — a queued corpus job picking its accepting request's trace
// back up. It records only when parent is sampled (returning (ctx, nil)
// otherwise); a recorded root is committed with Commit like any other.
func (t *Tracer) Resume(ctx context.Context, name string, parent SpanContext) (context.Context, *Span) {
	if parent.IsZero() || !parent.Sampled {
		return ctx, nil
	}
	ctx, s, _ := t.Start(ctx, name, parent, false, false)
	return ctx, s
}

// Outcome is how a root's request or task ended: what Commit records
// with a kept trace, and the outlier reasons (KeptSlow, KeptError) the
// caller judged.
type Outcome struct {
	Trace   TraceID
	Route   string
	Status  int
	Start   time.Time
	Elapsed time.Duration
	Kept    Kept
}

// Commit ends root and decides whether its trace fragment is kept: when
// it was head-sampled or forced at Start, or when o carries an outlier
// reason. A kept fragment enters the store as one entry with its full
// span tree; anything else recycles its buffer untouched. root may be
// nil — an unrecorded request that still turned out to be an outlier is
// kept as an entry without spans.
func (t *Tracer) Commit(root *Span, o Outcome) {
	if !t.Enabled() {
		return
	}
	var buf *spanBuffer
	if root != nil && !root.expired() {
		buf = root.buf
	}
	kept := o.Kept
	if buf != nil {
		kept |= buf.kept
	}
	if kept != 0 {
		e := &TraceEntry{
			TraceID:    o.Trace.String(),
			Route:      o.Route,
			Status:     o.Status,
			Reason:     kept.String(),
			Start:      o.Start.UTC(),
			DurationUS: o.Elapsed.Microseconds(),
			kept:       kept,
		}
		if buf != nil {
			root.End()
			e.Spans = buf.records(time.Now())
		}
		t.store.add(e)
	}
	if buf != nil {
		buf.release()
	}
}

// StartSpan begins a child of the span active in ctx, in the same
// buffer. When ctx carries no recorded span this is a pointer load and
// returns (ctx, nil): stage spans in the core engine cost nothing for
// unrecorded requests. A root that already holds its share of the store
// records no more children.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil || parent.expired() {
		return ctx, nil
	}
	s := parent.buf.startSpan(parent.trace, parent.id, name, parent.sampled)
	if s == nil {
		return ctx, nil
	}
	return ContextWithSpan(ctx, s), s
}

// Span is one recorded operation. Attributes are set by the goroutine
// that owns the span; End records its end time for the commit. All
// methods are nil-safe so call sites never branch on sampling.
type Span struct {
	trace  TraceID
	id     SpanID
	parent SpanID
	name   string
	start  time.Time
	// sampled is the head-sampling decision the span propagates; a
	// tail-only trace must not upgrade downstream hops.
	sampled bool
	// buf is the buffer this span lives in; bufGen is the buffer
	// generation at allocation, so writes after the buffer was recycled
	// become no-ops instead of corrupting the slot's next life.
	buf    *spanBuffer
	bufGen uint64

	mu    sync.Mutex
	attrs []attr
	ended bool
	end   time.Time
}

type attr struct{ key, value string }

// expired reports whether the span outlived its buffer.
func (s *Span) expired() bool { return s.buf.gen.Load() != s.bufGen }

// Context returns the span's propagation fragment, carrying the trace's
// head-sampling decision.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: s.trace, Span: s.id, Sampled: s.sampled}
}

// TraceID returns the span's trace ID, or the zero ID for a nil span.
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.trace
}

// Set attaches a string attribute.
func (s *Span) Set(key, value string) {
	if s == nil || s.expired() {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, attr{key, value})
	s.mu.Unlock()
}

// SetInt attaches an integer attribute.
func (s *Span) SetInt(key string, v int64) {
	s.Set(key, strconv.FormatInt(v, 10))
}

// SetBool attaches a boolean attribute.
func (s *Span) SetBool(key string, v bool) {
	s.Set(key, strconv.FormatBool(v))
}

// SetErr attaches err as the span's "error" attribute when non-nil.
func (s *Span) SetErr(err error) {
	if s == nil || err == nil {
		return
	}
	s.Set("error", err.Error())
}

// End finishes the span. Safe to call more than once; only the first
// call records.
func (s *Span) End() {
	if s == nil || s.expired() {
		return
	}
	end := time.Now()
	s.mu.Lock()
	if !s.ended {
		s.ended, s.end = true, end
	}
	s.mu.Unlock()
}

// record converts the span to its SpanRecord at commit time. A span
// still open is reported with its duration up to now.
func (s *Span) record(now time.Time) SpanRecord {
	s.mu.Lock()
	end := s.end
	if !s.ended {
		end = now
	}
	var attrs map[string]string
	if len(s.attrs) > 0 {
		attrs = make(map[string]string, len(s.attrs))
		for _, a := range s.attrs {
			attrs[a.key] = a.value
		}
	}
	s.mu.Unlock()
	rec := SpanRecord{
		TraceID:    s.trace.String(),
		SpanID:     s.id.String(),
		Name:       s.name,
		Start:      s.start,
		DurationUS: end.Sub(s.start).Microseconds(),
		Attrs:      attrs,
	}
	if !s.parent.IsZero() {
		rec.ParentID = s.parent.String()
	}
	return rec
}

// SpanRecord is a finished span as served by GET /debug/traces.
type SpanRecord struct {
	TraceID    string            `json:"trace_id"`
	SpanID     string            `json:"span_id"`
	ParentID   string            `json:"parent_id,omitempty"`
	Name       string            `json:"name"`
	Start      time.Time         `json:"start"`
	DurationUS int64             `json:"duration_us"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	// Process labels which process recorded the span in a federated
	// (cross-process) trace view; empty in a single process's own store.
	Process string `json:"process,omitempty"`
}

// spanBufferArena is the per-buffer preallocated span count. Roots that
// exceed it fall back to heap spans (still recorded) up to the buffer's
// limit.
const spanBufferArena = 64

// spanBuffer holds one root's provisional spans. Spans must not be
// touched after their buffer is recycled — a generation counter turns
// late writes into no-ops, but they are bugs in the caller.
type spanBuffer struct {
	// gen invalidates outstanding *Span handles at recycle time: a span
	// whose captured generation no longer matches drops writes instead of
	// corrupting the arena slot's next occupant.
	gen atomic.Uint64

	mu    sync.Mutex
	kept  Kept // head decision: KeptSampled, KeptForced, or 0 (tail only)
	limit int  // most spans recorded; past it children are dropped
	used  int
	arena []Span
	extra []*Span // overflow beyond the arena; rare, heap-allocated
}

var spanBufferPool = sync.Pool{New: func() any {
	return &spanBuffer{arena: make([]Span, spanBufferArena)}
}}

// release invalidates the buffer's spans and returns it to the pool.
func (b *spanBuffer) release() {
	b.gen.Add(1)
	b.mu.Lock()
	b.used, b.kept = 0, 0
	clear(b.extra)
	b.extra = b.extra[:0]
	b.mu.Unlock()
	spanBufferPool.Put(b)
}

// startSpan hands out the next arena slot (or a heap span past the
// arena), initialized for (trace, parent); nil once the buffer is at its
// limit. Zero-allocation while the arena lasts: the slot's attribute
// slice keeps its capacity from previous lives.
func (b *spanBuffer) startSpan(trace TraceID, parent SpanID, name string, sampled bool) *Span {
	b.mu.Lock()
	var s *Span
	switch {
	case b.used+len(b.extra) >= b.limit:
		b.mu.Unlock()
		return nil
	case b.used < len(b.arena):
		s = &b.arena[b.used]
		b.used++
	default:
		s = &Span{}
		b.extra = append(b.extra, s)
	}
	b.mu.Unlock()
	s.trace = trace
	s.id = NewSpanID()
	s.parent = parent
	s.name = name
	s.start = time.Now()
	s.attrs = s.attrs[:0]
	s.ended = false
	s.end = time.Time{}
	s.sampled = sampled
	s.buf = b
	s.bufGen = b.gen.Load()
	return s
}

// records converts the buffered spans to SpanRecords, creation order.
// This is the commit path: it allocates (records, hex IDs, attr maps),
// which is why it only runs for kept traces.
func (b *spanBuffer) records(now time.Time) []SpanRecord {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]SpanRecord, 0, b.used+len(b.extra))
	for i := 0; i < b.used; i++ {
		out = append(out, b.arena[i].record(now))
	}
	for _, s := range b.extra {
		out = append(out, s.record(now))
	}
	return out
}
