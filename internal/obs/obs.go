// Package obs is COMET's stdlib-only observability kit: trace and span
// identifiers with W3C-traceparent propagation, in-process span recording
// into one bounded trace store (served by GET /debug/traces), the metric
// registry behind /metrics and the telemetry history, the flight
// recorder, and the slog setup shared by every binary. It deliberately has no third-party dependencies
// and no exporters — traces live in memory, logs go to stderr, and the
// wire cost of tracing an unsampled request is two PRNG calls.
//
// The identifier and header formats follow the W3C Trace Context
// recommendation (https://www.w3.org/TR/trace-context/): a 16-byte trace
// ID and 8-byte span ID, carried between processes as
//
//	traceparent: 00-<32 lowercase hex>-<16 lowercase hex>-<2 hex flags>
//
// so COMET's coordinator→worker and service→remote-model hops interoperate
// with any other Trace Context system that may sit in front of them.
package obs

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"math/rand/v2"
)

// TraceID identifies one end-to-end request tree across processes.
type TraceID [16]byte

// SpanID identifies one operation within a trace.
type SpanID [8]byte

// IsZero reports whether the ID is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the ID is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the ID as 32 lowercase hex digits.
func (t TraceID) String() string {
	var b [32]byte
	hex.Encode(b[:], t[:])
	return string(b[:])
}

// String renders the ID as 16 lowercase hex digits.
func (s SpanID) String() string {
	var b [16]byte
	hex.Encode(b[:], s[:])
	return string(b[:])
}

// NewTraceID mints a random, non-zero trace ID. The global math/rand/v2
// generator (ChaCha8, OS-seeded) is used instead of crypto/rand: IDs need
// uniqueness, not secrecy, and the explain hot path cannot afford a
// syscall.
func NewTraceID() TraceID {
	var t TraceID
	for t.IsZero() {
		binary.LittleEndian.PutUint64(t[:8], rand.Uint64())
		binary.LittleEndian.PutUint64(t[8:], rand.Uint64())
	}
	return t
}

// NewSpanID mints a random, non-zero span ID.
func NewSpanID() SpanID {
	var s SpanID
	for s.IsZero() {
		binary.LittleEndian.PutUint64(s[:], rand.Uint64())
	}
	return s
}

// SpanContext is the propagated fragment of a span: just enough to parent
// remote children and carry the sampling decision across a hop.
type SpanContext struct {
	Trace   TraceID
	Span    SpanID
	Sampled bool
}

// IsZero reports whether the context carries no trace.
func (sc SpanContext) IsZero() bool { return sc.Trace.IsZero() }

// Traceparent renders the context as a W3C traceparent header value.
func (sc SpanContext) Traceparent() string {
	b := make([]byte, 0, 55)
	b = append(b, "00-"...)
	var t [32]byte
	hex.Encode(t[:], sc.Trace[:])
	b = append(b, t[:]...)
	b = append(b, '-')
	var s [16]byte
	hex.Encode(s[:], sc.Span[:])
	b = append(b, s[:]...)
	if sc.Sampled {
		b = append(b, "-01"...)
	} else {
		b = append(b, "-00"...)
	}
	return string(b)
}

// ParseTraceparent parses a W3C traceparent header value. Unknown
// (future) versions are accepted as long as the 00-version field layout
// holds, per the recommendation; a zero trace or span ID is invalid.
func ParseTraceparent(s string) (SpanContext, bool) {
	// "00-" + 32 + "-" + 16 + "-" + 2 = 55 bytes minimum.
	if len(s) < 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return SpanContext{}, false
	}
	var ver [1]byte
	if _, err := hex.Decode(ver[:], []byte(s[:2])); err != nil || ver[0] == 0xff {
		return SpanContext{}, false // non-hex version, or the forbidden 0xff
	}
	if len(s) > 55 && (s[55] != '-' || (s[0] == '0' && s[1] == '0')) {
		return SpanContext{}, false // version 00 has no trailing fields
	}
	var sc SpanContext
	if _, err := hex.Decode(sc.Trace[:], []byte(s[3:35])); err != nil {
		return SpanContext{}, false
	}
	if _, err := hex.Decode(sc.Span[:], []byte(s[36:52])); err != nil {
		return SpanContext{}, false
	}
	var flags [1]byte
	if _, err := hex.Decode(flags[:], []byte(s[53:55])); err != nil {
		return SpanContext{}, false
	}
	if sc.Trace.IsZero() || sc.Span.IsZero() {
		return SpanContext{}, false
	}
	sc.Sampled = flags[0]&0x01 != 0
	return sc, true
}

// ctxKey carries the active *Span through a context.
type ctxKey struct{}

// ContextWithSpan returns ctx with span installed as the active span.
func ContextWithSpan(ctx context.Context, span *Span) context.Context {
	return context.WithValue(ctx, ctxKey{}, span)
}

// SpanFromContext returns the active span, or nil when the request is
// untraced or unsampled. All *Span methods are nil-safe, so callers never
// need to branch.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// ContextSpanContext returns the propagation fragment of the active span,
// or the zero SpanContext when there is none.
func ContextSpanContext(ctx context.Context) SpanContext {
	if s := SpanFromContext(ctx); s != nil {
		return s.Context()
	}
	return SpanContext{}
}
