package obs

// The metric registry: one declaration per instrument feeds both the
// Prometheus text exposition (GET /metrics) and the telemetry history
// sampler (GET /debug/history). An instrument is a counter, a gauge read
// from a function at render time, or a fixed-bucket histogram, each with
// a name, help text and label keys; its Desc may also name the history
// series it feeds. Declaring the instrument is the only step needed to
// add a metric.
//
// Recording is lock-free and allocation-free: counters are one atomic
// add, histograms a bucket search plus atomic adds. Resolving a labeled
// child (With) takes the family's lock and a map lookup, so hot paths
// resolve their children once and keep the pointer.

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Desc declares an instrument.
type Desc struct {
	Name   string
	Help   string
	Labels []string
	// Series are the history series the instrument feeds.
	Series []Series
}

// Series declares one history view of an instrument. By default a
// counter's series is its per-second rate, a gauge's its value, and a
// histogram's the per-second rate of observations. Name may hold
// {label} placeholders, filled from each child's label values — one
// series per child, registered as children appear; a name without
// placeholders is one series over the sum of every child.
type Series struct {
	Name string
	// Quantile, on a histogram of seconds, samples that per-tick latency
	// quantile in milliseconds (gap on idle ticks).
	Quantile float64
	// Mean, on a histogram, samples the per-tick mean of the observed
	// values (gap on idle ticks).
	Mean bool
}

// Registry holds a process's instruments; the zero value is empty and
// ready to use.
type Registry struct {
	mu       sync.Mutex
	families []*family
}

type family struct {
	Desc
	typ     string    // "counter", "gauge" or "histogram"
	bounds  []float64 // histograms
	collect func(emit func(v float64, labelValues ...string))

	mu       sync.Mutex
	children map[string]*child
	offered  bool // family-wide series registered with the history
}

type child struct {
	key     string // label values joined by NUL, which sorts them in order
	values  []string
	labels  string // rendered label set: route="explain",code="200"
	m       instrument
	offered bool
}

type instrument interface {
	write(sb *strings.Builder, name, labels string)
	value() float64
}

func (r *Registry) add(f *family) *family {
	f.children = make(map[string]*child)
	r.mu.Lock()
	r.families = append(r.families, f)
	r.mu.Unlock()
	return f
}

// Counter declares a counter family; resolve children with With.
func (r *Registry) Counter(d Desc) CounterVec {
	return CounterVec{r.add(&family{Desc: d, typ: "counter"})}
}

// Histogram declares a histogram family over fixed bucket upper bounds
// (+Inf implied); resolve children with With.
func (r *Registry) Histogram(d Desc, bounds []float64) HistogramVec {
	return HistogramVec{r.add(&family{Desc: d, typ: "histogram", bounds: bounds})}
}

// Gauge declares an unlabeled gauge whose value is read at render and
// sample time.
func (r *Registry) Gauge(d Desc, read func() float64) {
	r.GaugeVec(d, func(emit func(float64, ...string)) { emit(read()) })
}

// GaugeVec declares a labeled gauge family: collect emits one value per
// label set, in the order they should render.
func (r *Registry) GaugeVec(d Desc, collect func(emit func(v float64, labelValues ...string))) {
	r.add(&family{Desc: d, typ: "gauge", collect: collect})
}

// CounterVec is a declared counter family.
type CounterVec struct{ f *family }

// With returns the counter for one label set, creating it on first use.
func (v CounterVec) With(labelValues ...string) *Counter {
	return v.f.with(labelValues).(*Counter)
}

// HistogramVec is a declared histogram family.
type HistogramVec struct{ f *family }

// With returns the histogram for one label set, creating it on first use.
func (v HistogramVec) With(labelValues ...string) *Histogram {
	return v.f.with(labelValues).(*Histogram)
}

func (f *family) with(values []string) instrument {
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if c := f.children[key]; c != nil {
		return c.m
	}
	if len(values) != len(f.Labels) {
		panic(fmt.Sprintf("obs: %s takes %d label values, got %d", f.Name, len(f.Labels), len(values)))
	}
	c := &child{key: key, values: append([]string(nil), values...), labels: renderLabels(f.Labels, values)}
	if f.typ == "histogram" {
		c.m = newHistogram(f.bounds)
	} else {
		c.m = &Counter{}
	}
	f.children[key] = c
	return c.m
}

func renderLabels(keys, values []string) string {
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, values[i])
	}
	return b.String()
}

// sorted snapshots the children ordered by label values.
func (f *family) sorted() []*child {
	f.mu.Lock()
	out := make([]*child, 0, len(f.children))
	for _, c := range f.children {
		out = append(out, c)
	}
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// sum totals the family: every emitted gauge value, or every child's
// counter value or histogram observation count.
func (f *family) sum() float64 {
	total := 0.0
	if f.collect != nil {
		f.collect(func(v float64, _ ...string) { total += v })
		return total
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, c := range f.children {
		total += c.m.value()
	}
	return total
}

// WriteText renders every instrument in the Prometheus text exposition
// format, families sorted by name, children by label values. Histogram
// children with no observations are left out.
func (r *Registry) WriteText(sb *strings.Builder) {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].Name < fams[j].Name })
	for _, f := range fams {
		fmt.Fprintf(sb, "# HELP %s %s\n# TYPE %s %s\n", f.Name, f.Help, f.Name, f.typ)
		if f.collect != nil {
			f.collect(func(v float64, values ...string) {
				writeSample(sb, f.Name, renderLabels(f.Labels, values), formatFloat(v))
			})
			continue
		}
		for _, c := range f.sorted() {
			c.m.write(sb, f.Name, c.labels)
		}
	}
}

func writeSample(sb *strings.Builder, name, labels, value string) {
	sb.WriteString(name)
	if labels != "" {
		sb.WriteString("{" + labels + "}")
	}
	sb.WriteString(" " + value + "\n")
}

// Offer registers with h every declared history series not registered
// yet: family-wide series once, per-child series as children appear.
// Install it as the history's BeforeSample hook.
func (r *Registry) Offer(h *History) {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	for _, f := range fams {
		for _, reg := range f.pending() {
			reg(h)
		}
	}
}

// pending returns the registrations of the family's series not yet
// offered, marking them offered. They run after the family lock is
// released: the history calls readers that take it.
func (f *family) pending() []func(*History) {
	if len(f.Series) == 0 {
		return nil
	}
	var regs []func(*History)
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, sr := range f.Series {
		if !f.offered && !strings.Contains(sr.Name, "{") {
			name := sr.Name
			if f.typ == "gauge" {
				regs = append(regs, func(h *History) { h.Gauge(name, f.sum) })
			} else {
				regs = append(regs, func(h *History) { h.Rate(name, f.sum) })
			}
		}
	}
	f.offered = true
	for _, c := range f.children {
		if c.offered {
			continue
		}
		c.offered = true
		for _, sr := range f.Series {
			if strings.Contains(sr.Name, "{") {
				regs = append(regs, childSeries(sr, f.Labels, c))
			}
		}
	}
	return regs
}

func childSeries(sr Series, keys []string, c *child) func(*History) {
	name := sr.Name
	for i, k := range keys {
		name = strings.ReplaceAll(name, "{"+k+"}", c.values[i])
	}
	hist, _ := c.m.(*Histogram)
	switch {
	case hist != nil && sr.Quantile > 0:
		return func(h *History) { h.Value(name, hist.quantileSeries(sr.Quantile)) }
	case hist != nil && sr.Mean:
		return func(h *History) { h.Value(name, hist.meanSeries()) }
	}
	return func(h *History) { h.Rate(name, c.m.value) }
}

// Counter is a monotonic counter.
type Counter struct{ atomic.Uint64 }

func (c *Counter) value() float64 { return float64(c.Load()) }

func (c *Counter) write(sb *strings.Builder, name, labels string) {
	writeSample(sb, name, labels, formatFloat(c.value()))
}

// Histogram is a fixed-bucket histogram with atomic counters. The sum is
// an atomic float (CAS over its bits), so Observe never takes a lock.
type Histogram struct {
	bounds  []float64 // upper bounds; +Inf implied
	counts  []atomic.Uint64
	sumBits atomic.Uint64
	count   atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count reports how many values were observed.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum reports the running sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

func (h *Histogram) value() float64 { return float64(h.Count()) }

func (h *Histogram) write(sb *strings.Builder, name, labels string) {
	if h.Count() == 0 {
		return
	}
	sep := labels
	if sep != "" {
		sep += ","
	}
	cum := uint64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(sb, "%s_bucket{%sle=%q} %d\n", name, sep, formatFloat(bound), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(sb, "%s_bucket{%sle=\"+Inf\"} %d\n", name, sep, cum)
	writeSample(sb, name+"_sum", labels, formatFloat(h.Sum()))
	writeSample(sb, name+"_count", labels, formatFloat(float64(h.Count())))
}

// quantileSeries returns a history reader estimating a quantile, in
// milliseconds, over each tick's bucket deltas (the bucket's upper
// bound, the standard conservative estimate). The reader keeps its
// previous snapshot in reused slices, so a tick allocates nothing; the
// sampler goroutine is its only caller. An idle tick is a gap.
func (h *Histogram) quantileSeries(q float64) func() (float64, bool) {
	prev := make([]uint64, len(h.counts))
	cur := make([]uint64, len(h.counts))
	return func() (float64, bool) {
		var total uint64
		for i := range h.counts {
			cur[i] = h.counts[i].Load()
			total += cur[i] - prev[i]
		}
		defer copy(prev, cur)
		if total == 0 {
			return 0, false
		}
		rank := min(uint64(float64(total)*q), total-1)
		var cum uint64
		for i, bound := range h.bounds {
			cum += cur[i] - prev[i]
			if cum > rank {
				return bound * 1000, true
			}
		}
		// Overflow bucket: everything past the largest bound.
		return h.bounds[len(h.bounds)-1] * 1000, true
	}
}

// meanSeries returns a history reader computing the per-tick mean (delta
// sum over delta count). The baseline-priming first tick and idle ticks
// are gaps.
func (h *Histogram) meanSeries() func() (float64, bool) {
	var prevCount uint64
	var prevSum float64
	first := true
	return func() (float64, bool) {
		count, sum := h.Count(), h.Sum()
		dc, ds := count-prevCount, sum-prevSum
		prevCount, prevSum = count, sum
		if first || dc == 0 {
			first = false
			return 0, false
		}
		return ds / float64(dc), true
	}
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
