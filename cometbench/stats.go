package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: a p99 read from 300 samples rests on three values and
// says little, so the tail reported is the highest one the sample
// supports.
const minBeyond = 10

// tailQuantile returns the nearest-rank q-quantile of xs (0 < q < 1),
// lowered when needed to the highest rank that still leaves minBeyond
// samples above it, together with the quantile actually used. With
// fewer than minBeyond+1 samples no rank qualifies and the median is
// returned. xs is not modified.
func tailQuantile(xs []float64, q float64) (v, used float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0
	}
	s := sortedCopy(xs)
	r := int(math.Ceil(q*float64(n))) - 1
	if r > n-1-minBeyond {
		r = n - 1 - minBeyond
	}
	if r < 0 {
		r = (n - 1) / 2
	}
	return s[r], float64(r+1) / float64(n)
}

// windowedTail estimates a tail quantile robustly: it splits xs, in
// arrival order, into consecutive windows just large enough for q to
// have minBeyond samples above it (the remainder joins the last window),
// and returns the median of the windows' tailQuantile values, the
// quantile used, and the window count. A stall or a burst of CPU steal
// then moves one window's tail, not the reported value. With fewer
// than two windows' worth of samples it is tailQuantile over all.
func windowedTail(xs []float64, q float64) (v, used float64, windows int) {
	w := int(math.Ceil(float64(minBeyond) / (1 - q)))
	n := len(xs) / max(w, 1)
	if n < 2 {
		v, used = tailQuantile(xs, q)
		return v, used, 1
	}
	vals := make([]float64, n)
	for i := range vals {
		end := (i + 1) * w
		if i == n-1 {
			end = len(xs)
		}
		vals[i], used = tailQuantile(xs[i*w:end], q)
	}
	return median(vals), used, n
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// meanOfMedians returns the mean over the non-empty groups of each
// group's median. Over a set of inputs whose costs differ, the median
// of all samples falls between the inputs' modes and moves with small
// shifts in the mix; the mean of per-input medians does not.
func meanOfMedians(groups [][]float64) float64 {
	var meds []float64
	for _, g := range groups {
		if len(g) > 0 {
			meds = append(meds, median(g))
		}
	}
	return mean(meds)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// validName reports whether s is a legal metric or workload name: one
// to 64 of [A-Za-z0-9_.-], starting with a letter or digit.
func validName(s string) bool {
	if len(s) == 0 || len(s) > 64 || !isAlnum(s[0]) {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; !isAlnum(c) && c != '_' && c != '.' && c != '-' {
			return false
		}
	}
	return true
}

// validUnit reports whether s is a legal unit: one to 16 of
// [A-Za-z0-9_/%.-].
func validUnit(s string) bool {
	if len(s) == 0 || len(s) > 16 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !isAlnum(c) && c != '_' && c != '/' && c != '%' && c != '.' && c != '-' {
			return false
		}
	}
	return true
}

func isAlnum(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

// metric is one reported value with its unit and the number of samples
// behind it; note says how it was derived when that is not obvious
// (the percentile actually used, a per-workload definition).
type metric struct {
	Name    string
	Value   float64
	Unit    string
	Samples int
	Note    string
}

// report collects a run's metrics in emission order.
type report struct {
	metrics []metric
	index   map[string]int
}

// set records (or replaces) a metric.
func (r *report) set(name string, value float64, unit string, samples int, note string) {
	if r.index == nil {
		r.index = make(map[string]int)
	}
	m := metric{Name: name, Value: value, Unit: unit, Samples: samples, Note: note}
	if i, ok := r.index[name]; ok {
		r.metrics[i] = m
		return
	}
	r.index[name] = len(r.metrics)
	r.metrics = append(r.metrics, m)
}

func (r *report) get(name string) (metric, bool) {
	i, ok := r.index[name]
	if !ok {
		return metric{}, false
	}
	return r.metrics[i], true
}

// validate checks every metric name, unit and value.
func (r *report) validate() error {
	for _, m := range r.metrics {
		if !validName(m.Name) {
			return fmt.Errorf("invalid metric name %q", m.Name)
		}
		if !validUnit(m.Unit) {
			return fmt.Errorf("metric %s: invalid unit %q", m.Name, m.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s: value %v is not a finite number", m.Name, m.Value)
		}
	}
	return nil
}
