package main

import (
	"time"
)

// olSample is open-loop request K: when it was due, when the generator
// actually sent it, and when its response completed, all as offsets
// from the start of the stream.
type olSample struct {
	K               int
	Due, Start, End time.Duration
	Err             error
}

// Latency is the request's time from when it was due to completion, so
// a stall also charges the wait it imposes on the requests behind it.
func (s olSample) Latency() time.Duration { return s.End - s.Due }

// Lateness is how late the generator sent the request.
func (s olSample) Lateness() time.Duration { return s.Start - s.Due }

// spinWindow is how long before a due time the generator stops sleeping
// and spins: sleeps wake up to a millisecond late, which would
// otherwise read as latency on a sub-millisecond warm request. (Spinning
// through the whole stream instead made the warm median bimodal across
// runs, 35-50 µs or 90-120 µs.)
const spinWindow = 2 * time.Millisecond

// openLoop sends request base+k at start + k/rate for k = 0, 1, ...
// until the next due time falls beyond dur. It runs on the caller's
// goroutine over one connection: when a response comes back late the
// following requests go out late too, and their latency, timed from the
// due time, carries that backlog. A stream split into slices passes the
// count sent so far as base, so request numbers keep counting.
func openLoop(rate float64, dur time.Duration, base int, send func(k int) error) []olSample {
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	var out []olSample
	for k := 0; ; k++ {
		due := time.Duration(k) * interval
		if due >= dur {
			return out
		}
		sleepUntil(start.Add(due))
		s := olSample{K: base + k, Due: due, Start: time.Since(start)}
		s.Err = send(base + k)
		s.End = time.Since(start)
		out = append(out, s)
	}
}

// warmSlices is how many warm slices a run interleaves with its cold
// phase, and warmShare the part of the run they take together. Spread
// over the whole run, the warm samples see the same host as the cold
// ones: one contiguous warm phase read the host's state during those
// few seconds, and on a shared host that moved its median by a quarter
// between runs.
const (
	warmSlices = 10
	warmShare  = 0.1
)

// warmSchedule interleaves warm slices with a cold phase of length
// total: once the warm set is ready, a slice of total×warmShare/
// warmSlices runs every total/warmSlices; owed is the warm time still
// due when the cold phase ends (slices missed while the warm set was
// being built).
type warmSchedule struct {
	every, slice time.Duration
	next         time.Time
	ran          time.Duration
	total        time.Duration
}

func newWarmSchedule(total time.Duration) *warmSchedule {
	every := total / warmSlices
	return &warmSchedule{every: every, slice: time.Duration(float64(every) * warmShare),
		next: time.Now().Add(every), total: time.Duration(float64(total) * warmShare)}
}

// due reports whether a slice should start now.
func (s *warmSchedule) due() bool { return !time.Now().Before(s.next) }

// ranSlice records a slice of length d that just ended.
func (s *warmSchedule) ranSlice(d time.Duration) {
	s.ran += d
	s.next = time.Now().Add(s.every)
}

func (s *warmSchedule) owed() time.Duration { return max(s.total-s.ran, 0) }

// sleepUntil blocks until t, sleeping while t is far and spinning over
// the last spinWindow.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
	}
}

// openLoopStats splits samples into latencies (µs) and lateness values
// (ms), skipping failed requests for latency: a failure is counted as a
// failure, not as a fast response.
func openLoopStats(samples []olSample) (latUS, lateMS []float64, failed int) {
	for _, s := range samples {
		lateMS = append(lateMS, float64(s.Lateness())/float64(time.Millisecond))
		if s.Err != nil {
			failed++
			continue
		}
		latUS = append(latUS, float64(s.Latency())/float64(time.Microsecond))
	}
	return latUS, lateMS, failed
}
