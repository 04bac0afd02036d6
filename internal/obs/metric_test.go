package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRegistryWriteText: every instrument kind renders in the Prometheus
// text format — families by name, children by label values, HELP/TYPE
// first, idle histogram children left out.
func TestRegistryWriteText(t *testing.T) {
	var reg Registry
	reqs := reg.Counter(Desc{Name: "t_requests_total", Help: "Requests.", Labels: []string{"route", "code"}})
	reqs.With("explain", "500").Add(1)
	reqs.With("explain", "200").Add(3)
	reqs.With("debug", "200").Add(2)
	reg.Counter(Desc{Name: "t_plain_total", Help: "Plain."}).With()
	lat := reg.Histogram(Desc{Name: "t_seconds", Help: "Latency.", Labels: []string{"route"}}, []float64{0.1, 1})
	lat.With("explain").Observe(0.5)
	lat.With("idle")
	reg.Gauge(Desc{Name: "t_depth", Help: "Depth."}, func() float64 { return 2.5 })
	reg.GaugeVec(Desc{Name: "t_workers", Help: "Workers.", Labels: []string{"state"}},
		func(emit func(float64, ...string)) { emit(2, "ready"); emit(1, "down") })

	var sb strings.Builder
	reg.WriteText(&sb)
	want := `# HELP t_depth Depth.
# TYPE t_depth gauge
t_depth 2.5
# HELP t_plain_total Plain.
# TYPE t_plain_total counter
t_plain_total 0
# HELP t_requests_total Requests.
# TYPE t_requests_total counter
t_requests_total{route="debug",code="200"} 2
t_requests_total{route="explain",code="200"} 3
t_requests_total{route="explain",code="500"} 1
# HELP t_seconds Latency.
# TYPE t_seconds histogram
t_seconds_bucket{route="explain",le="0.1"} 0
t_seconds_bucket{route="explain",le="1"} 1
t_seconds_bucket{route="explain",le="+Inf"} 1
t_seconds_sum{route="explain"} 0.5
t_seconds_count{route="explain"} 1
# HELP t_workers Workers.
# TYPE t_workers gauge
t_workers{state="ready"} 2
t_workers{state="down"} 1
`
	if got := sb.String(); got != want {
		t.Errorf("exposition:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestRegistryFeedsHistory: declared series reach the history — a
// family-wide series as the sum of every child, per-child series as
// children appear, and histogram quantile and mean views.
func TestRegistryFeedsHistory(t *testing.T) {
	var reg Registry
	slow := reg.Counter(Desc{Name: "t_slow_total", Labels: []string{"route"},
		Series: []Series{{Name: "slow.rps"}, {Name: "slow.{route}.rps"}}})
	lat := reg.Histogram(Desc{Name: "t_seconds", Labels: []string{"route"}, Series: []Series{
		{Name: "lat.{route}.p99_ms", Quantile: 0.99},
		{Name: "lat.{route}.mean", Mean: true},
	}}, []float64{0.25, 0.5, 1})
	reg.Gauge(Desc{Name: "t_depth", Series: []Series{{Name: "queue.depth"}}}, func() float64 { return 7 })

	h := NewHistory(16, time.Second)
	h.BeforeSample = func() { reg.Offer(h) }
	slow.With("a").Add(1)
	h.Sample() // primes the rates; "b" does not exist yet
	slow.With("a").Add(2)
	slow.With("b").Add(4)
	lat.With("a").Observe(0.25)
	lat.With("a").Observe(0.5)
	h.Sample()
	lat.With("a").Observe(1)
	h.Sample()

	last := map[string]float64{}
	for _, s := range h.Dump("").Series {
		last[s.Name] = float64(s.Last)
	}
	for name, want := range map[string]float64{
		"slow.rps":     0, // 6 at the second tick, nothing since
		"slow.a.rps":   0,
		"slow.b.rps":   0, // registered at tick 2, primed, idle at tick 3
		"queue.depth":  7,
		"lat.a.p99_ms": 1000, // tick 3's one observation, in the 1s bucket
		"lat.a.mean":   1,
	} {
		if got, ok := last[name]; !ok || got != want {
			t.Errorf("series %q last = %v (present %v), want %v", name, got, ok, want)
		}
	}
	var second float64
	for _, s := range h.Dump("").Series {
		if s.Name == "slow.rps" {
			second = float64(s.Points[1])
		}
	}
	if second != 6 {
		t.Errorf("slow.rps at the second tick = %v, want 6 (2 on a plus 4 on b)", second)
	}
}

// TestRegistryConcurrentUse: children resolve to one instrument however
// many goroutines race to create them, while rendering and sampling run.
func TestRegistryConcurrentUse(t *testing.T) {
	var reg Registry
	c := reg.Counter(Desc{Name: "t_total", Labels: []string{"k"}, Series: []Series{{Name: "t.{k}.rps"}}})
	h := NewHistory(16, time.Second)
	h.BeforeSample = func() { reg.Offer(h) }
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c.With([]string{"x", "y", "z"}[i%3]).Add(1)
				if i%50 == 0 {
					var sb strings.Builder
					reg.WriteText(&sb)
					h.Sample()
				}
			}
		}(g)
	}
	wg.Wait()
	total := c.With("x").Load() + c.With("y").Load() + c.With("z").Load()
	if total != 8*200 {
		t.Fatalf("counted %d increments, want %d", total, 8*200)
	}
}
