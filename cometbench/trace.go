package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/comet-explain/comet/internal/costmodel"
	"github.com/comet-explain/comet/internal/x86"
)

// span is one recorded interval at a layer boundary. Times are
// nanoseconds since the recorder started; Parent 0 marks a root. Every
// span of one run shares the recorder, which is the trace identifier.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one nil check per call site.
type recorder struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its handle.
func (r *recorder) begin(name string, parent int64) openSpan {
	if r == nil {
		return openSpan{}
	}
	return openSpan{r: r, id: r.next.Add(1), parent: parent, name: name, start: time.Since(r.t0).Nanoseconds()}
}

// openSpan is a span that has started but not ended.
type openSpan struct {
	r      *recorder
	id     int64
	parent int64
	name   string
	start  int64
}

// end closes the span and stores it.
func (s openSpan) end() {
	if s.r == nil {
		return
	}
	end := time.Since(s.r.t0).Nanoseconds()
	s.r.mu.Lock()
	s.r.spans = append(s.r.spans, span{ID: s.id, Parent: s.parent, Name: s.name, Start: s.start, End: end})
	s.r.mu.Unlock()
}

// layerTime is the aggregate of every span with one name.
type layerTime struct {
	Name    string
	Count   int
	TotalNS int64
	SelfNS  int64
}

// selfTimes aggregates spans by name. A span's self time is its
// duration minus the part of its interval that its children cover;
// children of one parent may overlap (concurrent workers), so the
// covered part is the union of their intervals.
func selfTimes(spans []span) []layerTime {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := make(map[string]*layerTime)
	var order []string
	for _, s := range spans {
		lt, ok := byName[s.Name]
		if !ok {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
			order = append(order, s.Name)
		}
		dur := s.End - s.Start
		lt.Count++
		lt.TotalNS += dur
		lt.SelfNS += dur - covered(s, children[s.ID])
	}
	sort.Strings(order)
	out := make([]layerTime, 0, len(order))
	for _, name := range order {
		out = append(out, *byName[name])
	}
	return out
}

// covered returns how much of parent's interval the union of kids
// covers.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// write stores the spans and their per-layer self times as JSON under
// dir and returns the file path.
func (r *recorder) write(dir, name string) (string, error) {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	data, err := json.Marshal(struct {
		Layers []layerTime `json:"layers"`
		Spans  []span      `json:"spans"`
	}{selfTimes(spans), spans})
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("writing trace: %w", err)
	}
	return path, nil
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// timedModel is the timing BatchCostModel the traced runs hand to the
// explainer: it forwards every call to the real model and counts the
// time spent inside it. Each batch call is a "model.PredictBatch" span
// under parent().
type timedModel struct {
	inner  costmodel.BatchModel
	rec    *recorder
	parent func() int64
	busyNS atomic.Int64
}

func newTimedModel(m costmodel.Model, rec *recorder, parent func() int64) *timedModel {
	return &timedModel{inner: costmodel.AsBatch(m), rec: rec, parent: parent}
}

func (m *timedModel) Name() string   { return m.inner.Name() }
func (m *timedModel) Arch() x86.Arch { return m.inner.Arch() }

func (m *timedModel) Predict(b *x86.BasicBlock) float64 {
	sp := m.rec.begin("model.Predict", m.parent())
	start := time.Now()
	v := m.inner.Predict(b)
	m.busyNS.Add(time.Since(start).Nanoseconds())
	sp.end()
	return v
}

func (m *timedModel) PredictBatch(blocks []*x86.BasicBlock) []float64 {
	sp := m.rec.begin("model.PredictBatch", m.parent())
	start := time.Now()
	out := m.inner.PredictBatch(blocks)
	m.busyNS.Add(time.Since(start).Nanoseconds())
	sp.end()
	return out
}
