package obs

import (
	"sort"
	"sync"
	"time"
)

// Kept records why the store kept a trace; one trace can have several
// reasons (a head-sampled request that was also slow).
type Kept uint8

const (
	KeptSampled Kept = 1 << iota // head-sampled: 1 in N traces by trace ID
	KeptForced                   // the route or the request asked for it
	KeptSlow                     // slower than the slow threshold
	KeptError                    // answered with status >= 500

	keptTraced  = KeptSampled | KeptForced // listed by GET /debug/traces
	keptOutlier = KeptSlow | KeptError     // listed by ?outliers=1
)

// String names the most telling reason: error, slow, forced, sampled.
func (k Kept) String() string {
	switch {
	case k&KeptError != 0:
		return "error"
	case k&KeptSlow != 0:
		return "slow"
	case k&KeptForced != 0:
		return "forced"
	case k&KeptSampled != 0:
		return "sampled"
	}
	return ""
}

// TraceEntry is one kept trace fragment: a root span and every span
// started under it in this process, with the outcome that got it kept.
// It is also the JSON shape of one GET /debug/traces?outliers=1 entry.
type TraceEntry struct {
	TraceID    string    `json:"trace_id"`
	Route      string    `json:"route"`
	Status     int       `json:"status"`
	Reason     string    `json:"reason"` // Kept.String of the reasons
	Start      time.Time `json:"start"`
	DurationUS int64     `json:"duration_us"`
	// Process labels the recording process in federated views.
	Process string       `json:"process,omitempty"`
	Spans   []SpanRecord `json:"spans,omitempty"`

	kept Kept
	seq  uint64 // commit order across both queues
}

// cost is what the entry occupies in the store: its spans, or one slot
// for an outlier recorded without any.
func (e *TraceEntry) cost() int { return max(len(e.Spans), 1) }

// outlierShare bounds the outliers' claim on the store: slow and error
// traces may fill up to 1/outlierShare of it before they push out their
// own oldest. Below that share, only sampled and forced traces are
// pushed out, so a flood of head-sampled traffic never evicts the
// outliers an operator came to look at.
const outlierShare = 2

// Store is the bounded store of kept traces, sized in spans. Entries
// live in two commit-ordered queues — traces kept only by head sampling
// or forcing, and outliers — and eviction always takes the oldest entry
// of one queue, as outlierShare decides.
type Store struct {
	mu       sync.Mutex
	size     int
	queues   [2][]*TraceEntry // 0: sampled/forced only, 1: outliers
	used     [2]int           // cost held by each queue
	seq      uint64
	outliers uint64 // outlier entries ever committed
}

func newStore(size int) *Store {
	return &Store{size: max(size, 64)}
}

func (s *Store) add(e *TraceEntry) {
	q := 0
	if e.kept&keptOutlier != 0 {
		q = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	e.seq = s.seq
	if q == 1 {
		s.outliers++
	}
	s.queues[q] = append(s.queues[q], e)
	s.used[q] += e.cost()
	for s.used[0]+s.used[1] > s.size {
		victim := 0
		if s.used[1] > s.size/outlierShare || len(s.queues[0]) == 0 {
			victim = 1
		}
		old := s.queues[victim][0]
		s.queues[victim][0] = nil
		s.queues[victim] = s.queues[victim][1:]
		s.used[victim] -= old.cost()
	}
}

// Outliers returns the retained slow/error traces newest first, plus how
// many were ever committed (so readers can tell how much the store has
// forgotten).
func (s *Store) Outliers() ([]TraceEntry, uint64) {
	if s == nil {
		return nil, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.queues[1]
	out := make([]TraceEntry, len(q))
	for i, e := range q {
		out[len(q)-1-i] = *e
	}
	return out, s.outliers
}

// spans flattens the spans of the sampled and forced traces, commit
// order. Entries are immutable once added, so only the queue walk needs
// the lock.
func (s *Store) spans() []SpanRecord {
	if s == nil {
		return nil
	}
	var kept []*TraceEntry
	s.mu.Lock()
	for _, q := range s.queues {
		for _, e := range q {
			if e.kept&keptTraced != 0 {
				kept = append(kept, e)
			}
		}
	}
	s.mu.Unlock()
	sort.Slice(kept, func(i, j int) bool { return kept[i].seq < kept[j].seq })
	var out []SpanRecord
	for _, e := range kept {
		out = append(out, e.Spans...)
	}
	return out
}

// TraceSummary is one trace in the GET /debug/traces listing.
type TraceSummary struct {
	TraceID string    `json:"trace_id"`
	Root    string    `json:"root"` // name of the oldest span (the best root guess in a bounded store)
	Spans   int       `json:"spans"`
	Start   time.Time `json:"start"`
	// DurationUS covers first span start to last span end — wall clock of
	// everything the store still holds for this trace.
	DurationUS int64 `json:"duration_us"`
}

// Traces lists the sampled and forced traces the store holds, most
// recently committed first, capped at limit (0 means no cap).
func (s *Store) Traces(limit int) []TraceSummary {
	byTrace := make(map[string]*TraceSummary)
	lastEnd := make(map[string]time.Time)
	var order []string // trace IDs by first appearance
	for _, sp := range s.spans() {
		end := sp.Start.Add(time.Duration(sp.DurationUS) * time.Microsecond)
		ts, ok := byTrace[sp.TraceID]
		if !ok {
			ts = &TraceSummary{TraceID: sp.TraceID, Root: sp.Name, Start: sp.Start}
			byTrace[sp.TraceID] = ts
			order = append(order, sp.TraceID)
		}
		ts.Spans++
		if sp.Start.Before(ts.Start) {
			ts.Start, ts.Root = sp.Start, sp.Name
		}
		if end.After(lastEnd[sp.TraceID]) {
			lastEnd[sp.TraceID] = end
		}
	}
	out := make([]TraceSummary, 0, len(byTrace))
	for i := len(order) - 1; i >= 0; i-- { // most recent trace first
		ts := *byTrace[order[i]]
		ts.DurationUS = lastEnd[ts.TraceID].Sub(ts.Start).Microseconds()
		out = append(out, ts)
		if limit > 0 && len(out) == limit {
			break
		}
	}
	return out
}

// Trace returns every span of one sampled or forced trace the store
// holds, ordered by start time with span-ID tie-breaks.
func (s *Store) Trace(id string) []SpanRecord {
	var out []SpanRecord
	for _, sp := range s.spans() {
		if sp.TraceID == id {
			out = append(out, sp)
		}
	}
	return MergeSpans(out)
}
