package load

import (
	"sort"
	"time"
)

// Span is one timed interval of a traced request. Start and End are
// nanoseconds since the recorder was created; Parent is the ID of the span
// that caused this one, or -1 for a request's root span. Spans of one
// request share Req.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Counters carries ledger deltas attached at the request's root span.
	Counters map[string]int64 `json:"counters,omitempty"`
}

// Recorder keeps spans in memory until the benchmark writes them out. It is
// used by one goroutine (the traced pass has one client).
type Recorder struct {
	epoch time.Time
	Spans []Span
}

// NewRecorder starts a recorder whose clock begins now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Begin opens a span now and returns its ID.
func (r *Recorder) Begin(name string, parent, req int) int {
	id := len(r.Spans)
	r.Spans = append(r.Spans, Span{ID: id, Parent: parent, Req: req, Name: name, Start: r.since(time.Now())})
	return id
}

// End closes the span now.
func (r *Recorder) End(id int) { r.Spans[id].End = r.since(time.Now()) }

// Add records a span whose interval was measured elsewhere (for example
// the queue and execution times an ExecResult reports).
func (r *Recorder) Add(name string, parent, req int, start time.Time, d time.Duration) int {
	id := len(r.Spans)
	s := r.since(start)
	r.Spans = append(r.Spans, Span{ID: id, Parent: parent, Req: req, Name: name, Start: s, End: s + d.Nanoseconds()})
	return id
}

func (r *Recorder) since(t time.Time) int64 { return t.Sub(r.epoch).Nanoseconds() }

// SelfTimes returns, per span ID, the span's duration minus the part of its
// interval that its child spans cover. Children may overlap one another (a
// producer and a consumer running concurrently) and may stick out of the
// parent; only the union of their intervals inside the parent is taken off.
func SelfTimes(spans []Span) map[int]int64 {
	type iv struct{ lo, hi int64 }
	kids := map[int][]iv{}
	byID := map[int]Span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			kids[s.Parent] = append(kids[s.Parent], iv{lo, hi})
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered, end := int64(0), s.Start
		for _, v := range ivs {
			if v.hi <= end {
				continue
			}
			covered += v.hi - max(v.lo, end)
			end = v.hi
		}
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}

// SelfByName sums SelfTimes over spans of the same name.
func SelfByName(spans []Span) map[string]int64 {
	self := SelfTimes(spans)
	out := map[string]int64{}
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}
