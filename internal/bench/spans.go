package bench

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"time"
)

// Span levels order the benchmark's spans from the whole run down to one
// call into a layer. A span's parent is the innermost enclosing span of a
// lower level, so the levels are what turns a flat list of timed calls into
// a tree without the layers having to know about each other.
const (
	LevelRun   = iota // the measured window of one workload
	LevelRound        // one federated round, one swap, one ladder step
	LevelRPC          // a coordinator-side call across the transport
	LevelCall         // a call into a layer (party handler, request, replay)
	LevelPart         // a part of a call (generator lateness inside a request)
)

// Span is one timed interval recorded from outside the program under test.
// Start and End are offsets from the trace epoch.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 = root
	Name   string        `json:"name"`
	Level  int           `json:"level"`
	Party  string        `json:"party,omitempty"`
	Round  int           `json:"round"` // round id or request id; -1 = none
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Self   time.Duration `json:"self_ns"`
}

// Trace keeps spans in memory until the run ends. The harness fills it after
// the measured window, from the logs the decorators and generators kept, so
// it needs no locking and costs the run nothing.
type Trace struct {
	epoch time.Time
	spans []Span
}

// NewTrace starts a trace whose offsets count from epoch.
func NewTrace(epoch time.Time) *Trace { return &Trace{epoch: epoch} }

// Add records a finished interval.
func (t *Trace) Add(name string, level int, party string, round int, start, end time.Time) {
	t.spans = append(t.spans, Span{
		Name: name, Level: level, Party: party, Round: round,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch),
	})
}

// Finish links every span to its parent and computes self times; call it
// once, after the last Add. It returns the spans ordered by start.
func (t *Trace) Finish() []Span {
	linkSpans(t.spans)
	return t.spans
}

// linkSpans sorts spans by start (outer levels first on ties), gives each the
// innermost enclosing span of a lower level as parent — for spans that name a
// party, only a parent naming the same party or none — and sets Self to the
// duration minus the part of the interval its children cover.
func linkSpans(spans []Span) {
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].Level < spans[j].Level
	})
	for i := range spans {
		spans[i].ID = i + 1
	}
	var open []int                   // indices of spans that may still enclose later ones
	children := make(map[int][]Span) // in start order, as the walk appends them
	for i := range spans {
		s := &spans[i]
		live := open[:0]
		for _, j := range open {
			if spans[j].End > s.Start {
				live = append(live, j)
			}
		}
		open = live
		best := -1
		for _, j := range open {
			p := &spans[j]
			if p.Level >= s.Level || p.End < s.End {
				continue
			}
			if p.Party != "" && s.Party != "" && p.Party != s.Party {
				continue
			}
			if best < 0 || p.Level > spans[best].Level ||
				(p.Level == spans[best].Level && p.Start >= spans[best].Start) {
				best = j
			}
		}
		if best >= 0 {
			s.Parent = spans[best].ID
			children[best] = append(children[best], *s)
		}
		open = append(open, i)
	}
	for i := range spans {
		s := &spans[i]
		s.Self = s.End - s.Start - coverage(children[i], s.Start, s.End)
	}
}

// coverage is the length of the union of the spans' intervals, clipped to
// [lo, hi]. The spans must be in start order.
func coverage(spans []Span, lo, hi time.Duration) time.Duration {
	var total, edge time.Duration
	edge = lo
	for _, s := range spans {
		a, b := s.Start, s.End
		if a < edge {
			a = edge
		}
		if b > hi {
			b = hi
		}
		if b > a {
			total += b - a
			edge = b
		}
	}
	return total
}

// WriteSpans writes one JSON object per span, prefixed by the workload name
// so several workloads can share a file.
func WriteSpans(w io.Writer, workload string, spans []Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	type line struct {
		Workload string `json:"workload"`
		Span
	}
	for _, s := range spans {
		if err := enc.Encode(line{Workload: workload, Span: s}); err != nil {
			return err
		}
	}
	return bw.Flush()
}
