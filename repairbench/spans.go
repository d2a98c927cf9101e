package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed region of a traced run: a layer entry point called
// from the benchmark, or a span the program already reports (such as
// metarepair.Report.Spans) re-parented under the job that produced it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root span
	Job    int    `json:"job"`    // job sequence number; -1: not part of a job
	Name   string `json:"name"`
	// Start and End are seconds since the recorder's origin.
	Start float64 `json:"start_s"`
	End   float64 `json:"end_s"`
	Self  float64 `json:"self_s"`
}

// spanRecorder keeps a traced run's spans in memory until the run ends.
// A nil *spanRecorder records nothing, so untraced code paths call the
// same methods at no cost.
type spanRecorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newSpanRecorder(origin time.Time) *spanRecorder {
	return &spanRecorder{origin: origin}
}

// add records a finished span and returns its id (0 when r is nil).
func (r *spanRecorder) add(parent, job int, name string, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Job: job, Name: name,
		Start: start.Sub(r.origin).Seconds(), End: end.Sub(r.origin).Seconds(),
	})
	return id
}

// finish computes every span's self time and returns the spans in
// recording order.
func (r *spanRecorder) finish() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]span(nil), r.spans...)
	selfTimes(out)
	return out
}

// selfTimes sets each span's Self: its duration minus the part of its
// interval that its children cover. Children may overlap one another
// (explore and backtest run concurrently), so the covered part is the
// union of the children's intervals, clipped to the parent.
func selfTimes(spans []span) {
	children := make(map[int][][2]float64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		s.Self = (s.End - s.Start) - covered(children[s.ID], s.Start, s.End)
	}
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]float64, lo, hi float64) float64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	total, curLo, curHi := 0.0, 0.0, 0.0
	open := false
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		switch {
		case !open:
			curLo, curHi, open = a, b, true
		case a <= curHi:
			curHi = max(curHi, b)
		default:
			total += curHi - curLo
			curLo, curHi = a, b
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// selfByName totals self time per span name.
func selfByName(spans []span) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += s.Self
	}
	return out
}
