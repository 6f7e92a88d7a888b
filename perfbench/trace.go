package main

import (
	"bufio"
	"encoding/json"
	"os"
	"strings"
	"time"
)

// The traced run records spans around the benchmark's own calls into each
// layer. A lane holds the spans of one goroutine (or of one child process):
// a root span covering the lane's lifetime, nested spans with their parent,
// and aggregates — for calls made once per simulated cycle or per message,
// which would be too many to keep one by one, a lane keeps a count and a
// total duration per (parent, name) instead. Spans stay in memory, are
// written out at the end, and are reduced to self times: a span's duration
// minus the part of it its children cover.

// span is one timed call. Times are nanoseconds since the lane's epoch.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"` // index into the lane's spans; -1 for the root
	Req    int64  `json:"req"`    // the scenario or request the span serves
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// agg accumulates back-to-back calls of one layer under one parent span.
type agg struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Count  int64  `json:"count"`
	Total  int64  `json:"total_ns"`
}

// lap charges the time since t (a lane clock reading) and n calls to the
// aggregate and returns the new clock reading. On an untraced run (nil
// aggregate) it reads no clock.
func (a *agg) lap(l *lane, t int64, n int64) int64 {
	if a == nil {
		return 0
	}
	now := l.now()
	a.Count += n
	a.Total += now - t
	return now
}

// lane is the span recorder of one goroutine; it is not safe for
// concurrent use. A nil lane records nothing and reads no clock, so one
// driver serves the traced and the untraced run.
type lane struct {
	epoch time.Time
	Spans []span `json:"spans"`
	Aggs  []*agg `json:"aggs"`
}

func newLane(epoch time.Time) *lane { return &lane{epoch: epoch} }

// now reads the lane clock.
func (l *lane) now() int64 {
	if l == nil {
		return 0
	}
	return int64(time.Since(l.epoch))
}

// begin opens a span and returns its id.
func (l *lane) begin(name string, parent int, req int64) int {
	if l == nil {
		return -1
	}
	l.Spans = append(l.Spans, span{Name: name, Parent: parent, Req: req, Start: l.now()})
	return len(l.Spans) - 1
}

// end closes a span.
func (l *lane) end(id int) {
	if l != nil {
		l.Spans[id].End = l.now()
	}
}

// agg returns a fresh aggregate of calls named name under span parent.
func (l *lane) agg(parent int, name string) *agg {
	if l == nil {
		return nil
	}
	a := &agg{Name: name, Parent: parent}
	l.Aggs = append(l.Aggs, a)
	return a
}

// layerOf is the layer a span name belongs to: the part before the first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfTimes reduces lanes to self nanoseconds per layer and the total lane
// time (the sum of the root spans' durations). Overlapping siblings — the
// pipelined requests of a serve connection — are trimmed so that each
// instant counts once, towards the sibling that started first; self times
// of all layers then sum to the lane time.
func selfTimes(lanes []*lane) (self map[string]int64, laneNS int64) {
	self = map[string]int64{}
	for _, l := range lanes {
		lo := make([]int64, len(l.Spans))
		hi := make([]int64, len(l.Spans))
		covered := make([]int64, len(l.Spans))
		last := make([]int64, len(l.Spans)) // latest end among a span's children so far
		for i, s := range l.Spans {
			lo[i], hi[i] = s.Start, s.End
			if p := s.Parent; p >= 0 {
				// Spans are recorded in start order, so clipping against the
				// earlier siblings and the parent keeps children disjoint.
				lo[i] = min(max(lo[i], last[p], lo[p]), hi[p])
				hi[i] = max(lo[i], min(hi[i], hi[p]))
				last[p] = max(last[p], s.End)
				covered[p] += hi[i] - lo[i]
			} else {
				laneNS += hi[i] - lo[i]
			}
		}
		for _, a := range l.Aggs {
			covered[a.Parent] += a.Total
			self[layerOf(a.Name)] += a.Total
		}
		for i, s := range l.Spans {
			self[layerOf(s.Name)] += max(0, hi[i]-lo[i]-covered[i])
		}
	}
	return self, laneNS
}

// callStats sums the count and total nanoseconds of every span and
// aggregate with the given name.
func callStats(lanes []*lane, name string) (count, total int64) {
	for _, l := range lanes {
		for _, s := range l.Spans {
			if s.Name == name {
				count++
				total += s.End - s.Start
			}
		}
		for _, a := range l.Aggs {
			if a.Name == name {
				count += a.Count
				total += a.Total
			}
		}
	}
	return count, total
}

// meanNS is the mean duration of the calls with the given name (0 if none).
func meanNS(lanes []*lane, name string) float64 {
	n, total := callStats(lanes, name)
	return ratio(float64(total), float64(n))
}

// traceLayers fills the self-time split, coverage and overhead of a traced
// run: self_ms.<layer> is the layer's self time per traced pass, coverage
// the share of lane time spent inside some layer's span rather than in the
// benchmark's own code, overhead the traced pass time over the untraced
// pass time.
func traceLayers(l layers, lanes []*lane, tracedPasses int, traced, untraced time.Duration) {
	self, laneNS := selfTimes(lanes)
	for layer, ns := range self {
		l["self_ms."+layer] = float64(ns) / 1e6 / float64(max(1, tracedPasses))
	}
	l["trace.coverage"] = 1 - ratio(float64(self["bench"]), float64(laneNS))
	l["trace.overhead"] = ratio(float64(traced), float64(untraced))
}

// writeSpans dumps every lane as JSON lines (one line per span or
// aggregate, tagged with its lane number) for offline inspection.
func writeSpans(path string, lanes []*lane) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, l := range lanes {
		for _, s := range l.Spans {
			if err := enc.Encode(struct {
				Lane int `json:"lane"`
				span
			}{i, s}); err != nil {
				f.Close()
				return err
			}
		}
		for _, a := range l.Aggs {
			if err := enc.Encode(struct {
				Lane int `json:"lane"`
				*agg
			}{i, a}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
