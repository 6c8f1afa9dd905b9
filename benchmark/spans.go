package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (spans inside the program are a later change). Parent is the
// index of the span that caused it, -1 for a root; spans of one
// operation share their root.
type span struct {
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"` // since the recorder was made
	End      int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Rank     int    `json:"rank"` // -1 when not on a rank
	Iter     int    `json:"iter"` // -1 when not in the loop
}

// recorder keeps spans in a fixed-capacity buffer in memory and writes
// nothing until the workload has ended. A nil recorder records nothing,
// which is how the untraced run is spelled.
type recorder struct {
	mu       sync.Mutex
	epoch    time.Time
	workload string
	spans    []span
	dropped  int
}

const spanCapacity = 1 << 16

func newRecorder(workload string) *recorder {
	return &recorder{epoch: time.Now(), workload: workload, spans: make([]span, 0, spanCapacity)}
}

// begin opens a span and returns its index, or -1 when the recorder is
// nil or full.
func (r *recorder) begin(name string, parent, rank, iter int) int {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) == cap(r.spans) {
		r.dropped++
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: now, End: now, Parent: parent,
		Workload: r.workload, Rank: rank, Iter: iter})
	return len(r.spans) - 1
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its direct children cover. Children may overlap each
// other (ranks run side by side), so their intervals are merged before
// they are subtracted; a child is clipped to its parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			p := spans[s.Parent]
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				children[s.Parent] = append(children[s.Parent], [2]int64{lo, hi})
			}
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		iv := children[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, end := int64(0), s.Start
		for _, c := range iv {
			if c[1] <= end {
				continue
			}
			covered += c[1] - max(c[0], end)
			end = c[1]
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// spanTotal is the accounting of all spans of one name.
type spanTotal struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

// summarize groups spans by name, in order of first appearance.
func summarize(spans []span) []spanTotal {
	self := selfTimes(spans)
	idx := make(map[string]int)
	var out []spanTotal
	for i, s := range spans {
		j, ok := idx[s.Name]
		if !ok {
			j = len(out)
			idx[s.Name] = j
			out = append(out, spanTotal{Name: s.Name})
		}
		out[j].Count++
		out[j].Total += time.Duration(s.End - s.Start)
		out[j].Self += time.Duration(self[i])
	}
	return out
}

// writeSpans writes the recorded spans as one JSON document.
func writeSpans(path string, spans []span, dropped int) error {
	data, err := json.Marshal(struct {
		Dropped int    `json:"dropped"`
		Spans   []span `json:"spans"`
	}{dropped, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
