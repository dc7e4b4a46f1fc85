package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// percentile returns the q-quantile of xs by nearest rank on a sorted copy:
// the smallest value with at least a q share of the samples at or below
// it. It returns 0 for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// span is one timed call into a layer, recorded by the benchmark around a
// public function of the program. parent is the handle of the span that
// caused it, 0 for a root.
type span struct {
	layer, name string
	parent      int
	start, end  time.Duration // since the recorder's t0; end < 0 while open
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, so untraced runs pay one nil check per call site.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span // guarded by mu
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span now and returns its handle (0 on a nil recorder).
func (r *recorder) begin(layer, name string, parent int) int {
	if r == nil {
		return 0
	}
	return r.beginAt(layer, name, parent, time.Now())
}

// beginAt opens a span that started at t, such as a request timed from its
// due time.
func (r *recorder) beginAt(layer, name string, parent int, t time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{layer: layer, name: name, parent: parent, start: t.Sub(r.t0), end: -1})
	return len(r.spans)
}

// end closes the span with handle id now.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	r.endAt(id, time.Now())
}

// endAt closes the span with handle id at t.
func (r *recorder) endAt(id int, t time.Time) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].end = t.Sub(r.t0)
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each layer's self time — the sum over its spans of the
// span's duration minus the part of that interval its child spans cover —
// and the summed duration of the root spans. When children nest inside
// their parents and siblings do not overlap, the self times add up to the
// root total exactly; the run checks that they do within selfTolerance.
func selfTimes(spans []span) (map[string]time.Duration, time.Duration, error) {
	children := make(map[int][]span)
	var roots time.Duration
	for i, s := range spans {
		if s.end < s.start {
			return nil, 0, fmt.Errorf("span %d (%s %s) was never closed", i+1, s.layer, s.name)
		}
		if s.parent == 0 {
			roots += s.end - s.start
		} else {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for i, s := range spans {
		self[s.layer] += s.end - s.start - covered(s, children[i+1])
	}
	return self, roots, nil
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.start, parent.start), min(k.end, parent.end)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi time.Duration
	open := false
	for _, v := range iv {
		if open && v[0] <= curHi {
			curHi = max(curHi, v[1])
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = v[0], v[1], true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// selfTolerance is how far the per-layer self times may sum away from the
// root spans' total before a traced run fails: overlapping sibling spans
// are counted twice and show up as an excess.
const selfTolerance = 0.01

// spanCost measures what recording one span costs on this host, so a
// traced run can report its own overhead as spans × cost over the measured
// wall time.
func spanCost() time.Duration {
	const n = 200_000
	r := newRecorder()
	start := time.Now()
	for i := 0; i < n; i++ {
		r.end(r.begin("bench", "calibrate", 0))
	}
	return time.Since(start) / n
}

// traceEvent is one complete ("X") event of the Chrome trace-event format,
// which chrome://tracing and Perfetto open. Times are in microseconds.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeSpans writes spans to path as Chrome trace-event JSON: the layer is
// the category, and every span sits on the track of its root, so spans
// that overlap in time (the requests of an open loop, two HTTP workers)
// get tracks of their own while each one's children nest inside it.
func writeSpans(path string, spans []span) error {
	roots := make([]int, len(spans)) // handle of each span's root
	events := make([]traceEvent, len(spans))
	for i, s := range spans {
		roots[i] = i + 1
		if s.parent != 0 {
			roots[i] = roots[s.parent-1] // a parent opens before its children
		}
		events[i] = traceEvent{
			Name: s.name, Cat: s.layer, Ph: "X",
			TS:  float64(s.start) / float64(time.Microsecond),
			Dur: float64(s.end-s.start) / float64(time.Microsecond),
			PID: 1, TID: roots[i],
			Args: map[string]int{"id": i + 1, "parent": s.parent},
		}
	}
	data, err := json.Marshal(struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}{events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
