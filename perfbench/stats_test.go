package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.1, 1}, {0.5, 5}, {0.9, 9}, {0.95, 10}, {0.99, 10}, {1, 10},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
	// A failure recorded as +Inf sorts last, so it counts as missing any
	// limit the percentile is held to.
	if got := percentile([]float64{1, 2, math.Inf(1)}, 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 with a failure = %v, want +Inf", got)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2 {
		t.Errorf("median of an even count = %v, want the lower middle 2", got)
	}
}

// spanAt builds a closed span from millisecond bounds.
func spanAt(layer string, parent int, from, to int) span {
	return span{layer: layer, name: layer, parent: parent, start: time.Duration(from) * time.Millisecond, end: time.Duration(to) * time.Millisecond}
}

func TestSelfTimesAddUpToRoots(t *testing.T) {
	spans := []span{
		spanAt("sim", 0, 0, 100),   // 1: root
		spanAt("core", 1, 10, 40),  // 2
		spanAt("core", 1, 50, 90),  // 3
		spanAt("store", 3, 60, 70), // 4: grandchild
		spanAt("bench", 0, 200, 230),
	}
	self, roots, err := selfTimes(spans)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{"sim": 30 * time.Millisecond, "core": 60 * time.Millisecond, "store": 10 * time.Millisecond, "bench": 30 * time.Millisecond}
	var sum time.Duration
	for l, d := range want {
		if self[l] != d {
			t.Errorf("self[%s] = %v, want %v", l, self[l], d)
		}
		sum += self[l]
	}
	if roots != 130*time.Millisecond || sum != roots {
		t.Errorf("roots %v, self sum %v; want both 130ms", roots, sum)
	}
}

func TestSelfTimesOverlapShowsAsExcess(t *testing.T) {
	// Overlapping siblings cover the parent once, but each keeps its own
	// self time, so the sum exceeds the traced duration and the run's
	// tolerance check catches the bad nesting.
	spans := []span{
		spanAt("bench", 0, 0, 100),
		spanAt("core", 1, 0, 60),
		spanAt("core", 1, 40, 100),
		spanAt("core", 1, 150, 170), // outside its parent: clipped away
	}
	self, roots, err := selfTimes(spans)
	if err != nil {
		t.Fatal(err)
	}
	if self["bench"] != 0 {
		t.Errorf("parent self = %v, want 0 (children cover it once)", self["bench"])
	}
	if sum := self["bench"] + self["core"]; sum <= roots {
		t.Errorf("self sum %v should exceed traced %v when siblings overlap", sum, roots)
	}
}

func TestSelfTimesRejectsOpenSpan(t *testing.T) {
	spans := []span{{layer: "sim", name: "sim.Run", start: 5, end: -1}}
	if _, _, err := selfTimes(spans); err == nil || !strings.Contains(err.Error(), "never closed") {
		t.Errorf("err = %v, want a never-closed error", err)
	}
}

func TestRecorderNilIsNoop(t *testing.T) {
	var r *recorder
	id := r.begin("core", "x", 0)
	r.end(id)
	r.endAt(r.beginAt("core", "y", id, time.Now()), time.Now())
	if id != 0 || r.snapshot() != nil {
		t.Errorf("nil recorder recorded something")
	}
	rec := newRecorder()
	root := rec.begin("bench", "root", 0)
	rec.end(rec.begin("core", "child", root))
	rec.end(root)
	if s := rec.snapshot(); len(s) != 2 || s[1].parent != root || s[0].end < s[1].end {
		t.Errorf("recorded spans %+v", s)
	}
}

func TestPromSeries(t *testing.T) {
	text := `# HELP ef_x help
# TYPE ef_x counter
ef_store_records_total{kind="submit"} 4
ef_store_records_total{kind="advance"} 6
ef_sched_decision_seconds_sum{op="admit"} 0.25
ef_sched_decision_seconds_sum{op="allocate"} 1.5
`
	m, err := promSeries(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := sumSeries(m, "ef_store_records_total"); got != 10 {
		t.Errorf("records = %v, want 10", got)
	}
	if got := sumSeries(m, "ef_sched_decision_seconds_sum", `op="admit"`); got != 0.25 {
		t.Errorf("admit seconds = %v, want 0.25", got)
	}
	if _, err := promSeries(strings.NewReader("novalue\n")); err == nil {
		t.Error("a line without a value parsed")
	}
}

func TestPauseBetweenReadsTheRing(t *testing.T) {
	ring := make([]float64, 256)
	for i := range ring {
		ring[i] = float64(i + 1)
	}
	a := serverCounters{goStats: goStats{gcCycles: 10}}
	b := serverCounters{goStats: goStats{gcCycles: 13}, pauses: ring}
	// GC n's pause sits at PauseNs[(n+255)%256]: GCs 11..13 → slots 10..12.
	if got, want := pauseBetween(a, b), 11.0+12+13; got != want {
		t.Errorf("pauseBetween = %v, want %v", got, want)
	}
}

func TestWriteSpansChromeTrace(t *testing.T) {
	spans := []span{
		spanAt("bench", 0, 0, 100),  // 1: root
		spanAt("core", 1, 10, 40),   // 2
		spanAt("store", 2, 20, 30),  // 3: grandchild
		spanAt("bench", 0, 50, 120), // 4: overlapping root
	}
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := writeSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got struct{ TraceEvents []traceEvent }
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.TraceEvents) != len(spans) {
		t.Fatalf("got %d events, want %d", len(got.TraceEvents), len(spans))
	}
	for i, want := range []struct {
		cat         string
		ts, dur     float64
		tid, parent int
	}{
		{"bench", 0, 100e3, 1, 0},
		{"core", 10e3, 30e3, 1, 1},
		{"store", 20e3, 10e3, 1, 2},
		{"bench", 50e3, 70e3, 4, 0},
	} {
		ev := got.TraceEvents[i]
		if ev.Ph != "X" || ev.Cat != want.cat || ev.TS != want.ts || ev.Dur != want.dur || ev.TID != want.tid || ev.Args["parent"] != want.parent || ev.Args["id"] != i+1 {
			t.Errorf("event %d = %+v, want %+v", i, ev, want)
		}
	}
}
