// Command perfbench is the repository's benchmark: it drives the program
// through the paths a user hits — the simulator replaying a trace, the
// durable multi-tenant front door under an open loop, and efserver over
// HTTP — and prints every metric by name and unit, ending with one JSON
// line. See README.md in this directory for the workloads, the metrics and
// what each layer metric should move.
//
// Usage (normally through run.sh, which builds efserver first):
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
//	          --efserver <path> --workdir <dir>
//
// With --trace 0 the JSON carries the end-to-end metrics; with --trace 1 it
// carries the per-layer metrics, taken from spans the benchmark records
// around each call into the program. The exit code is non-zero when a
// correctness check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// env is what a workload gets from the command line.
type env struct {
	seed     int64
	seconds  float64
	trace    bool
	rec      *recorder // nil unless tracing
	efserver string    // efserver binary (http-mixed)
	dir      string    // private scratch directory (inside the checkout under run.sh)
}

// deadline is the end of the measured part of a run that started at start.
func (e *env) deadline(start time.Time) time.Time {
	return start.Add(time.Duration(e.seconds * float64(time.Second)))
}

// report is one workload run's outcome: operation counts, correctness
// problems, and every value measured, keyed by metric name.
type report struct {
	attempted, failed int
	problems          []string
	values            map[string]float64
	info              []string // extra lines for the human-readable table
}

func newReport() *report { return &report{values: make(map[string]float64)} }

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) note(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

type workload struct {
	name, why string
	run       func(*env) (*report, error)
}

// workloads is the benchmark's workload list; BENCHMARK.json repeats it
// (checked by TestBenchmarkJSONMatchesCatalog).
var workloads = []workload{
	{"sim-philly", "the paper's evaluation path: sim.Run replays a fixed Philly-scale prefix; core Admit and Schedule dominate, no store or HTTP", runSim},
	{"frontdoor-open", "open-loop durable 4-shard front door with heterogeneous trace arrivals and sweeps: gate, batch, WAL fsync, admit, place", runFrontDoor},
	{"http-mixed", "closed loop over HTTP against a durable efserver: unbatched submits, status reads and cancels on one platform mutex", runHTTP},
}

type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	traced := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	efserver := fs.String("efserver", "", "efserver binary (http-mixed)")
	workdir := fs.String("workdir", "", "directory for temporary state (default: the system temp dir)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload one of %s, --seconds > 0, --trace 0|1\n", workloadNames())
		return 2
	}
	dir, err := os.MkdirTemp(*workdir, "perfbench-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	e := &env{seed: *seed, seconds: *seconds, trace: *traced == 1, efserver: *efserver, dir: dir}
	if e.trace {
		e.rec = newRecorder()
	}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%g trace=%d %s\n", w.name, *seed, *seconds, *traced, hostFingerprint(dir))
	rep, err := w.run(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if e.trace {
		traceSummary(e.rec, rep)
		// The span file outlives the run's own directory, beside it.
		path := filepath.Join(filepath.Dir(dir), fmt.Sprintf("spans-%s-seed%d.json", w.name, *seed))
		if err := writeSpans(path, e.rec.snapshot()); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		rep.note("spans written to %s (Chrome trace-event JSON)", path)
	}
	out, ok := emit(rep, e.trace)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !ok {
		return 1
	}
	return 0
}

// emit prints the human-readable table and builds the JSON outcome from the
// catalog for the mode. It reports false when a correctness check failed.
func emit(rep *report, traced bool) (outcome, bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := outcome{Correct: len(rep.problems) == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := rep.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			rep.problems = append(rep.problems, fmt.Sprintf("metric %s is %v", d.name, v))
			out.Correct = false
			v = 0
		}
		switch {
		case ok:
			fmt.Printf("  %-34s %14.6g %s\n", d.name, v, d.unit)
		case traced:
			// Per-layer metrics of a layer this workload does not reach
			// read 0; README.md lists which workload measures which.
			fmt.Printf("  %-34s %14s %s\n", d.name, "n/a", d.unit)
		default:
			out.Correct = false
			rep.problems = append(rep.problems, "end-to-end metric "+d.name+" was not measured")
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for _, l := range rep.info {
		fmt.Printf("  %s\n", l)
	}
	fmt.Printf("  attempted %d, failed %d\n", rep.attempted, rep.failed)
	for _, p := range rep.problems {
		fmt.Printf("  CHECK FAILED: %s\n", p)
	}
	if rep.attempted < 1 {
		out.Attempted = 1
		out.Correct = false
		fmt.Println("  CHECK FAILED: no operation was attempted")
	}
	return out, out.Correct
}

// traceSummary turns the recorded spans into per-layer self times, checks
// that they add up to the traced duration, and estimates the recorder's
// own overhead.
func traceSummary(rec *recorder, rep *report) {
	spans := rec.snapshot()
	self, roots, err := selfTimes(spans)
	if err != nil {
		rep.check(false, "trace: %v", err)
		return
	}
	var sum time.Duration
	layers := make([]string, 0, len(self))
	for l, d := range self {
		sum += d
		layers = append(layers, l)
	}
	sort.Strings(layers)
	// A workload that repeats a whole unit of work (sim replays) reports
	// self times per unit; the others report them over the run.
	units := rep.values["bench.trace_units"]
	if units <= 0 {
		units = 1
	}
	for _, l := range layers {
		rep.set(l+".self_ms", ms(self[l])/units)
	}
	rep.set("bench.traced_ms", ms(roots)/units)
	rep.set("bench.spans", float64(len(spans)))
	if roots > 0 {
		gap := float64(sum-roots) / float64(roots)
		rep.note("per-layer self times sum to %.3f ms of %.3f ms traced (%.4f%%, tolerance %.0f%%)", ms(sum), ms(roots), 100*gap, 100*selfTolerance)
		rep.check(gap <= selfTolerance && gap >= -selfTolerance, "trace: self times sum to %.3f ms, traced duration %.3f ms", ms(sum), ms(roots))
	}
	if wall := rep.values["bench.measured_s"]; wall > 0 {
		rep.set("bench.trace_overhead_ratio", float64(len(spans))*spanCost().Seconds()/wall)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// hostFingerprint stamps a result with what its numbers depend on.
func hostFingerprint(dir string) string {
	kernel, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		kernel = []byte("unknown")
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		abs = dir
	}
	return fmt.Sprintf("num_cpu=%d gomaxprocs=%d go=%s kernel=%s tmpdir_fs=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), strings.TrimSpace(string(kernel)), fsType(abs))
}
