// Command efbench regenerates the paper's tables and figures.
//
// Usage:
//
//	efbench [-exp id[,id...]] [-quick] [-list] [-json file]
//
// Without -exp it runs every experiment in order. With -json it also writes
// a machine-readable performance report (see internal/bench): per-experiment
// wall time, scheduler decisions/sec, allocation runs/sec, the plan cache's
// hit rate, and a tracing calibration (span count plus the relative
// wall-time overhead of span emission, measured by running the same
// simulated workload with and without a tracer) — the BENCH.json artifact
// CI archives per commit.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/elasticflow/elasticflow/internal/bench"
	"github.com/elasticflow/elasticflow/internal/core"
	"github.com/elasticflow/elasticflow/internal/experiments"
	"github.com/elasticflow/elasticflow/internal/model"
	"github.com/elasticflow/elasticflow/internal/obs"
	"github.com/elasticflow/elasticflow/internal/obs/tracing"
	"github.com/elasticflow/elasticflow/internal/sim"
	"github.com/elasticflow/elasticflow/internal/throughput"
	"github.com/elasticflow/elasticflow/internal/topology"
	"github.com/elasticflow/elasticflow/internal/trace"
)

func main() {
	exp := flag.String("exp", "", "comma-separated experiment IDs (default: all)")
	quick := flag.Bool("quick", false, "shrink workloads for a fast pass")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	out := flag.String("out", "", "also write each table to <dir>/<id>.txt")
	jsonOut := flag.String("json", "", "write a machine-readable perf report to this file (e.g. BENCH.json)")
	flag.Parse()

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "efbench: %v\n", err)
			os.Exit(1)
		}
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	ids := experiments.IDs()
	if *exp != "" {
		ids = strings.Split(*exp, ",")
	}
	// efbench is the measurement harness, so it injects the real wall clock;
	// the experiments package itself stays deterministic (detlint-enforced).
	opts := experiments.Options{Quick: *quick, Clock: time.Now}
	report := &bench.Report{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), Quick: *quick}
	for _, id := range ids {
		gen, ok := experiments.Registry[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "efbench: unknown experiment %q (use -list)\n", id)
			os.Exit(2)
		}
		core.ResetPlanCacheStats()
		core.ResetDecisionStats()
		start := time.Now()
		table, err := gen(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "efbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		wall := time.Since(start).Seconds()
		hits, misses := core.PlanCacheStats()
		admits, allocs := core.DecisionStats()
		report.Experiments = append(report.Experiments, bench.Experiment{
			ID:              id,
			WallSec:         wall,
			Decisions:       admits,
			Allocations:     allocs,
			PlanCacheHits:   hits,
			PlanCacheMisses: misses,
			Metrics:         table.Metrics,
			Frontdoor:       table.Frontdoor,
		})
		fmt.Println(table)
		fmt.Printf("(%s took %.1fs)\n\n", id, wall)
		if *out != "" {
			path := filepath.Join(*out, id+".txt")
			if err := os.WriteFile(path, []byte(table.String()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "efbench: writing %s: %v\n", path, err)
				os.Exit(1)
			}
		}
	}
	if *jsonOut != "" {
		spans, overhead, err := traceCalibration(*quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "efbench: trace calibration: %v\n", err)
			os.Exit(1)
		}
		report.SpanCount = spans
		report.TraceOverhead = overhead
		fmt.Printf("trace calibration: %d spans, %.1f%% overhead\n\n", spans, 100*overhead)
		report.Finalize()
		f, err := os.Create(*jsonOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "efbench: %v\n", err)
			os.Exit(1)
		}
		if err := report.Write(f); err != nil {
			fmt.Fprintf(os.Stderr, "efbench: writing %s: %v\n", *jsonOut, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "efbench: closing %s: %v\n", *jsonOut, err)
			os.Exit(1)
		}
	}
}

// traceCalibration measures span tracing's cost: the same deterministic
// simulated workload, identical in every decision, run with the full
// observability stack and then again with a span tracer added. Returns the
// traced run's span count and the relative wall-time overhead
// (traced/untraced − 1; clamped at 0 when noise makes the traced run
// faster). The measurement is noise-hardened two ways: the arms run as
// interleaved baseline/traced pairs and the reported overhead comes from
// the median pairwise ratio, so a load burst on the host inflates both
// halves of a pair (ratio unchanged) or a minority of pairs (discarded
// by the median); and the workload is NOT shrunk under -quick — a 40-job
// run finishes in a few milliseconds, where one scheduler hiccup reads
// as double-digit overhead; 200 jobs (~0.3s per run, ~3s for the whole
// calibration) keeps the ratio honest. A throwaway warm-up run precedes
// the pairs so allocator and cache warm-up is charged to neither arm.
func traceCalibration(bool) (uint64, float64, error) {
	const jobs = 200
	const reps = 5
	runOnce := func(tr *tracing.Tracer) (uint64, float64, error) {
		tc := trace.Generate(trace.Config{Name: "calib", Jobs: jobs, ClusterGPUs: 128, Load: 1.2, Seed: 7})
		hw := model.DefaultA100()
		est := throughput.NewEstimator(hw)
		jobList, err := tc.Jobs(throughput.NewProfiler(est, 8, tc.GPUs), est)
		if err != nil {
			return 0, 0, err
		}
		sink := obs.New(obs.Options{RingSize: 1 << 20, Tracer: tr})
		s := core.New(core.Options{PowerOfTwo: true}).WithObs(sink)
		// Settle the heap so neither arm pays the other's GC debt.
		runtime.GC()
		start := time.Now()
		if _, err := sim.Run(sim.Config{
			Topology:  topology.Config{Servers: tc.GPUs / 8, GPUsPerServer: 8},
			Scheduler: s,
			SampleSec: 600,
			Obs:       sink,
		}, jobList, tc.Name); err != nil {
			return 0, 0, err
		}
		return sink.Tracer().Count(), time.Since(start).Seconds(), nil
	}
	if _, _, err := runOnce(nil); err != nil { // warm-up
		return 0, 0, err
	}
	var spans uint64
	var ratios []float64
	for i := 0; i < reps; i++ {
		_, baseline, err := runOnce(nil)
		if err != nil {
			return 0, 0, err
		}
		s, traced, err := runOnce(tracing.New(7).WithCap(1 << 20))
		if err != nil {
			return 0, 0, err
		}
		spans = s
		if baseline > 0 {
			ratios = append(ratios, traced/baseline)
		}
	}
	overhead := 0.0
	if len(ratios) > 0 {
		sort.Float64s(ratios)
		overhead = ratios[len(ratios)/2] - 1
	}
	if overhead < 0 {
		overhead = 0
	}
	return spans, overhead, nil
}
