// Command efsim replays a workload trace through a scheduler and reports
// the paper's metrics (deadline satisfactory ratio, cluster efficiency,
// best-effort JCT, makespan).
//
// Usage:
//
//	efsim [-trace file.json] [-sched name] [-gpus N] [-jobs N] [-load F] [-seed N] [-v]
//	      [-events out.json] [-metrics out.prom] [-trace-out out.json]
//
// Without -trace a synthetic trace is generated from -gpus/-jobs/-load/-seed.
// -events and -metrics export the run's structured event log (JSON) and the
// final metric registry (Prometheus text format); "-" writes to stdout.
// -trace-out exports the causal span trail (job lifecycles, scheduler
// epochs) as Chrome trace-event JSON, loadable at https://ui.perfetto.dev.
// Schedulers: elasticflow, edf, gandiva, tiresias, themis, chronus, pollux,
// edf+ac, edf+es.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	elasticflow "github.com/elasticflow/elasticflow"
	"github.com/elasticflow/elasticflow/internal/core"
	"github.com/elasticflow/elasticflow/internal/model"
	"github.com/elasticflow/elasticflow/internal/obs"
	"github.com/elasticflow/elasticflow/internal/obs/tracing"
	"github.com/elasticflow/elasticflow/internal/sim"
	"github.com/elasticflow/elasticflow/internal/throughput"
	"github.com/elasticflow/elasticflow/internal/topology"
	"github.com/elasticflow/elasticflow/internal/trace"
)

func main() {
	tracePath := flag.String("trace", "", "trace file (.json from eftrace, or .csv with submit_sec/gpus/duration_sec columns); empty = synthesize")
	schedName := flag.String("sched", "elasticflow", "scheduler to run")
	gpus := flag.Int("gpus", 128, "cluster GPUs for synthetic traces (multiple of 8)")
	jobs := flag.Int("jobs", 100, "jobs in synthetic traces")
	load := flag.Float64("load", 1.2, "offered load for synthetic traces")
	seed := flag.Int64("seed", 1, "synthetic trace seed")
	verbose := flag.Bool("v", false, "print per-job outcomes")
	chart := flag.Bool("chart", false, "print an ASCII GPU-utilization chart")
	jobsCSV := flag.String("jobs-csv", "", "write per-job outcomes as CSV to this file")
	timelineCSV := flag.String("timeline-csv", "", "write the utilization/efficiency timeline as CSV to this file")
	eventsOut := flag.String("events", "", "write the structured event log as JSON to this file (\"-\" = stdout)")
	metricsOut := flag.String("metrics", "", "write final metrics in Prometheus text format to this file (\"-\" = stdout)")
	traceOut := flag.String("trace-out", "", "write the span trail as Chrome trace-event JSON (Perfetto-loadable) to this file (\"-\" = stdout)")
	flag.Parse()

	var tr trace.Trace
	if *tracePath != "" {
		var err error
		if strings.HasSuffix(*tracePath, ".csv") {
			tr, err = trace.LoadCSV(*tracePath, "csv-trace", *gpus, *seed)
		} else {
			tr, err = trace.Load(*tracePath)
		}
		if err != nil {
			fatal(err)
		}
	} else {
		tr = trace.Generate(trace.Config{
			Name: "efsim", Jobs: *jobs, ClusterGPUs: *gpus, Load: *load, Seed: *seed,
		})
	}

	s, err := elasticflow.SchedulerByName(*schedName)
	if err != nil {
		fatal(err)
	}
	// Observability is opt-in: the sink only exists when an export was
	// requested, so default runs pay nothing. The large ring keeps every
	// event of a 100-job trace. The span tracer is seeded from the trace
	// seed, so same-seed runs export byte-identical trails.
	var sink *obs.Obs
	if *eventsOut != "" || *metricsOut != "" || *traceOut != "" {
		opts := obs.Options{RingSize: 1 << 20}
		if *traceOut != "" {
			opts.Tracer = tracing.New(uint64(*seed)).WithCap(1 << 20)
		}
		sink = obs.New(opts)
		if tracer, ok := s.(interface {
			WithObs(*obs.Obs) *core.ElasticFlow
		}); ok {
			tracer.WithObs(sink)
		}
	}
	hw := model.DefaultA100()
	est := throughput.NewEstimator(hw)
	prof := throughput.NewProfiler(est, 8, tr.GPUs)
	jobList, err := tr.Jobs(prof, est)
	if err != nil {
		fatal(err)
	}
	servers := tr.GPUs / 8
	if servers < 1 {
		servers = 1
	}
	res, err := sim.Run(sim.Config{
		Topology:  topology.Config{Servers: servers, GPUsPerServer: 8},
		Scheduler: s,
		SampleSec: 600,
		Obs:       sink,
	}, jobList, tr.Name)
	if err != nil {
		fatal(err)
	}
	if *eventsOut != "" {
		if err := writeOut(*eventsOut, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(sink.Bus.Since(0))
		}); err != nil {
			fatal(err)
		}
	}
	if *metricsOut != "" {
		if err := writeOut(*metricsOut, sink.Metrics.WritePrometheus); err != nil {
			fatal(err)
		}
	}
	if *traceOut != "" {
		if err := writeOut(*traceOut, func(w io.Writer) error {
			data, err := tracing.EncodeChrome(sink.Tracer().Spans())
			if err != nil {
				return err
			}
			_, err = w.Write(data)
			return err
		}); err != nil {
			fatal(err)
		}
	}

	fmt.Printf("trace            %s (%d jobs, %d GPUs)\n", res.Trace, len(res.Jobs), tr.GPUs)
	fmt.Printf("scheduler        %s\n", res.Scheduler)
	fmt.Printf("deadline ratio   %.3f\n", res.DeadlineSatisfactoryRatio())
	fmt.Printf("admitted         %d/%d\n", res.AdmittedCount(), len(res.Jobs))
	fmt.Printf("cluster eff      %.3f (Eq. 8 time-weighted)\n", res.AvgClusterEfficiency())
	if jct := res.AvgBestEffortJCT(); jct > 0 {
		fmt.Printf("best-effort JCT  %.0fs\n", jct)
	}
	fmt.Printf("makespan         %.2fh\n", res.Makespan/3600)
	fmt.Printf("rescale events   %d (plus %d migrations)\n", res.Rescales, res.Migrations)
	if stats := res.JCTStatsFor(nil); stats.Count > 0 {
		fmt.Printf("JCT (finished)   mean %.0fs  p50 %.0fs  p90 %.0fs  max %.0fs\n", stats.Mean, stats.P50, stats.P90, stats.Max)
	}
	if *jobsCSV != "" {
		if err := writeCSV(*jobsCSV, res.WriteJobsCSV); err != nil {
			fatal(err)
		}
	}
	if *timelineCSV != "" {
		if err := writeCSV(*timelineCSV, res.WriteTimelineCSV); err != nil {
			fatal(err)
		}
	}
	if res.Starved > 0 {
		fmt.Printf("starved          %d\n", res.Starved)
	}
	if *chart {
		fmt.Println()
		printChart(res, tr.GPUs)
	}
	if *verbose {
		fmt.Println()
		for _, jr := range res.Jobs {
			state := "met"
			switch {
			case jr.Dropped:
				state = "dropped"
			case !jr.Finished:
				state = "unfinished"
			case !jr.Met:
				state = "late"
			}
			fmt.Printf("%-24s %-10s submit=%8.0f deadline=%10.0f completion=%10.0f gpu·s=%10.0f\n",
				jr.ID, state, jr.Submit, jr.Deadline, jr.Completion, jr.GPUSeconds)
		}
	}
}

// printChart renders GPU utilization over time as an ASCII bar chart, one
// row per time bucket.
func printChart(res sim.Result, capacity int) {
	if len(res.Samples) == 0 || res.Makespan <= 0 {
		return
	}
	const rows, width = 24, 50
	bucket := res.Makespan / rows
	sums := make([]float64, rows)
	counts := make([]int, rows)
	for _, s := range res.Samples {
		b := int(s.Time / bucket)
		if b >= rows {
			b = rows - 1
		}
		sums[b] += float64(s.UsedGPUs)
		counts[b]++
	}
	fmt.Printf("GPU utilization (%d GPUs, %.1fh makespan)\n", capacity, res.Makespan/3600)
	for b := 0; b < rows; b++ {
		avg := 0.0
		if counts[b] > 0 {
			avg = sums[b] / float64(counts[b])
		}
		bars := int(avg / float64(capacity) * width)
		if bars > width {
			bars = width
		}
		fmt.Printf("%6.1fh |%-*s| %3.0f%%\n", float64(b)*bucket/3600, width, strings.Repeat("█", bars), 100*avg/float64(capacity))
	}
}

func writeCSV(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeOut writes to path, with "-" meaning stdout.
func writeOut(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	return writeCSV(path, write)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "efsim:", err)
	os.Exit(1)
}
