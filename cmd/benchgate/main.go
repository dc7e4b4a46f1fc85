// Command benchgate compares two `go test -bench` outputs and fails when any
// benchmark's median wall time regressed beyond a threshold. CI runs it
// between the PR base and head (see .github/workflows/ci.yml); locally,
// `make bench` drives it against a saved baseline. It can additionally (or
// instead) gate the machine-readable scalars of a BENCH.json report — see
// rules.go for the -rule syntax, including the @cpus>= host condition.
//
// Usage:
//
//	benchgate -base base.txt -head head.txt [-threshold 0.15] [-bench regexp]
//	benchgate -metrics BENCH.json -rule 'scale.jobs_per_sec>=25' \
//	          -rule 'frontdoor.submissions_per_min>=100000 @cpus>=8'
//	benchgate -metrics BENCH.json -rules-file rules.txt
//
// Medians over -count repetitions absorb runner noise; a single noisy
// repetition cannot fail the gate. Benchmarks present on only one side are
// reported but never fail the gate (new or deleted benchmarks are not
// regressions). Both gate modes share the perf-exempt escape hatch: CI skips
// the whole job when the PR carries that label. The tool depends only on
// this repo on purpose: benchstat renders the human-readable comparison in
// CI, but the pass/fail decision must not hinge on installing anything.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"

	"github.com/elasticflow/elasticflow/internal/bench"
)

// ruleList collects repeated -rule flags.
type ruleList []string

func (r *ruleList) String() string     { return fmt.Sprint(*r) }
func (r *ruleList) Set(s string) error { *r = append(*r, s); return nil }

// benchLine matches e.g.
//
//	BenchmarkFig6aTestbedSmall-8   1   1498238 ns/op   456376 B/op  4215 allocs/op
//
// capturing the name (CPU suffix stripped separately) and the ns/op value.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+([0-9.]+) ns/op`)

// cpuSuffix strips the -<GOMAXPROCS> suffix Go appends to benchmark names.
var cpuSuffix = regexp.MustCompile(`-\d+$`)

func parse(path string, filter *regexp.Regexp) (map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]float64)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		name := cpuSuffix.ReplaceAllString(m[1], "")
		if filter != nil && !filter.MatchString(name) {
			continue
		}
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("%s: bad ns/op in %q: %w", path, sc.Text(), err)
		}
		out[name] = append(out[name], v)
	}
	return out, sc.Err()
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func main() {
	base := flag.String("base", "", "benchmark output of the base commit")
	head := flag.String("head", "", "benchmark output of the head commit")
	threshold := flag.Float64("threshold", 0.15, "maximum tolerated relative wall-time regression")
	benchRE := flag.String("bench", "", "only gate benchmarks matching this regexp (default: all)")
	metrics := flag.String("metrics", "", "BENCH.json report to gate with -rule assertions")
	var rules ruleList
	flag.Var(&rules, "rule", "metric rule, e.g. 'frontdoor.submissions_per_min>=100000 @cpus>=8' (repeatable; requires -metrics)")
	rulesFile := flag.String("rules-file", "", "file of metric rules, one per line (# comments; requires -metrics)")
	flag.Parse()

	if *rulesFile != "" {
		fromFile, err := readRulesFile(*rulesFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(2)
		}
		rules = append(rules, fromFile...)
	}

	if *metrics != "" {
		if len(rules) == 0 {
			fmt.Fprintln(os.Stderr, "benchgate: -metrics given but no -rule to check")
			os.Exit(2)
		}
		f, err := os.Open(*metrics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(2)
		}
		rep, err := bench.Read(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(2)
		}
		outcomes, failed, err := gateMetrics(rules, rep)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(2)
		}
		for _, o := range outcomes {
			fmt.Printf("%-52s %s\n", o.rule, o.status)
		}
		if failed {
			fmt.Fprintln(os.Stderr, "benchgate: metric rule failed — label the PR perf-exempt if intentional")
			os.Exit(1)
		}
		fmt.Printf("benchgate: metrics ok (%d rules)\n", len(outcomes))
		if *base == "" && *head == "" {
			return
		}
	} else if len(rules) > 0 {
		fmt.Fprintln(os.Stderr, "benchgate: -rule requires -metrics")
		os.Exit(2)
	}

	if *base == "" || *head == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -base and -head are required (or use -metrics with -rule)")
		os.Exit(2)
	}
	var filter *regexp.Regexp
	if *benchRE != "" {
		var err error
		if filter, err = regexp.Compile(*benchRE); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: -bench: %v\n", err)
			os.Exit(2)
		}
	}
	baseRuns, err := parse(*base, filter)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	headRuns, err := parse(*head, filter)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	if len(headRuns) == 0 {
		fmt.Fprintln(os.Stderr, "benchgate: no benchmark results in head output")
		os.Exit(2)
	}

	names := make([]string, 0, len(headRuns))
	for name := range headRuns {
		names = append(names, name)
	}
	sort.Strings(names)

	failed := false
	fmt.Printf("%-44s %14s %14s %8s\n", "benchmark", "base med", "head med", "delta")
	for _, name := range names {
		h := median(headRuns[name])
		b, ok := baseRuns[name]
		if !ok {
			fmt.Printf("%-44s %14s %14.0f %8s\n", name, "(new)", h, "-")
			continue
		}
		bm := median(b)
		delta := (h - bm) / bm
		mark := ""
		if delta > *threshold {
			mark = "  REGRESSION"
			failed = true
		}
		fmt.Printf("%-44s %14.0f %14.0f %+7.1f%%%s\n", name, bm, h, delta*100, mark)
	}
	for name := range baseRuns {
		if _, ok := headRuns[name]; !ok {
			fmt.Printf("%-44s %14.0f %14s %8s\n", name, median(baseRuns[name]), "(gone)", "-")
		}
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchgate: wall-time regression beyond %.0f%% — label the PR perf-exempt if intentional\n", *threshold*100)
		os.Exit(1)
	}
	fmt.Printf("benchgate: ok (threshold %.0f%%)\n", *threshold*100)
}
