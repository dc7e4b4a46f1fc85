// Metric-rule gating: besides comparing two `go test -bench` outputs,
// benchgate can assert floors (or ceilings) on the machine-readable scalars a
// BENCH.json report carries — e.g. the scale experiment's jobs/sec and the
// frontdoor experiment's admission rate. A rule reads
//
//	<experiment>.<metric> >= <value> [@cpus>=N]
//	<experiment>.<metric> <= <value> [@cpus>=N]
//
// (spaces optional). The optional @cpus>=N suffix makes the rule conditional
// on the measuring host: throughput floors set for a large runner are
// meaningless on a 1-CPU one, so a rule like
// `frontdoor.submissions_per_min>=100000 @cpus>=8` is recorded as skipped —
// not passed, not failed — when the report's num_cpu is below 8.
package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/elasticflow/elasticflow/internal/bench"
)

// rule is one parsed -rule flag.
type rule struct {
	exp, metric string
	op          string // ">=" or "<="
	value       float64
	minCPUs     int // 0 = unconditional
}

func (r rule) String() string {
	s := fmt.Sprintf("%s.%s%s%g", r.exp, r.metric, r.op, r.value)
	if r.minCPUs > 0 {
		s += fmt.Sprintf(" @cpus>=%d", r.minCPUs)
	}
	return s
}

// parseRule parses the textual rule syntax above.
func parseRule(s string) (rule, error) {
	var r rule
	body := s
	if i := strings.Index(s, "@cpus>="); i >= 0 {
		n, err := strconv.Atoi(strings.TrimSpace(s[i+len("@cpus>="):]))
		if err != nil || n < 1 {
			return r, fmt.Errorf("rule %q: bad @cpus>= condition", s)
		}
		r.minCPUs = n
		body = s[:i]
	}
	body = strings.TrimSpace(body)
	opIdx := strings.Index(body, ">=")
	r.op = ">="
	if opIdx < 0 {
		opIdx = strings.Index(body, "<=")
		r.op = "<="
	}
	if opIdx < 0 {
		return r, fmt.Errorf("rule %q: want <experiment>.<metric>>=<value> or <=", s)
	}
	target, valStr := strings.TrimSpace(body[:opIdx]), strings.TrimSpace(body[opIdx+2:])
	dot := strings.Index(target, ".")
	if dot <= 0 || dot == len(target)-1 {
		return r, fmt.Errorf("rule %q: target %q is not <experiment>.<metric>", s, target)
	}
	r.exp, r.metric = target[:dot], target[dot+1:]
	v, err := strconv.ParseFloat(valStr, 64)
	if err != nil {
		return r, fmt.Errorf("rule %q: bad value %q", s, valStr)
	}
	r.value = v
	return r, nil
}

// readRulesFile loads rules from a file, one per line; blank lines and
// #-comments are skipped. A file that yields no rules is an error — a gate
// config that silently checks nothing is exactly the misconfiguration this
// refuses to paper over.
func readRulesFile(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		out = append(out, line)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("rules file %s contains no rules", path)
	}
	return out, nil
}

// ruleOutcome is one rule's evaluation against a report.
type ruleOutcome struct {
	rule   rule
	status string // "ok", "skipped (...)", or the failure description
	failed bool
}

// evalRule checks one rule against the report. A missing experiment or
// metric fails the gate — a metric silently vanishing from BENCH.json is
// exactly the regression the rule exists to catch.
func evalRule(r rule, rep *bench.Report) ruleOutcome {
	if r.minCPUs > 0 && rep.NumCPU < r.minCPUs {
		return ruleOutcome{rule: r, status: fmt.Sprintf("skipped (host has %d CPUs, rule needs ≥%d)", rep.NumCPU, r.minCPUs)}
	}
	for _, e := range rep.Experiments {
		if e.ID != r.exp {
			continue
		}
		v, ok := e.Metrics[r.metric]
		if !ok {
			return ruleOutcome{rule: r, failed: true, status: fmt.Sprintf("metric %q missing from experiment %q", r.metric, r.exp)}
		}
		pass := v >= r.value
		if r.op == "<=" {
			pass = v <= r.value
		}
		if !pass {
			return ruleOutcome{rule: r, failed: true, status: fmt.Sprintf("got %g, want %s%g", v, r.op, r.value)}
		}
		return ruleOutcome{rule: r, status: fmt.Sprintf("ok (%g)", v)}
	}
	return ruleOutcome{rule: r, failed: true, status: fmt.Sprintf("experiment %q not in report", r.exp)}
}

// gateMetrics parses every rule, evaluates them against the report, and
// returns the outcomes plus whether any rule failed.
func gateMetrics(ruleStrs []string, rep *bench.Report) ([]ruleOutcome, bool, error) {
	outcomes := make([]ruleOutcome, 0, len(ruleStrs))
	failed := false
	for _, s := range ruleStrs {
		r, err := parseRule(s)
		if err != nil {
			return nil, false, err
		}
		o := evalRule(r, rep)
		failed = failed || o.failed
		outcomes = append(outcomes, o)
	}
	return outcomes, failed, nil
}
