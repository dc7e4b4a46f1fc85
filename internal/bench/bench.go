// Package bench defines the machine-readable schema of BENCH.json — the
// performance record `efbench -json` emits and CI archives per commit, so
// the repo accumulates a perf trajectory instead of anecdotes.
//
// Fields are never renamed or repurposed, so historical BENCH.json files stay
// comparable. A field whose producer is deleted is dropped from the schema;
// readers ignore it in old documents.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
)

// Experiment is one experiment's performance record.
type Experiment struct {
	// ID is the experiment identifier from the experiments registry
	// (e.g. "fig6a").
	ID string `json:"id"`
	// WallSec is the experiment's wall-clock duration in seconds.
	WallSec float64 `json:"wall_sec"`
	// Decisions is the number of admission decisions (core Admit calls)
	// the experiment made, across every scheduler it compared.
	Decisions uint64 `json:"decisions"`
	// Allocations is the number of allocation runs (Algorithm 2
	// executions; one per Schedule or Plans call).
	Allocations uint64 `json:"allocations"`
	// DecisionsPerSec and AllocationsPerSec are the rates over WallSec.
	DecisionsPerSec   float64 `json:"decisions_per_sec"`
	AllocationsPerSec float64 `json:"allocations_per_sec"`
	// PlanCacheHits and PlanCacheMisses count per-job fill outcomes in
	// the scheduler's plan cache; HitRate is hits/(hits+misses), 0 when
	// the cache saw no traffic.
	PlanCacheHits    uint64  `json:"plan_cache_hits"`
	PlanCacheMisses  uint64  `json:"plan_cache_misses"`
	PlanCacheHitRate float64 `json:"plan_cache_hit_rate"`
	// Metrics carries experiment-specific scalars the generic counters above
	// cannot express (e.g. the store experiment's append throughput and
	// recovery latency). Absent for experiments that report none.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Frontdoor is the multi-tenant admission-tier load profile. Only the
	// `frontdoor` experiment emits it (efbench/4).
	Frontdoor *FrontdoorProfile `json:"frontdoor,omitempty"`
}

// FrontdoorProfile records the front-door load-generator run: open-loop
// arrival volume, sustained admission throughput and latency tail across
// the sharded control plane (efbench/4).
type FrontdoorProfile struct {
	// Shards is the control-plane shard count behind the front door.
	Shards int `json:"shards"`
	// Tenants is the number of distinct tenant namespaces in the workload.
	Tenants int `json:"tenants"`
	// Submissions is the total arrivals pushed through the admission tier.
	Submissions int `json:"submissions"`
	// SubmissionsPerMin is the sustained admission throughput.
	SubmissionsPerMin float64 `json:"submissions_per_min"`
	// P50AdmissionMs / P99AdmissionMs are the enqueue-to-verdict latency
	// percentiles in milliseconds.
	P50AdmissionMs float64 `json:"p50_admission_ms"`
	P99AdmissionMs float64 `json:"p99_admission_ms"`
	// MeanBatch is the mean submissions amortized per admission batch
	// (one journal record and one plan-cache fold each).
	MeanBatch float64 `json:"mean_batch"`
	// MaxBatch is the largest batch observed.
	MaxBatch int `json:"max_batch"`
	// RateLimited and QuotaRejected count front-door rejections.
	RateLimited   int `json:"rate_limited,omitempty"`
	QuotaRejected int `json:"quota_rejected,omitempty"`
	// Rebalanced counts submissions the spare-GPU rebalancer routed off
	// their home shard.
	Rebalanced int `json:"rebalanced,omitempty"`
}

// Report is the top-level BENCH.json document.
type Report struct {
	// Schema names this format; "efbench/4" since the frontdoor profile
	// was added (v1, v2 and v3 documents remain readable).
	Schema string `json:"schema"`
	// GoVersion records the toolchain (runtime.Version()).
	GoVersion string `json:"go_version"`
	// NumCPU records the logical CPUs of the measuring host
	// (runtime.NumCPU()) — throughput floors are meaningless without it,
	// and benchgate's @cpus>= rule conditions read it.
	NumCPU int `json:"num_cpu,omitempty"`
	// Quick reports whether workloads were shrunk (-quick).
	Quick bool `json:"quick"`
	// Experiments holds one record per experiment run, in run order.
	Experiments []Experiment `json:"experiments"`
	// TotalWallSec is the summed wall time of all experiments.
	TotalWallSec float64 `json:"total_wall_sec"`
	// SpanCount is the number of spans the tracing calibration run
	// recorded (0 when the calibration did not run).
	SpanCount uint64 `json:"span_count,omitempty"`
	// TraceOverhead is the relative wall-time cost of span tracing
	// measured by the calibration: traced/untraced − 1 (so 0.03 = 3%
	// slower). Absent when the calibration did not run.
	TraceOverhead float64 `json:"trace_overhead,omitempty"`
}

// SchemaV1..V4 are the known Report.Schema values; Finalize stamps V4, Read
// accepts all four.
const (
	SchemaV1 = "efbench/1"
	SchemaV2 = "efbench/2"
	SchemaV3 = "efbench/3"
	SchemaV4 = "efbench/4"
)

// Finalize derives the rate and total fields from the raw counts.
func (r *Report) Finalize() {
	r.Schema = SchemaV4
	r.TotalWallSec = 0
	for i := range r.Experiments {
		e := &r.Experiments[i]
		if e.WallSec > 0 {
			e.DecisionsPerSec = float64(e.Decisions) / e.WallSec
			e.AllocationsPerSec = float64(e.Allocations) / e.WallSec
		}
		if total := e.PlanCacheHits + e.PlanCacheMisses; total > 0 {
			e.PlanCacheHitRate = float64(e.PlanCacheHits) / float64(total)
		}
		r.TotalWallSec += e.WallSec
	}
}

// Write encodes the report as indented JSON.
func (r *Report) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Read decodes a BENCH.json document and validates its schema tag.
func Read(rd io.Reader) (*Report, error) {
	var r Report
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("bench: decoding report: %w", err)
	}
	if r.Schema != SchemaV1 && r.Schema != SchemaV2 && r.Schema != SchemaV3 && r.Schema != SchemaV4 {
		return nil, fmt.Errorf("bench: unknown schema %q (want %q, %q, %q or %q)", r.Schema, SchemaV1, SchemaV2, SchemaV3, SchemaV4)
	}
	return &r, nil
}
