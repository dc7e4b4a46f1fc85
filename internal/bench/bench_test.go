package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestReportRoundTrip: a finalized report survives Write → Read with every
// field intact, and the derived rates are consistent with the raw counts.
func TestReportRoundTrip(t *testing.T) {
	r := &Report{
		GoVersion: "go1.22",
		NumCPU:    8,
		Quick:     true,
		Experiments: []Experiment{
			{ID: "fig6a", WallSec: 0.25, Decisions: 120, Allocations: 480, PlanCacheHits: 900, PlanCacheMisses: 100},
			{ID: "fig7a", WallSec: 2.5, Decisions: 400, Allocations: 4000, PlanCacheHits: 0, PlanCacheMisses: 0},
			{ID: "scale", WallSec: 1.5, Metrics: map[string]float64{"jobs_per_sec": 266}},
		},
		SpanCount:     1234,
		TraceOverhead: 0.021,
	}
	r.Finalize()

	if r.Schema != SchemaV4 {
		t.Fatalf("schema = %q", r.Schema)
	}
	if got, want := r.Experiments[0].DecisionsPerSec, 480.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("decisions/sec = %v want %v", got, want)
	}
	if got, want := r.Experiments[0].PlanCacheHitRate, 0.9; math.Abs(got-want) > 1e-12 {
		t.Errorf("hit rate = %v want %v", got, want)
	}
	if r.Experiments[1].PlanCacheHitRate != 0 {
		t.Errorf("zero-traffic hit rate = %v want 0", r.Experiments[1].PlanCacheHitRate)
	}
	if got, want := r.TotalWallSec, 4.25; math.Abs(got-want) > 1e-12 {
		t.Errorf("total wall = %v want %v", got, want)
	}

	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, back) {
		t.Errorf("round trip mutated the report:\n in  %+v\n out %+v", r, back)
	}
}

// TestReadRejectsUnknownSchema guards the schema contract: a report stamped
// with a different schema tag is refused rather than misread.
func TestReadRejectsUnknownSchema(t *testing.T) {
	if _, err := Read(strings.NewReader(`{"schema":"efbench/999"}`)); err == nil {
		t.Fatal("unknown schema accepted")
	}
	if _, err := Read(strings.NewReader(`not json`)); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

// TestReadAcceptsV1 keeps historical BENCH.json files comparable: a v1
// document (no tracing calibration fields) still reads cleanly.
func TestReadAcceptsV1(t *testing.T) {
	doc := `{"schema":"efbench/1","go_version":"go1.22","quick":false,` +
		`"experiments":[{"id":"fig6a","wall_sec":1,"decisions":10,"allocations":20,` +
		`"decisions_per_sec":10,"allocations_per_sec":20,` +
		`"plan_cache_hits":0,"plan_cache_misses":0,"plan_cache_hit_rate":0}],"total_wall_sec":1}`
	r, err := Read(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if r.Schema != SchemaV1 || len(r.Experiments) != 1 {
		t.Fatalf("v1 read = %+v", r)
	}
	if r.SpanCount != 0 || r.TraceOverhead != 0 {
		t.Errorf("v1 document grew tracing fields: %+v", r)
	}
	if r.NumCPU != 0 {
		t.Errorf("v1 document grew v3 fields: %+v", r)
	}
}

// TestReadAcceptsV2 keeps v2 documents (tracing calibration, no scale
// profile) readable alongside v1 and v3.
func TestReadAcceptsV2(t *testing.T) {
	doc := `{"schema":"efbench/2","go_version":"go1.22","quick":true,` +
		`"experiments":[],"total_wall_sec":0,"span_count":7,"trace_overhead":0.01}`
	r, err := Read(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if r.Schema != SchemaV2 || r.SpanCount != 7 {
		t.Fatalf("v2 read = %+v", r)
	}
}

// TestReadAcceptsV3 keeps v3 documents readable alongside the older
// versions. Their `scale` worker-sweep object has no field to land in any
// more; the decoder ignores it and keeps the rest of the record.
func TestReadAcceptsV3(t *testing.T) {
	doc := `{"schema":"efbench/3","go_version":"go1.22","num_cpu":8,"quick":false,` +
		`"experiments":[{"id":"scale","wall_sec":1,"decisions":0,"allocations":0,` +
		`"decisions_per_sec":0,"allocations_per_sec":0,` +
		`"plan_cache_hits":0,"plan_cache_misses":0,"plan_cache_hit_rate":0,` +
		`"scale":{"points":[{"workers":1,"jobs_per_sec":100,"speedup":1}],` +
		`"usl_sigma":0.1,"usl_kappa":0}}],"total_wall_sec":1}`
	r, err := Read(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if r.Schema != SchemaV3 || r.NumCPU != 8 || len(r.Experiments) != 1 ||
		r.Experiments[0].ID != "scale" || r.Experiments[0].WallSec != 1 {
		t.Fatalf("v3 read = %+v", r)
	}
	if r.Experiments[0].Frontdoor != nil {
		t.Errorf("v3 document grew v4 fields: %+v", r)
	}
}

// TestJSONFieldNames pins the wire names — renaming a field would silently
// break historical comparisons.
func TestJSONFieldNames(t *testing.T) {
	var buf bytes.Buffer
	r := &Report{
		NumCPU: 4,
		Experiments: []Experiment{{ID: "x", Frontdoor: &FrontdoorProfile{
			Shards: 4, Tenants: 3, Submissions: 1000,
			SubmissionsPerMin: 120000, P50AdmissionMs: 1, P99AdmissionMs: 9,
			MeanBatch: 12.5, MaxBatch: 64,
			RateLimited: 5, QuotaRejected: 2, Rebalanced: 7,
		}}},
	}
	r.Finalize()
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"schema"`, `"go_version"`, `"quick"`, `"experiments"`, `"total_wall_sec"`,
		`"id"`, `"wall_sec"`, `"decisions"`, `"allocations"`,
		`"decisions_per_sec"`, `"allocations_per_sec"`,
		`"plan_cache_hits"`, `"plan_cache_misses"`, `"plan_cache_hit_rate"`,
		`"num_cpu"`, `"frontdoor"`, `"shards"`, `"tenants"`, `"submissions"`,
		`"submissions_per_min"`, `"p50_admission_ms"`, `"p99_admission_ms"`,
		`"mean_batch"`, `"max_batch"`, `"rate_limited"`, `"quota_rejected"`,
		`"rebalanced"`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("BENCH.json missing field %s", want)
		}
	}
}

// TestReadCommittedTrajectory: every report in the committed perf history
// still decodes, including lines written before a field's producer was
// deleted.
func TestReadCommittedTrajectory(t *testing.T) {
	f, err := os.Open("../../BENCH_history/trajectory.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	lines := 0
	for sc.Scan() {
		var line struct {
			Report json.RawMessage `json:"report"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("line %d: %v", lines+1, err)
		}
		if _, err := Read(bytes.NewReader(line.Report)); err != nil {
			t.Errorf("line %d: %v", lines+1, err)
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("trajectory has no lines")
	}
}
