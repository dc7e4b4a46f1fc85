package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json, which the harness
// reads, in step with the catalog the benchmark prints from.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the catalog %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, catalog %q %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the catalog %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := spec.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better || got.Bound != m.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, catalog %+v", i, got, m)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the catalog %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		got := spec.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, catalog %+v", i, got, m)
		}
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[m.name] {
			t.Errorf("metric %s declared twice", m.name)
		}
		seen[m.name] = true
	}
}
