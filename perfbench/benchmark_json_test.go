package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesMetrics keeps the repository's BENCHMARK.json
// in step with the metrics the benchmark prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string }         `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.EndToEnd) != len(endToEndUnits) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the benchmark prints %d", len(doc.EndToEnd), len(endToEndUnits))
	}
	for _, m := range doc.EndToEnd {
		if u, ok := endToEndUnits[m.Name]; !ok || u != m.Unit {
			t.Errorf("end-to-end %s (%s): the benchmark prints unit %q", m.Name, m.Unit, u)
		}
	}
	if len(doc.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark prints %d", len(doc.PerLayer), len(layerMetrics))
	}
	for i, m := range doc.PerLayer {
		want := layerMetrics[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per-layer %d is %+v, the benchmark prints %+v", i, m, want)
		}
	}
}
