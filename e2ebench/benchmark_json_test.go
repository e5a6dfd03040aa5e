package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// TestBenchmarkJSONMatches checks that BENCHMARK.json declares exactly the
// metrics the result line carries, with the units the program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, emitted map[string]Metric) {
		var names []string
		for _, m := range declared {
			names = append(names, m.Name)
			got, ok := emitted[m.Name]
			if !ok {
				t.Errorf("%s metric %s is declared but not emitted", kind, m.Name)
			} else if got.Unit != m.Unit {
				t.Errorf("%s metric %s: declared unit %q, emitted %q", kind, m.Name, m.Unit, got.Unit)
			}
		}
		if len(names) != len(emitted) {
			sort.Strings(names)
			t.Errorf("%s: declared %v, emitted %d metrics", kind, names, len(emitted))
		}
	}
	r := &runResult{}
	check("end_to_end", bench.EndToEnd, r.endToEnd())
	layers := perLayer(&Cluster{}, newRecorder(), &window{}, snapshot{}, snapshot{}, stageTimes{}, 0, 0, r)
	layers["loadgen.trace_overhead_frac"] = Metric{0, "frac"}
	check("per_layer", bench.PerLayer, pick(layers, recordedLayers))
	for _, w := range bench.Workloads {
		if _, ok := specs[w.Name]; !ok {
			t.Errorf("workload %s is declared but not defined", w.Name)
		}
	}
}
