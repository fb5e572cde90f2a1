package main

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/astro"
)

// smallScale is a 1.5 x 1.6 deg survey around a 0.5 x 0.6 deg target:
// the Table 1 shape at a third of the galaxies, so the self-test runs
// each check in seconds.
func smallScale() scale {
	return scale{
		survey: astro.MustBox(194.4, 195.9, 1.7, 3.3),
		target: astro.MustBox(194.9, 195.4, 2.2, 2.8),
	}
}

func testRun(t *testing.T, workload, perturb string, trace bool) *result {
	t.Helper()
	res, err := run(config{
		workload: workload, seed: 7, seconds: 1, trace: trace,
		scale: smallScale(), outDir: t.TempDir(), perturb: perturb,
	}, nil)
	if err != nil {
		t.Fatalf("%s (perturb %q): %v", workload, perturb, err)
	}
	return res
}

// TestChecksFailRuns shows that every correctness check can fail a run:
// with its oracle intact the run is correct, with it perturbed it is not.
func TestChecksFailRuns(t *testing.T) {
	cases := []struct {
		workload, perturb string
		trace             bool
	}{
		{"pipeline", "pipeline", false},
		{"casjobs", "casjobs.cone", false},
		{"casjobs", "casjobs.join", false},
		{"casjobs", "casjobs.agg", false},
		{"casjobs", "casjobs.mydb", false},
		{"casjobs", "casjobs.extract", false},
		{"fedsweep", "fedsweep", false},
		{"fedsweep", "ladder", true},
	}
	clean := map[string]bool{}
	for _, c := range cases {
		key := c.workload + map[bool]string{true: "/trace"}[c.trace]
		if !clean[key] {
			clean[key] = true
			if res := testRun(t, c.workload, "", c.trace); !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s: clean run: correct=%v attempted=%d failed=%d", key, res.Correct, res.Attempted, res.Failed)
			}
		}
		if res := testRun(t, c.workload, c.perturb, c.trace); res.Correct || res.Failed == 0 && c.perturb != "ladder" {
			t.Errorf("%s: perturbed %s oracle: correct=%v failed=%d, want an incorrect run",
				c.workload, c.perturb, res.Correct, res.Failed)
		}
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metrics
// the program prints in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
