package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json the
// harness must honour.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload at a tiny scale (one round, four ops,
// traced) against a real fwserved child and checks that each answer
// passes the oracle and each metric BENCHMARK.json names is measured
// with the unit it declares.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs fwserved")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var e2e, layers, wls []string
	units := make(map[string]string)
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
		units[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, m.Name)
		units[m.Name] = m.Unit
	}
	for _, w := range spec.Workloads {
		wls = append(wls, w.Name)
	}
	if !reflect.DeepEqual(e2e, endToEndMetrics) || !reflect.DeepEqual(layers, perLayerMetrics) ||
		!reflect.DeepEqual(wls, workloadNames) {
		t.Fatal("BENCHMARK.json and the harness disagree on workloads or metric names")
	}

	dir := t.TempDir()
	bin := filepath.Join(dir, "fwserved")
	build := exec.Command("go", "build", "-o", bin, "diversefw/cmd/fwserved")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build fwserved: %v\n%s", err, out)
	}
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			res, err := runWorkload(config{workload: w, seed: 1, seconds: 1, trace: true,
				out: filepath.Join(dir, w), server: bin, rounds: 1, setups: 1, maxOps: 4}, os.Stderr)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.ErrorRate != 0 {
				t.Fatalf("correct=%v error_rate=%v first error: %s", res.Correct, res.ErrorRate, res.FirstError)
			}
			all := res.all()
			for _, name := range append(append([]string(nil), endToEndMetrics...), perLayerMetrics...) {
				m, ok := all[name]
				if !ok {
					t.Errorf("metric %s not measured", name)
				} else if m.Unit != units[name] {
					t.Errorf("metric %s in %s, BENCHMARK.json says %s", name, m.Unit, units[name])
				}
			}
			for _, f := range []string{"results.json", "spans.json"} {
				if _, err := os.Stat(filepath.Join(dir, w, f)); err != nil {
					t.Error(err)
				}
			}
		})
	}
}
