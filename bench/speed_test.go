package main

import (
	"os"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary as the
// host reference's child process.
func TestMain(m *testing.M) {
	if os.Getenv(referenceEnv) != "" {
		os.Exit(referenceMain(os.Stdin, os.Stdout))
	}
	os.Exit(m.Run())
}

func TestHostSpeedSamplesInChild(t *testing.T) {
	h, err := startHostSpeed()
	if err != nil {
		t.Fatal(err)
	}
	defer h.stop()
	for i := 0; i < 2; i++ {
		if err := h.sample(); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.stop(); err != nil {
		t.Fatal(err)
	}
	if len(h.reps) != 2*referenceReps {
		t.Fatalf("%d repetitions, want %d", len(h.reps), 2*referenceReps)
	}
	for _, r := range h.reps {
		if !(r.WallMs > 0) || !(r.CPUMs > 0) {
			t.Fatalf("repetition %+v", r)
		}
	}
	if wall, cpu := h.factors(); !(wall > 0) || !(cpu > 0) {
		t.Fatalf("factors %v, %v", wall, cpu)
	}
}

// TestAtNominalSpeed pins which way each metric scales: on a host at
// half speed (factor 0.5) times halve and throughput doubles; CPU per op
// follows the CPU factor; memory is left alone.
func TestAtNominalSpeed(t *testing.T) {
	got := atNominalSpeed(map[string]metric{
		"latency_p50_ms":   {10, "ms"},
		"setup_s":          {1, "s"},
		"throughput_ops_s": {50, "ops/s"},
		"cpu_ms_per_op":    {40, "ms"},
		"peak_rss_mb":      {300, "MiB"},
	}, 0.5, 0.25)
	want := map[string]float64{"latency_p50_ms": 5, "setup_s": 0.5, "throughput_ops_s": 100, "cpu_ms_per_op": 10, "peak_rss_mb": 300}
	for k, v := range want {
		if got[k].Value != v {
			t.Errorf("%s = %v, want %v", k, got[k].Value, v)
		}
	}
}
