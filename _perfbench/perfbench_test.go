package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// short runs one workload at the shortest length the benchmark allows
// (a budget below one run still makes the minimum number of runs).
func short(t *testing.T, w workload, seed uint64, traced bool) *report {
	t.Helper()
	rep := newReport()
	if err := w.run(opts{seed: seed, seconds: 0.01, trace: traced}, rep); err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	rep.finish()
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %s", w.name, traced,
			rep.Correct, rep.Attempted, rep.Failed, strings.Join(rep.problems, "; "))
	}
	return rep
}

// checkMetrics requires exactly the listed metrics, each with its unit.
func checkMetrics(t *testing.T, name string, rep *report, want []metricSpec) {
	t.Helper()
	for _, m := range want {
		got, ok := rep.Metrics[m.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", name, m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("%s: metric %s unit %q, BENCHMARK.json says %q", name, m.Name, got.Unit, m.Unit)
		}
	}
	if len(rep.Metrics) != len(want) {
		t.Errorf("%s: %d metrics reported, BENCHMARK.json lists %d", name, len(rep.Metrics), len(want))
	}
}

func TestWorkloadsMatchBenchmarkFile(t *testing.T) {
	b := loadBenchmarkFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
}

// TestEveryWorkloadShort runs each workload timed and traced at a short
// length: every run passes its correctness gates, the timed run reports
// every end-to-end metric and the traced run every per-layer metric.
// The simulations' traced runs go twice with one seed, and every
// deterministic figure must repeat exactly.
func TestEveryWorkloadShort(t *testing.T) {
	b := loadBenchmarkFile(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			checkMetrics(t, w.name, short(t, w, 3, false), b.EndToEnd)
			traced := short(t, w, 3, true)
			checkMetrics(t, w.name+" traced", traced, b.PerLayer)
			if !strings.HasPrefix(w.name, "sim-") {
				return
			}
			again := short(t, w, 3, true)
			for name, m := range traced.Metrics {
				if deterministic(name) && again.Metrics[name] != m {
					t.Errorf("same-seed traced runs differ on %s: %v vs %v", name, m.Value, again.Metrics[name].Value)
				}
			}
		})
	}
}

// deterministic reports whether a simulation's per-layer metric is a
// pure function of the seed (a count or a simulated-time figure).
func deterministic(name string) bool {
	for _, p := range []string{"hop.", "core.ob_hold_", "core.straggler_events", "core.retx_requests",
		"netsim.", "core.rb_heartbeats_per_trade", "exchange.latency_", "node."} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

func TestQuantiles(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 0.99); got != 4 {
		t.Errorf("p99 = %v, want 4", got)
	}
	if got := quantile(xs, 0.5); got != 2 {
		t.Errorf("nearest-rank p50 = %v, want 2", got)
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
}

// TestRefKernelAllocFree pins the property the host-speed reference
// relies on: after its first call the kernel allocates nothing, so it
// never triggers a collection of the program's heap.
func TestRefKernelAllocFree(t *testing.T) {
	if n := testing.AllocsPerRun(5, refWork); n != 0 {
		t.Errorf("reference kernel allocates %v times per run, want 0", n)
	}
	t.Logf("reference kernel: %.2f ms (median of 21)", refMS(21))
}
