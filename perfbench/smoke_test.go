package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// smokeSizes shrinks every workload to a second or two.
var smokeSizes = sizes{
	PaperIterations:      8,
	PaperSetupIterations: 2,
	PaperHitRuns:         2,
	MixOps:               8,
	MixIterations:        []int{8, 12},
	FleetTraces:          2,
	FleetJobs:            2,
	FleetIterations:      100,
	FleetTraceInsts:      5000,
	FleetConfigs:         []string{"nosq-delay", "perfect-smb"},
	MinPasses:            2,
	SetupRepeats:         1,
}

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// layerUse names per-layer metrics each workload must report as non-zero:
// the layers it is there to load.
var layerUse = map[string][]string{
	"paper-figures": {"workload.generate_s", "emu.record_s", "pipeline.meta_s", "pipeline.simulate_s",
		"pipeline.committed", "experiments.run_s", "experiments.render_s"},
	"service-mix": {"emu.record_s", "pipeline.simulate_s", "simclient.wait_ms", "simserver.http_ms.submit",
		"simserver.cache_hits", "simserver.cache_misses", "simstore.wal_appends", "simstore.wal_append_ms"},
	"fleet-replay": {"traceio.decode_s", "traceio.encode_s", "traceio.bytes", "pipeline.simulate_s",
		"simserver.remote_pairs", "simserver.tasks_completed", "simserver.span.merge_ms",
		"simserver.http_ms.worker_lease"},
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestMetricListsMatchSpec keeps the metric tables in main.go and
// BENCHMARK.json in step.
func TestMetricListsMatchSpec(t *testing.T) {
	spec := loadSpec(t)
	check := func(kind string, want []struct{ Name, Unit string }, got []struct{ name, unit string }) {
		if len(want) != len(got) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(want), len(got))
			return
		}
		for i := range want {
			if want[i].Name != got[i].name || want[i].Unit != got[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i,
					want[i].Name, want[i].Unit, got[i].name, got[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that each named metric is emitted with its unit and no operation failed.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	work := t.TempDir()
	if err := os.MkdirAll(filepath.Join(work, "tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			b := &bench{workload: w.Name, seed: 7, seconds: 0.01, traced: traced, work: work, size: smokeSizes}
			res, err := b.run(context.Background())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %v", w.Name, traced,
					res.Correct, res.Attempted, res.Failed, b.failures)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: %s unit %q, want %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
			if !traced && res.Metrics["success_ratio"].Value != 1 {
				t.Errorf("%s: success_ratio %v, want 1 (fail ratio 0)", w.Name, res.Metrics["success_ratio"].Value)
			}
			if traced {
				for _, name := range layerUse[w.Name] {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("%s: layer metric %s = %v, want > 0", w.Name, name, res.Metrics[name].Value)
					}
				}
			}
		}
	}
	if _, err := os.Stat(filepath.Join(work, "artifacts", "paper-figures-seed7.cpu.pprof")); err != nil {
		t.Errorf("traced run wrote no CPU profile: %v", err)
	}
}
