package pipeline_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// maxAllocsPerKInst bounds heap allocations per 1000 committed instructions
// in TestAllocationBound. The simulator measures about 8-9: the cycle loop
// allocates nothing in steady state, and what remains is per-simulation
// construction (predictor tables, caches, the in-flight record slab). Single
// pairs drift by about ±2 between runs, hence the headroom; a new
// allocation on the per-instruction path costs a multiple of the bound.
const maxAllocsPerKInst = 20

// TestAllocationBound simulates the paper's selected benchmarks at 120
// iterations under every configuration kind, each pair alone as a width-1
// batch, and bounds the aggregate allocations per 1000 committed
// instructions. Allocation counts do not depend on the host's speed, so
// unlike throughput they can be bounded in a unit test on any host. The count
// covers batch construction as well as the run, the whole cost a sweep pays
// per pair; trace recording and pre-decoding stay outside it.
func TestAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation changes allocation counts")
	}
	var allocs, committed uint64
	for _, b := range core.SelectedBenchmarks() {
		prog, err := workload.Generate(b, workload.Options{Iterations: 120})
		if err != nil {
			t.Fatal(err)
		}
		trace, err := emu.RecordTrace(prog, 0)
		if err != nil {
			t.Fatalf("record %s: %v", b, err)
		}
		meta, err := pipeline.NewTraceMeta(trace)
		if err != nil {
			t.Fatalf("pre-decode %s: %v", b, err)
		}
		for _, k := range core.Kinds() {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			bt, err := pipeline.NewBatch(trace, meta, []pipeline.Config{core.ConfigFor(k, 128)})
			if err != nil {
				t.Fatalf("%s/%s: %v", b, k, err)
			}
			runs, errs := bt.Run()
			runtime.ReadMemStats(&m1)
			if errs[0] != nil {
				t.Fatalf("%s/%s: %v", b, k, errs[0])
			}
			allocs += m1.Mallocs - m0.Mallocs
			committed += runs[0].Committed
		}
	}
	perKInst := 1000 * float64(allocs) / float64(committed)
	t.Logf("%d allocations over %d committed instructions: %.2f per 1000", allocs, committed, perKInst)
	if perKInst > maxAllocsPerKInst {
		t.Errorf("%.2f allocations per 1000 committed instructions, want at most %d", perKInst, maxAllocsPerKInst)
	}
}
