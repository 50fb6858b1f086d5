package experiments

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

func groupShape(groups []sweepGroup) [][]int {
	out := make([][]int, len(groups))
	for i, g := range groups {
		for _, j := range g.jobs {
			out[i] = append(out[i], j.index)
		}
	}
	return out
}

func TestPlanGroupsByBenchmarkAndGeometry(t *testing.T) {
	cfg128 := pipeline.Config{ROBSize: 128}
	cfg256 := pipeline.Config{ROBSize: 256}
	pending := []sweepJob{
		{index: 0, benchmark: "a", cfg: cfg128},
		{index: 1, benchmark: "a", cfg: cfg256},
		{index: 2, benchmark: "a", cfg: cfg128},
		{index: 3, benchmark: "b", cfg: cfg128},
		{index: 5, benchmark: "a", cfg: cfg256},
		{index: 8, benchmark: "b", cfg: cfg128},
	}
	got := groupShape(planGroups(pending))
	// Same benchmark + same ROB size group together even when non-adjacent
	// (sorted config keys interleave windows) or when sharding left index
	// gaps; different benchmarks and geometries never mix.
	want := [][]int{{0, 2}, {1, 5}, {3, 8}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("groups = %v, want %v", got, want)
	}
}

func TestPlanGroupsCapsWidth(t *testing.T) {
	var pending []sweepJob
	for i := 0; i < batchGroupCap+3; i++ {
		pending = append(pending, sweepJob{index: i, benchmark: "a", cfg: pipeline.Config{ROBSize: 128}})
	}
	groups := planGroups(pending)
	if len(groups) != 2 || len(groups[0].jobs) != batchGroupCap || len(groups[1].jobs) != 3 {
		t.Errorf("groups = %v, want one full group of %d plus the remainder", groupShape(groups), batchGroupCap)
	}
}

// TestSweepBatchBitIdenticalToScalar: every pair of a sweep simulated in
// config-parallel batches must measure exactly what a one-configuration
// simulation of the same program (core.SimulateProgram) measures.
func TestSweepBatchBitIdenticalToScalar(t *testing.T) {
	kinds := []core.ConfigKind{core.Baseline, core.NoSQDelay, core.NoSQNoDelay}
	benchmarks := []string{"gzip", "applu"}
	cfgs := kindConfigs(kinds, 0)
	if got, want := groupShape(planGroups(sweepJobs(benchmarks, cfgs))), [][]int{{0, 1, 2}, {3, 4, 5}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("groups = %v, want each benchmark's configurations batched together: %v", got, want)
	}
	runs, _, err := runSweep(context.Background(), benchmarks, cfgs, Options{Iterations: 25, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range benchmarks {
		prog, err := workload.Generate(b, workload.Options{Iterations: 25})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range kinds {
			solo, err := core.SimulateProgram(prog, core.ConfigFor(k, 0))
			if err != nil {
				t.Fatal(err)
			}
			if got := runs[b][k.String()]; got != solo {
				t.Errorf("%s/%s: batched run differs from a solo simulation:\nbatched: %+v\nsolo:    %+v", b, k, got, solo)
			}
		}
	}
}

// TestSweepSliceSplitsBatchGroup: a leased pair slice that cuts through a
// batch group must produce, after merging the per-slice checkpoints, exactly
// the results of an unsliced run — each side simply batches its own part of
// the group.
func TestSweepSliceSplitsBatchGroup(t *testing.T) {
	benchmarks := []string{"gzip"}
	cfgs := kindConfigs(core.Kinds(), 0) // 5 pairs, one batchable group
	jobs := sweepJobs(benchmarks, cfgs)
	if groups := planGroups(jobs); len(groups) != 1 {
		t.Fatalf("full run groups = %v, want one batch of all %d pairs", groupShape(groups), len(cfgs))
	}
	full, _, err := runSweep(context.Background(), benchmarks, cfgs,
		Options{Iterations: 25, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}

	ck := filepath.Join(t.TempDir(), "ck.jsonl")
	for _, sl := range []PairSlice{{Start: 0, End: 2}, {Start: 2, End: 5}} {
		sl := sl
		_, sum, err := runSweep(context.Background(), benchmarks, cfgs,
			Options{Iterations: 25, Parallelism: 2, Store: openStore(t, ck), Slice: &sl})
		if err != nil {
			t.Fatalf("slice %+v: %v", sl, err)
		}
		if want := sl.End - sl.Start; sum.Executed != want {
			t.Errorf("slice %+v executed %d pairs, want %d", sl, sum.Executed, want)
		}
		if groups := planGroups(jobs[sl.Start:sl.End]); len(groups) != 1 {
			t.Errorf("slice %+v groups = %v, want its pairs in one batch", sl, groupShape(groups))
		}
	}

	merged, sum, err := runSweep(context.Background(), benchmarks, cfgs,
		Options{Iterations: 25, Store: openStore(t, ck)})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Executed != 0 || sum.Resumed != len(cfgs) {
		t.Fatalf("merged replay summary = %+v, want everything resumed", sum)
	}
	if !reflect.DeepEqual(merged, full) {
		t.Error("slice-split batch groups produced different results than the unsliced run")
	}
}

// TestRunGroupInvalidConfigFailsAlone: a pair whose configuration fails
// validation fails with its own error, and the rest of its group still runs.
func TestRunGroupInvalidConfigFailsAlone(t *testing.T) {
	cfg := core.ConfigFor(core.Baseline, 0)
	bad := cfg
	bad.IssueWidth = 0 // rejected by config validation at simulator construction
	pending := []sweepJob{
		{index: 0, benchmark: "gzip", key: "ok", cfg: cfg},
		{index: 1, benchmark: "gzip", key: "bad", cfg: bad},
	}
	traces, err := newTraceCache(profileTraces(25), pending)
	if err != nil {
		t.Fatal(err)
	}
	results := runGroup(sweepGroup{benchmark: "gzip", jobs: pending}, traces, Options{})
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	if results[0].err != nil || results[0].run.Committed == 0 {
		t.Errorf("good pair: err=%v run=%+v, want a successful run", results[0].err, results[0].run)
	}
	if want := bad.Validate(); results[1].err == nil || results[1].err.Error() != want.Error() {
		t.Errorf("bad pair error = %v, want its own validation error %v", results[1].err, want)
	}
}
