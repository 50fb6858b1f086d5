package pipeline

import (
	"os"
	"reflect"
	"testing"

	"repro/internal/emu"
	"repro/internal/program"
	"repro/internal/workload"
)

// recordWithMeta records a program's trace and pre-decodes it.
func recordWithMeta(tb testing.TB, prog *program.Program) (*emu.Trace, *TraceMeta) {
	tb.Helper()
	trace, err := emu.RecordTrace(prog, 0)
	if err != nil {
		tb.Fatalf("record %s: %v", prog.Name, err)
	}
	meta, err := NewTraceMeta(trace)
	if err != nil {
		tb.Fatalf("pre-decode %s: %v", prog.Name, err)
	}
	return trace, meta
}

// checkBatchMatchesSolo runs cfgs as one batch over the trace and each
// configuration alone (a width-1 batch), and requires identical statistics.
func checkBatchMatchesSolo(t *testing.T, trace *emu.Trace, meta *TraceMeta, cfgs []Config) {
	t.Helper()
	b, err := NewBatch(trace, meta, cfgs)
	if err != nil {
		t.Fatalf("NewBatch(%s): %v", trace.Name(), err)
	}
	results, errs := b.Run()
	for i, cfg := range cfgs {
		if errs[i] != nil {
			t.Fatalf("%s/%s: batch run: %v", trace.Name(), cfg.Name, errs[i])
		}
		solo, err := NewBatch(trace, meta, []Config{cfg})
		if err != nil {
			t.Fatalf("NewBatch(%s/%s): %v", trace.Name(), cfg.Name, err)
		}
		want, werrs := solo.Run()
		if werrs[0] != nil {
			t.Fatalf("%s/%s: solo run: %v", trace.Name(), cfg.Name, werrs[0])
		}
		if !reflect.DeepEqual(results[i], want[0]) {
			t.Errorf("%s/%s (member %d): batch result differs from a solo run\nbatch: %+v\nsolo:  %+v",
				trace.Name(), cfg.Name, i, results[i], want[0])
		}
	}
}

// TestBatchBitIdenticalToScalar is the core config-parallel guarantee: a
// Batch member's statistics must be bit-for-bit identical to a solo
// simulation of the same (trace, configuration) pair, across every
// configuration kind, whatever else shares its batch.
func TestBatchBitIdenticalToScalar(t *testing.T) {
	for _, bench := range []string{"gs.d", "vortex", "wupwise", "gzip"} {
		prog, err := workload.Generate(bench, workload.Options{Iterations: 40})
		if err != nil {
			t.Fatalf("generate %s: %v", bench, err)
		}
		trace, meta := recordWithMeta(t, prog)
		checkBatchMatchesSolo(t, trace, meta, allConfigs())
	}
}

// TestBatchBitIdenticalOnStressScenarios repeats the identity check on the
// adversarial scenario suite, which drives squash storms, partial-word
// traffic, and multi-source overlaps — the paths where the event-driven
// scheduler's lazy invalidation and the multi-source re-poll actually fire.
func TestBatchBitIdenticalOnStressScenarios(t *testing.T) {
	scens := workload.StressScenarios()
	if len(scens) > 3 {
		scens = scens[:3]
	}
	cfgs := []Config{BaselineConfig(), NoSQConfig(true), NoSQConfig(false)}
	for _, sc := range scens {
		prog, err := workload.GenerateScenario(sc, workload.Options{Iterations: 30})
		if err != nil {
			t.Fatalf("generate scenario %s: %v", sc.Name, err)
		}
		trace, meta := recordWithMeta(t, prog)
		checkBatchMatchesSolo(t, trace, meta, cfgs)
	}
}

// TestBatchMixedGeometry checks that a batch whose members differ in window
// geometry and instruction limits (the case the sweep planner deliberately
// does not group) still produces bit-identical per-member results: Batch
// itself is correct for arbitrary member sets; grouping policy is purely a
// throughput decision.
func TestBatchMixedGeometry(t *testing.T) {
	prog, err := workload.Generate("vortex", workload.Options{Iterations: 40})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	trace, meta := recordWithMeta(t, prog)
	small := NoSQConfig(true).WithWindow(64)
	limited := BaselineConfig()
	limited.MaxInsts = trace.Len() / 2
	checkBatchMatchesSolo(t, trace, meta, []Config{NoSQConfig(true), small, limited})
}

// TestNewMatchesBatch: New, which records and pre-decodes the program
// itself, must measure exactly what a batch over a separately recorded
// trace measures — including under an instruction limit, which New applies
// while recording.
func TestNewMatchesBatch(t *testing.T) {
	prog, err := workload.Generate("gzip", workload.Options{Iterations: 30})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	trace, meta := recordWithMeta(t, prog)
	limited := NoSQConfig(true)
	limited.MaxInsts = trace.Len() / 3
	for _, cfg := range []Config{BaselineConfig(), limited} {
		sim, err := New(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewBatch(trace, meta, []Config{cfg})
		if err != nil {
			t.Fatal(err)
		}
		want, errs := b.Run()
		if errs[0] != nil {
			t.Fatal(errs[0])
		}
		if !reflect.DeepEqual(got, want[0]) {
			t.Errorf("%s: New differs from a batch over the recorded trace\nNew:   %+v\nbatch: %+v", cfg.Name, got, want[0])
		}
	}
}

// benchTraceAndConfigs records one trace (gzip by default; PIPELINE_BENCH
// selects another workload for targeted profiling) and the full five-config
// grid a sweep batches, shared by the two benchmarks below.
func benchTraceAndConfigs(b *testing.B) (*emu.Trace, *TraceMeta, []Config) {
	b.Helper()
	bench := os.Getenv("PIPELINE_BENCH")
	if bench == "" {
		bench = "gzip"
	}
	prog, err := workload.Generate(bench, workload.Options{Iterations: 120})
	if err != nil {
		b.Fatalf("generate: %v", err)
	}
	trace, meta := recordWithMeta(b, prog)
	return trace, meta, allConfigs()
}

func runBatch(b *testing.B, trace *emu.Trace, meta *TraceMeta, cfgs []Config) {
	bt, err := NewBatch(trace, meta, cfgs)
	if err != nil {
		b.Fatal(err)
	}
	_, errs := bt.Run()
	for _, e := range errs {
		if e != nil {
			b.Fatal(e)
		}
	}
}

// BenchmarkBatchRun and BenchmarkScalarRun measure the same five-config
// grid interleaved in one batch and one configuration at a time; their
// ratio is what sharing the trace region buys on one benchmark. The trace
// stays warm across both, so the ratio understates what batching saves a
// whole sweep, which perfbench's paper-figures workload measures.
func BenchmarkBatchRun(b *testing.B) {
	trace, meta, cfgs := benchTraceAndConfigs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runBatch(b, trace, meta, cfgs)
	}
}

func BenchmarkScalarRun(b *testing.B) {
	trace, meta, cfgs := benchTraceAndConfigs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cfg := range cfgs {
			runBatch(b, trace, meta, []Config{cfg})
		}
	}
}

// TestBatchRejectsEmpty covers the degenerate constructor cases: no
// configurations, and a meta that belongs to a different trace.
func TestBatchRejectsEmpty(t *testing.T) {
	prog, err := workload.Generate("gzip", workload.Options{Iterations: 5})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	trace, meta := recordWithMeta(t, prog)
	if _, err := NewBatch(trace, meta, nil); err == nil {
		t.Fatal("NewBatch with no configurations: want error")
	}
	other, err := workload.Generate("gzip", workload.Options{Iterations: 6})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	_, otherMeta := recordWithMeta(t, other)
	if _, err := NewBatch(trace, otherMeta, allConfigs()); err == nil {
		t.Fatal("NewBatch with another trace's meta: want error")
	}
}
