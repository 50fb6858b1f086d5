// Package repro is a from-scratch Go reproduction of "NoSQ: Store-Load
// Communication without a Store Queue" (Sha, Martin, Roth; MICRO-39, 2006).
//
// The library lives under internal/: the SimISA functional emulator and its
// oracle memory-dependence annotation (emu, isa, mem), the cycle-level
// out-of-order timing model with both the conventional (associative store
// queue) and NoSQ organisations (pipeline, with bpred, cache, storesets),
// the NoSQ mechanisms themselves — distance-based store-load bypassing
// prediction (bypass), speculative memory bypassing (smb), SVW-filtered
// in-order load re-execution (svw) — the synthetic SPEC2000/MediaBench
// stand-in workloads and declarative stress scenarios (workload, program),
// and the registry-driven experiment subsystem (experiments, with core and
// stats) whose named experiments regenerate Table 5 and Figures 2-5 of the
// paper as text, Markdown, JSON, or CSV, with sharded and
// checkpoint-resumable sweeps.
//
// Simulation throughput is measured by the perf harness (perf), which runs a
// pinned benchmark grid over shared recorded traces (emu.Trace +
// pipeline.NewBatch) and emits BENCH_<rev>.json documents that CI gates
// against the committed baseline under bench/.
//
// The simulation service (simserver, with the simapi wire types and the
// simclient typed client; command cmd/nosq-server) runs experiments as a
// long-lived HTTP job queue with a bounded worker pool and a
// content-addressed result cache, so repeated or overlapping grids are
// served without re-simulating.
//
// The command-line drivers are cmd/nosqsim (one simulation),
// cmd/nosq-experiments (the experiment registry), cmd/nosq-server (the
// simulation service), and cmd/nosq-bench (the perf harness). See README.md
// for a tour, quickstart, and the performance methodology, and DESIGN.md for
// the system inventory and the NoSQ vs. conventional pipeline data flow.
//
// This root package holds the repository-level benchmark harness
// (bench_test.go): one benchmark per table/figure plus ablation and
// microarchitecture-component benchmarks.
package repro
