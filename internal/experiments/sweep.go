package experiments

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/pipeline"
	"repro/internal/program"
	"repro/internal/stats"
	"repro/internal/workload"
)

// traceCache hands out each benchmark's recorded dynamic instruction trace
// and its pre-decoded TraceMeta. The functional execution of a benchmark is
// identical under every machine configuration, so a sweep records and
// pre-decodes it once and shares both read-only across all concurrent
// simulations of that benchmark. Entries are reference-counted by pending
// job, so a long sweep holds only the traces it is actively simulating
// instead of one per benchmark.
type traceCache struct {
	mu      sync.Mutex
	entries map[string]*traceEntry
	left    map[string]int // pending jobs per benchmark
}

type traceEntry struct {
	once   sync.Once
	record func() (*emu.Trace, error)
	trace  *emu.Trace
	meta   *pipeline.TraceMeta
	err    error
}

func newTraceCache(progs map[string]*program.Program, loaders map[string]func() (*emu.Trace, error), pending []sweepJob) *traceCache {
	c := &traceCache{
		entries: make(map[string]*traceEntry, len(progs)+len(loaders)),
		left:    make(map[string]int, len(progs)+len(loaders)),
	}
	for b := range progs {
		prog := progs[b]
		// The record closure runs inside once.Do on first use, so workers
		// that share a benchmark block until its trace exists and record it
		// exactly once.
		c.entries[b] = &traceEntry{record: func() (*emu.Trace, error) { return emu.RecordTrace(prog, 0) }}
	}
	// Trace-backed benchmarks (the trace experiment) have no program: their
	// shared trace comes from decoding a recorded file, under the same
	// once.Do so concurrent configurations of one trace decode it exactly
	// once.
	for b := range loaders {
		c.entries[b] = &traceEntry{record: loaders[b]}
	}
	for _, j := range pending {
		c.left[j.benchmark]++
	}
	return c
}

// get returns the benchmark's shared trace and TraceMeta, recording and
// pre-decoding them on first use.
func (c *traceCache) get(benchmark string) (*emu.Trace, *pipeline.TraceMeta, error) {
	c.mu.Lock()
	e := c.entries[benchmark]
	c.mu.Unlock()
	if e == nil {
		return nil, nil, fmt.Errorf("experiments: no trace entry for benchmark %q", benchmark)
	}
	e.once.Do(func() {
		if e.trace, e.err = e.record(); e.err == nil {
			e.meta, e.err = pipeline.NewTraceMeta(e.trace)
		}
	})
	return e.trace, e.meta, e.err
}

// release notes that one of the benchmark's jobs finished, dropping the
// trace when none remain.
func (c *traceCache) release(benchmark string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.left[benchmark]--; c.left[benchmark] <= 0 {
		delete(c.entries, benchmark)
		delete(c.left, benchmark)
	}
}

// sweepJob is one (benchmark, configuration) simulation in a sweep's
// deterministic job list. index is the job's position in the full list and
// decides which shard owns it.
type sweepJob struct {
	index     int
	benchmark string
	key       string
	cfg       pipeline.Config
}

// PairSlice restricts a run to the contiguous job-list positions
// [Start, End) of the sweep's deterministic pair order. Unlike the modulo
// sharding of Options.Shards, a slice is a dense range — the unit the
// distributed coordinator leases to one remote worker as a shard task.
type PairSlice struct {
	Start int `json:"start"`
	End   int `json:"end"`
}

// PairJob identifies one pending (benchmark, configuration) simulation by
// its position in the full deterministic pair order. It is the unit of work
// an Executor is handed: enough to address the pair remotely (a remote
// worker re-derives the grid from the job spec and selects by index), and
// enough for the engine to fold the result back into the sweep.
type PairJob struct {
	Index     int    `json:"index"`
	Benchmark string `json:"benchmark"`
	Config    string `json:"config"`
}

// ExecRequest is the engine's side of an execution: the pending pairs after
// resume and shard filtering, the already-resolved entries a remote slice may
// span, and the callback that lands results.
type ExecRequest struct {
	// Pending lists the pairs to execute, in ascending Index order (a
	// subsequence of the full deterministic pair order).
	Pending []PairJob
	// Resumed maps full-order indices that were already resolved from the
	// result store to their entries. A contiguous slice [Start, End) leased
	// over the full order may span resolved pairs; sending their entries
	// along lets the remote worker resume them instead of re-simulating.
	Resumed map[int]CheckpointEntry
	// Emit reports one executed pair's measurements. It is safe for
	// concurrent use, idempotent per pair (a duplicate emission — e.g. a
	// re-queued shard task whose original worker already delivered some
	// pairs — is ignored), and must not be called after the Executor
	// returns.
	Emit func(PairJob, stats.Run)
}

// Executor runs a sweep's pending pairs and lands each through req.Emit. The
// default is the local worker pool (localExecutor); the simulation
// coordinator installs one that leases contiguous slices of the pair order
// to remote workers. The engine owns planning, resume, the result store, and
// progress events; the executor owns only raw pair execution. Returning an
// error fails the sweep (pairs already emitted are still recorded in the
// store).
type Executor func(ctx context.Context, req ExecRequest) error

// Summary describes how a sweep's job list was disposed of.
type Summary struct {
	// Total is the size of the full (benchmark × configuration) grid.
	Total int
	// Executed counts jobs simulated by this process.
	Executed int
	// Resumed counts jobs loaded from the result store instead of re-run.
	Resumed int
	// SkippedShard counts jobs belonging to other shards.
	SkippedShard int
	// Failed counts pending jobs that were not executed: their simulation
	// returned an error, the executor never delivered them, or the run was
	// cancelled first.
	Failed int
	// Incomplete counts benchmarks dropped from a table/figure presentation
	// because shard selection left them without a full configuration set.
	Incomplete int
	// BatchGroups and BatchedPairs count config-parallel execution as
	// planned: groups of width > 1 and the pairs they cover. Zero when every
	// group was a singleton. They describe only how pairs were simulated,
	// never what was measured, so they appear in no report rendering.
	BatchGroups  int
	BatchedPairs int
}

// CheckpointEntry is one finished job: one record of a ResultStore and the
// payload of a per-pair progress event.
// Experiment scopes the entry so a store shared across experiments cannot
// serve one experiment's runs to another, and Iterations/MaxInsts pin the
// workload length so a resume under different settings re-runs instead of
// silently serving stale measurements.
type CheckpointEntry struct {
	Experiment string    `json:"experiment,omitempty"`
	Iterations int       `json:"iterations,omitempty"`
	MaxInsts   uint64    `json:"max_insts,omitempty"`
	Benchmark  string    `json:"benchmark"`
	Config     string    `json:"config"`
	Run        stats.Run `json:"run"`
}

// Key returns the entry's identity within a result store: the fields that
// must all match for a stored run to be served instead of re-simulated.
func (e CheckpointEntry) Key() string {
	return pairKey(e.Experiment, e.Iterations, e.MaxInsts, e.Benchmark, e.Config)
}

func pairKey(scope string, iterations int, maxInsts uint64, benchmark, config string) string {
	return fmt.Sprintf("%s\x00%d\x00%d\x00%s\x00%s", scope, iterations, maxInsts, benchmark, config)
}

// ResultStore abstracts where finished (benchmark, configuration) runs live.
// The sweep engine loads previously stored entries before executing anything
// — entries whose Key matches a planned job are served as resumed results —
// and appends every newly finished run. ResultFile is the implementation
// nosq-experiments -checkpoint and the simulation server share.
// Implementations must be safe for concurrent Append calls.
type ResultStore interface {
	// Load returns the stored entries plus a count of corrupt records that
	// were skipped (e.g. a JSONL line truncated by a crash).
	Load() ([]CheckpointEntry, int, error)
	// Append durably records one finished run.
	Append(CheckpointEntry) error
}

// ProgressSink observes a sweep as it runs. Planned fires once per sweep,
// after resume and shard filtering decided what actually executes; PairDone
// fires for every pair simulated by this process, as its result lands.
// PairDone may be called concurrently from worker goroutines' result
// collector; implementations are invoked synchronously and should be quick.
type ProgressSink interface {
	// Planned reports the job accounting: the full grid size, pairs resumed
	// from the result store, pairs owned by other shards, and pairs this
	// process will execute.
	Planned(total, resumed, skippedShard, pending int)
	// PairDone reports one executed pair as its checkpoint entry.
	PairDone(CheckpointEntry)
}

// PairTimer is an optional extension of ProgressSink: a sink that also
// implements it receives each locally executed pair's wall-clock simulation
// time. Config-parallel batching makes exact per-pair time unobservable —
// members of one batch simulate interleaved — so the engine times the whole
// execution group and attributes an equal share to each member; singleton
// groups get their true time. Implementations may be called concurrently
// from worker goroutines and should be quick. The interface is type-asserted
// at runtime, so existing ProgressSink implementations keep working unchanged.
type PairTimer interface {
	PairTimed(benchmark, config string, wall time.Duration)
}

// ValidateShards checks an Options.Shards/ShardIndex pair: a shard count of
// 0 or 1 means no sharding and takes no index, and a count above 1 needs an
// index in [0, shards).
func ValidateShards(shards, index int) error {
	switch {
	case shards < 0:
		return fmt.Errorf("experiments: negative shard count %d", shards)
	case shards <= 1 && index != 0:
		return fmt.Errorf("experiments: shard index %d needs a shard count above 1, got %d", index, shards)
	case shards > 1 && (index < 0 || index >= shards):
		return fmt.Errorf("experiments: shard index %d outside [0,%d)", index, shards)
	}
	return nil
}

// runSweep is the sweep engine behind every experiment: it runs each
// (benchmark, configuration) pair through the simulator, by default on the
// local worker pool (localExecutor), generating each benchmark's program
// once. Locally executed pairs of the same benchmark and window geometry run
// config-parallel — one batch simulation over the benchmark's shared trace
// (see pipeline.Batch and planGroups); a pair's measurements do not depend on
// its group, so grouping is invisible in every output.
//
// The job list is deterministic — benchmarks in the given order, configuration
// keys sorted — which makes two things possible. First, sharding: with
// opts.Shards > 1, only jobs whose list position i satisfies
// i % Shards == ShardIndex are run, so independent processes (or machines) can
// split one sweep without coordination (opts.Slice selects a contiguous
// position range instead — the coordinated, leased variant of the same idea).
// Second, resumption: every finished job is appended to opts.Store, and pairs
// already present in the store are loaded instead of re-run. Entries are
// keyed by (experiment scope, iterations, max-insts, benchmark,
// configuration), so a shared store never serves runs across experiments or
// across workload lengths; shards pointed at a shared file (or at per-shard
// files later concatenated) merge into one result set.
//
// Planning and completion are observable through Options.Progress. Every
// executed pair, local or remote, lands through ExecRequest.Emit.
//
// Cancelling ctx stops dispatching new jobs; in-flight simulations finish,
// are recorded in the store, and runSweep returns ctx.Err().
func runSweep(ctx context.Context, benchmarks []string, cfgs map[string]pipeline.Config, opts Options) (map[string]map[string]stats.Run, Summary, error) {
	var sum Summary
	if err := ValidateShards(opts.Shards, opts.ShardIndex); err != nil {
		return nil, sum, err
	}
	if opts.Slice != nil && (opts.Slice.Start < 0 || opts.Slice.End < opts.Slice.Start) {
		return nil, sum, fmt.Errorf("experiments: invalid pair slice [%d,%d)", opts.Slice.Start, opts.Slice.End)
	}

	keys := make([]string, 0, len(cfgs))
	for k := range cfgs {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	jobs := make([]sweepJob, 0, len(benchmarks)*len(keys))
	for _, b := range benchmarks {
		for _, k := range keys {
			jobs = append(jobs, sweepJob{index: len(jobs), benchmark: b, key: k, cfg: cfgs[k]})
		}
	}
	sum.Total = len(jobs)

	out := make(map[string]map[string]stats.Run, len(benchmarks))
	for _, b := range benchmarks {
		out[b] = make(map[string]stats.Run, len(keys))
	}

	done := make(map[string]CheckpointEntry)
	if opts.Store != nil {
		entries, _, err := opts.Store.Load()
		if err != nil {
			return nil, sum, err
		}
		for _, e := range entries {
			done[e.Key()] = e
		}
	}
	var pending []sweepJob
	resumed := make(map[int]CheckpointEntry)
	for _, j := range jobs {
		if e, ok := done[pairKey(opts.scope, opts.Iterations, opts.MaxInsts, j.benchmark, j.key)]; ok {
			out[j.benchmark][j.key] = e.Run
			resumed[j.index] = e
			sum.Resumed++
			continue
		}
		if opts.Shards > 1 && j.index%opts.Shards != opts.ShardIndex {
			sum.SkippedShard++
			continue
		}
		if opts.Slice != nil && (j.index < opts.Slice.Start || j.index >= opts.Slice.End) {
			sum.SkippedShard++
			continue
		}
		pending = append(pending, j)
	}
	if opts.Progress != nil {
		opts.Progress.Planned(sum.Total, sum.Resumed, sum.SkippedShard, len(pending))
	}
	if len(pending) == 0 {
		return out, sum, ctx.Err()
	}

	req := ExecRequest{
		Pending: make([]PairJob, len(pending)),
		Resumed: resumed,
	}
	for i, j := range pending {
		req.Pending[i] = PairJob{Index: j.index, Benchmark: j.benchmark, Config: j.key}
	}
	// Emit is the one landing path for an executed pair: record its run,
	// append it to the store, and report it. Resumed and already-delivered
	// pairs are ignored, which makes a re-queued remote task's duplicate
	// emissions harmless.
	var mu sync.Mutex
	var storeErr error
	req.Emit = func(pj PairJob, run stats.Run) {
		mu.Lock()
		defer mu.Unlock()
		if _, dup := out[pj.Benchmark][pj.Config]; dup {
			return
		}
		out[pj.Benchmark][pj.Config] = run
		sum.Executed++
		e := CheckpointEntry{Experiment: opts.scope, Iterations: opts.Iterations, MaxInsts: opts.MaxInsts,
			Benchmark: pj.Benchmark, Config: pj.Config, Run: run}
		if opts.Store != nil {
			if err := opts.Store.Append(e); err != nil && storeErr == nil {
				storeErr = err
			}
		}
		if opts.afterPair != nil {
			opts.afterPair(sum.Executed)
		}
		if opts.Progress != nil {
			opts.Progress.PairDone(e)
		}
	}

	exec := opts.Executor
	if exec == nil {
		exec = localExecutor(pending, opts, &sum)
	}
	err := exec(ctx, req)
	mu.Lock()
	defer mu.Unlock()
	if err == nil {
		err = storeErr
	}
	if err == nil {
		err = ctx.Err()
	}
	sum.Failed = len(pending) - sum.Executed
	return out, sum, err
}

// localExecutor is the default Executor: it simulates the pending pairs on a
// pool of opts.workers() goroutines, one execution group (see planGroups) at
// a time, and counts the planned batching in sum. It returns the first
// pair's simulation error.
func localExecutor(pending []sweepJob, opts Options, sum *Summary) Executor {
	return func(ctx context.Context, req ExecRequest) error {
		// Generate programs up front (cheap, single-threaded,
		// deterministic), only for benchmarks that still have pending work.
		// Each benchmark's dynamic instruction trace is then recorded once,
		// on first use, and shared read-only by every simulation of that
		// benchmark. Trace-backed benchmarks have no program to generate —
		// their recorded file is the trace — so they only contribute
		// loaders.
		progs := make(map[string]*program.Program)
		loaders := make(map[string]func() (*emu.Trace, error), len(opts.traceLoaders))
		for _, j := range pending {
			if _, ok := progs[j.benchmark]; ok {
				continue
			}
			if _, ok := loaders[j.benchmark]; ok {
				continue
			}
			if load, ok := opts.traceLoaders[j.benchmark]; ok {
				loaders[j.benchmark] = load
				continue
			}
			p, err := opts.generateProgram(j.benchmark)
			if err != nil {
				return err
			}
			progs[j.benchmark] = p
		}
		traces := newTraceCache(progs, loaders, pending)

		// Same-benchmark, same-geometry pairs run config-parallel as one
		// batch over the shared trace. Grouping affects only how pairs are
		// simulated: each pair still lands alone through req.Emit.
		groups := planGroups(pending)
		for _, g := range groups {
			if len(g.jobs) > 1 {
				sum.BatchGroups++
				sum.BatchedPairs += len(g.jobs)
			}
		}

		workers := opts.workers()
		if workers > len(groups) {
			workers = len(groups)
		}
		timer, _ := opts.Progress.(PairTimer)
		groupCh := make(chan sweepGroup)
		var mu sync.Mutex
		var firstErr error
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for g := range groupCh {
					start := time.Now()
					results := runGroup(g, traces, opts)
					// One batch simulates its members interleaved, so
					// per-pair wall time is the group's time split evenly.
					per := time.Since(start) / time.Duration(len(results))
					for _, r := range results {
						if r.err != nil {
							mu.Lock()
							if firstErr == nil {
								firstErr = fmt.Errorf("%s/%s: %w", r.job.benchmark, r.job.key, r.err)
							}
							mu.Unlock()
							continue
						}
						if timer != nil {
							timer.PairTimed(r.job.benchmark, r.job.key, per)
						}
						req.Emit(PairJob{Index: r.job.index, Benchmark: r.job.benchmark, Config: r.job.key}, r.run)
					}
				}
			}()
		}
	dispatch:
		for _, g := range groups {
			select {
			case groupCh <- g:
			case <-ctx.Done():
				break dispatch
			}
		}
		close(groupCh)
		wg.Wait()
		return firstErr
	}
}

// SweepRow is one (benchmark, configuration, window) cell of the free-form
// sweep experiment.
type SweepRow struct {
	Benchmark string
	Suite     workload.Suite
	Config    string
	Window    int
	Cycles    uint64
	Committed uint64
	IPC       float64
	// CommPct is the percentage of committed loads with in-window
	// store-load communication.
	CommPct float64
	// Bypassed / Delayed count speculatively bypassed and delay-held loads.
	Bypassed uint64
	Delayed  uint64
	// MisPer10k is bypassing mis-predictions per 10,000 committed loads.
	MisPer10k float64
	Flushes   uint64
	// DCacheReads is total (core + back-end) data-cache reads.
	DCacheReads  uint64
	Reexecutions uint64
}

// dedup removes repeated grid values, keeping first-occurrence order, so a
// duplicated -windows/-configs entry cannot yield duplicate rows.
func dedup[T comparable](xs []T) []T {
	seen := make(map[T]bool, len(xs))
	out := xs[:0:0]
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// sweepKinds resolves the sweep grid's configuration kinds (nil = all five).
func sweepKinds(names []string) ([]core.ConfigKind, error) {
	if len(names) == 0 {
		return core.Kinds(), nil
	}
	kinds := make([]core.ConfigKind, 0, len(names))
	for _, n := range names {
		k, err := core.KindByName(strings.TrimSpace(n))
		if err != nil {
			return nil, err
		}
		kinds = append(kinds, k)
	}
	return kinds, nil
}

// sweepKey names one grid cell; sorting these keys preserves the
// configuration-major, window-minor grid order within a benchmark.
func sweepKey(kind core.ConfigKind, window int) string {
	return fmt.Sprintf("%s@w%04d", kind, window)
}

// Sweep runs the free-form sweep experiment: every combination of
// opts.Configs (default: all five configuration kinds) × opts.Windows
// (default: the 128-entry window) × the benchmark set (default: the paper's
// selected benchmarks). Unlike the table/figure experiments, a sweep has no
// fixed presentation — it reports the raw per-run measurements, one row per
// grid cell, and is the intended vehicle for sharded and resumable bulk runs.
func Sweep(ctx context.Context, opts Options) (*Report, error) {
	opts.scope = "sweep"
	kinds, err := sweepKinds(opts.Configs)
	if err != nil {
		return nil, err
	}
	kinds = dedup(kinds)
	windows := opts.Windows
	if len(windows) == 0 {
		windows = []int{128}
	}
	windows = dedup(windows)
	for _, w := range windows {
		if w <= 0 {
			return nil, fmt.Errorf("experiments: invalid window size %d", w)
		}
	}
	benchmarks := defaultBenchmarks(opts, true)

	cfgs := make(map[string]pipeline.Config, len(kinds)*len(windows))
	for _, k := range kinds {
		for _, w := range windows {
			cfgs[sweepKey(k, w)] = core.ConfigFor(k, w)
		}
	}
	runs, sum, err := runSweep(ctx, benchmarks, cfgs, opts)
	if err != nil {
		return nil, err
	}

	var rows []SweepRow
	bySuite := orderedBySuite(benchmarks)
	for _, suite := range suiteOrder {
		for _, b := range bySuite[suite] {
			for _, k := range kinds {
				for _, w := range windows {
					run, ok := runs[b][sweepKey(k, w)]
					if !ok {
						continue // another shard's job
					}
					rows = append(rows, SweepRow{
						Benchmark:    b,
						Suite:        suite,
						Config:       k.String(),
						Window:       w,
						Cycles:       run.Cycles,
						Committed:    run.Committed,
						IPC:          run.IPC(),
						CommPct:      run.PctInWindowComm(),
						Bypassed:     run.BypassedLoads,
						Delayed:      run.DelayedLoads,
						MisPer10k:    run.MispredictsPer10kLoads(),
						Flushes:      run.Flushes,
						DCacheReads:  run.TotalDCacheReads(),
						Reexecutions: run.Reexecutions,
					})
				}
			}
		}
	}

	tbl := stats.NewTable("Sweep: raw measurements per (benchmark, configuration, window)",
		"benchmark", "suite", "config", "window", "cycles", "committed", "IPC",
		"comm%", "bypassed", "delayed", "mispred/10k", "flushes", "D$ reads", "reexec")
	for _, r := range rows {
		tbl.AddRow(r.Benchmark, r.Suite.String(), r.Config, r.Window, r.Cycles, r.Committed,
			r.IPC, r.CommPct, r.Bypassed, r.Delayed, r.MisPer10k, r.Flushes, r.DCacheReads, r.Reexecutions)
	}

	rep := report("sweep", tbl, rows, sum)
	kindNames := make([]string, len(kinds))
	for i, k := range kinds {
		kindNames[i] = k.String()
	}
	windowNames := make([]string, len(windows))
	for i, w := range windows {
		windowNames[i] = strconv.Itoa(w)
	}
	rep.AddMeta("configs", strings.Join(kindNames, ","))
	rep.AddMeta("windows", strings.Join(windowNames, ","))
	rep.AddMeta("benchmarks", len(benchmarks))
	if opts.Shards > 1 {
		rep.AddMeta("shard", fmt.Sprintf("%d/%d", opts.ShardIndex, opts.Shards))
	}
	return rep, nil
}
