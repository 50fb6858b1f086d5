package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/emu"
	"repro/internal/experiments"
	"repro/internal/pipeline"
	"repro/internal/program"
	"repro/internal/traceio"
	"repro/internal/workload"
)

// layerTimes accumulates what a traced pass spends in each layer: seconds
// per layer plus the exact work counts behind the rates.
type layerTimes struct {
	generate, record, decode, meta, simulate, render float64
	// unattributed is the traced runs' wall time outside program
	// generation and the engine's pair time: planning, result assembly,
	// report rows.
	unattributed                     float64
	recordInsts                      uint64
	decodeBytes                      int64
	pairs, committed, cycles, allocs uint64
}

// timed runs fn and adds its wall time to *acc.
func timed(acc *float64, fn func() error) error {
	t := time.Now()
	err := fn()
	*acc += time.Since(t).Seconds()
	return err
}

func (lt *layerTimes) generateProgram(gen func() (*program.Program, error)) (p *program.Program, err error) {
	err = timed(&lt.generate, func() error { p, err = gen(); return err })
	return p, err
}

func (lt *layerTimes) recordTrace(p *program.Program, limit uint64) (tr *emu.Trace, err error) {
	err = timed(&lt.record, func() error { tr, err = emu.RecordTrace(p, limit); return err })
	if err == nil {
		lt.recordInsts += tr.Len()
	}
	return tr, err
}

// pairSink observes an in-process experiment run. It keeps every executed
// pair's entry and, as an experiments.PairTimer, sums the wall time the
// engine attributes to the pairs: for each execution group, producing the
// benchmark's trace on first use, its batch metadata, and the simulation.
type pairSink struct {
	mu      sync.Mutex
	entries []experiments.CheckpointEntry
	engine  time.Duration
}

func (s *pairSink) Planned(total, resumed, skippedShard, pending int) {}

func (s *pairSink) PairDone(e experiments.CheckpointEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries = append(s.entries, e)
}

func (s *pairSink) PairTimed(benchmark, config string, wall time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.engine += wall
}

// traceProducer makes one benchmark's trace again, as the engine made it
// for a run, timing each layer call into lt.
type traceProducer func(lt *layerTimes, benchmark string) (*emu.Trace, error)

// generated produces the traces of a run over workload benchmarks (or the
// run's scenario): generate the program, then record its trace.
func generated(opts experiments.Options) traceProducer {
	return func(lt *layerTimes, name string) (*emu.Trace, error) {
		p, err := lt.generateProgram(func() (*program.Program, error) {
			if s := opts.Scenario; s != nil && s.Name == name {
				return workload.GenerateScenario(*s, workload.Options{Iterations: opts.Iterations})
			}
			return workload.Generate(name, workload.Options{Iterations: opts.Iterations})
		})
		if err != nil {
			return nil, err
		}
		return lt.recordTrace(p, 0)
	}
}

// decoded produces the traces of a trace-experiment run: decode each
// recorded file, found by its reference name.
func decoded(paths map[string]string) traceProducer {
	return func(lt *layerTimes, ref string) (tr *emu.Trace, err error) {
		path, ok := paths[ref]
		if !ok {
			return nil, fmt.Errorf("no recorded trace for %s", ref)
		}
		err = timed(&lt.decode, func() (err error) { tr, _, err = traceio.ReadFile(path); return err })
		if err != nil {
			return nil, err
		}
		fi, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		lt.decodeBytes += fi.Size()
		return tr, nil
	}
}

// traceRun is one traced in-process run of an experiment on the default
// engine. It runs h with a pairSink and checks the report against want.
// It then repeats, call by call, the work the engine's pair timing does not
// split out — producing each simulated benchmark's trace and its batch
// metadata — and checks that every pair committed its whole trace. The
// engine's pair time less that production and metadata time is the
// simulation time. Last it times a run resumed from the pairs' results,
// which plans and renders without simulating. It returns the traced run's
// wall seconds.
func (b *bench) traceRun(ctx context.Context, lt *layerTimes, what string, h experiments.Experiment,
	opts experiments.Options, want []byte, produce traceProducer) (float64, error) {
	sink := &pairSink{}
	opts.Progress = sink
	a0, t0 := heapAllocs(), time.Now()
	rep, err := h.Run(ctx, opts)
	wall := time.Since(t0).Seconds()
	runAllocs := heapAllocs() - a0
	if err != nil {
		return 0, fmt.Errorf("%s: %w", what, err)
	}
	csv, err := renderCSV(rep)
	if err != nil {
		return 0, err
	}
	// The traced run and the resumed run are two operations per pair.
	b.attempted += 2 * len(sink.entries)
	if !bytes.Equal(csv, want) {
		b.fail(len(sink.entries), "%s: the traced run's report differs from the reference", what)
	}

	var re layerTimes
	a1 := heapAllocs()
	lens := make(map[string]uint64)
	for _, e := range sink.entries {
		if _, ok := lens[e.Benchmark]; ok {
			continue
		}
		tr, err := produce(&re, e.Benchmark)
		if err != nil {
			return 0, err
		}
		if err := timed(&re.meta, func() error { _, err := pipeline.NewTraceMeta(tr); return err }); err != nil {
			return 0, err
		}
		lens[e.Benchmark] = tr.Len()
	}
	reAllocs := heapAllocs() - a1
	for _, e := range sink.entries {
		if e.Run.Committed != lens[e.Benchmark] {
			b.fail(1, "%s: %s/%s committed %d instructions of a %d-instruction trace", what,
				e.Benchmark, e.Config, e.Run.Committed, lens[e.Benchmark])
		}
		lt.pairs++
		lt.committed += e.Run.Committed
		lt.cycles += e.Run.Cycles
	}
	lt.generate += re.generate
	lt.record += re.record
	lt.recordInsts += re.recordInsts
	lt.decode += re.decode
	lt.decodeBytes += re.decodeBytes
	lt.meta += re.meta
	lt.simulate += max(0, sink.engine.Seconds()-re.record-re.decode-re.meta)
	lt.unattributed += wall - re.generate - sink.engine.Seconds()
	if runAllocs > reAllocs {
		lt.allocs += runAllocs - reAllocs
	}

	opts.Progress = nil
	opts.Store = &memStore{entries: sink.entries}
	err = timed(&lt.render, func() error {
		if rep, err = h.Run(ctx, opts); err != nil {
			return err
		}
		csv, err = renderCSV(rep)
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("%s resumed: %w", what, err)
	}
	if rep.Summary.Resumed != rep.Summary.Total || !bytes.Equal(csv, want) {
		b.fail(rep.Summary.Total, "%s: the run resumed from its results (%d of %d pairs resumed) differs",
			what, rep.Summary.Resumed, rep.Summary.Total)
	}
	return wall, nil
}

// heapAllocs returns the cumulative count of heap objects allocated by the
// process, read without stopping the world.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// pipelineLayers stores the pipeline, record and decode metrics of one
// pass's layer times.
func (b *bench) pipelineLayers(lt layerTimes) {
	b.layers["workload.generate_s"] = lt.generate
	b.layers["emu.record_s"] = lt.record
	if lt.record > 0 {
		b.layers["emu.record_minst_per_s"] = float64(lt.recordInsts) / 1e6 / lt.record
	}
	b.layers["pipeline.meta_s"] = lt.meta
	b.layers["pipeline.simulate_s"] = lt.simulate
	b.layers["pipeline.pairs"] = float64(lt.pairs)
	b.layers["pipeline.committed"] = float64(lt.committed)
	b.layers["pipeline.sim_cycles"] = float64(lt.cycles)
	if lt.simulate > 0 {
		b.layers["pipeline.minst_per_s"] = float64(lt.committed) / 1e6 / lt.simulate
	}
	if lt.cycles > 0 {
		b.layers["pipeline.ns_per_cycle"] = lt.simulate * 1e9 / float64(lt.cycles)
	}
	if lt.committed > 0 {
		b.layers["pipeline.allocs_per_kinst"] = float64(lt.allocs) / (float64(lt.committed) / 1000)
	}
	b.layers["experiments.render_s"] = lt.render
	if lt.decode > 0 {
		b.layers["traceio.decode_s"] = lt.decode
		b.layers["traceio.decode_mb_per_s"] = float64(lt.decodeBytes) / 1e6 / lt.decode
	}
}

// medianLayers reduces per-pass layer times to their medians. Work counts
// are the first traced pass's: the same for a seed on every run (on
// service-mix each round draws new specs, so rounds differ from each other).
func medianLayers(passes []layerTimes) layerTimes {
	if len(passes) == 0 {
		return layerTimes{}
	}
	pick := func(f func(layerTimes) float64) float64 {
		xs := make([]float64, len(passes))
		for i, p := range passes {
			xs[i] = f(p)
		}
		return median(xs)
	}
	lt := passes[0]
	lt.generate = pick(func(p layerTimes) float64 { return p.generate })
	lt.record = pick(func(p layerTimes) float64 { return p.record })
	lt.decode = pick(func(p layerTimes) float64 { return p.decode })
	lt.meta = pick(func(p layerTimes) float64 { return p.meta })
	lt.simulate = pick(func(p layerTimes) float64 { return p.simulate })
	lt.render = pick(func(p layerTimes) float64 { return p.render })
	lt.unattributed = pick(func(p layerTimes) float64 { return p.unattributed })
	lt.allocs = uint64(pick(func(p layerTimes) float64 { return float64(p.allocs) }))
	return lt
}

// memStore is an in-memory experiments.ResultStore. Filled with a traced
// pass's results, it lets the experiment resume every pair and render its
// report from them.
type memStore struct {
	mu      sync.Mutex
	entries []experiments.CheckpointEntry
}

func (s *memStore) Load() ([]experiments.CheckpointEntry, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]experiments.CheckpointEntry(nil), s.entries...), 0, nil
}

func (s *memStore) Append(e experiments.CheckpointEntry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries = append(s.entries, e)
	return nil
}

// rng is a splitmix64 generator: the benchmark derives every input from it,
// so one seed always yields the same inputs.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream string) *rng {
	r := &rng{s: seed}
	for _, c := range stream {
		r.s = r.s*31 + uint64(c)
	}
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// committed sums the committed instructions of a job's pair results.
func committed(entries []experiments.CheckpointEntry) uint64 {
	var n uint64
	for _, e := range entries {
		n += e.Run.Committed
	}
	return n
}
