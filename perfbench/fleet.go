package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/program"
	"repro/internal/simapi"
	"repro/internal/simclient"
	"repro/internal/simserver"
	"repro/internal/simworker"
	"repro/internal/traceio"
	"repro/internal/workload"
)

// fleet is one set-up of the fleet-replay workload: recorded traces under
// <root>/bench/traces, a coordinator, and its registered workers.
type fleet struct {
	root   string
	refs   []string
	paths  []string
	bytes  int64
	svc    *service
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// fleetBenchmarks draws the benchmarks to record from the seed: the
// benchmarks in suite order are cut into n equal strata and one is drawn
// from each, so every seed replays a similar mix of program kinds.
func fleetBenchmarks(seed uint64, n int) []string {
	var names []string
	for _, p := range workload.Profiles() {
		names = append(names, p.Name)
	}
	r := newRNG(seed, "fleet-replay")
	out := make([]string, n)
	for i := range out {
		lo, hi := i*len(names)/n, (i+1)*len(names)/n
		out[i] = names[lo+r.intn(hi-lo)]
	}
	return out
}

// setUpFleet records the traces into a fresh root, starts a coordinator and
// two workers (parallelism 1 each), and returns once both have registered.
func (b *bench) setUpFleet(ctx context.Context, lt *layerTimes, encode *float64, benchmarks []string) (*fleet, error) {
	root, err := os.MkdirTemp(filepath.Join(b.work, "tmp"), "fleet-replay-")
	if err != nil {
		return nil, err
	}
	f := &fleet{root: root}
	dir := filepath.Join(root, filepath.FromSlash(experiments.DefaultTraceDir))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return f, err
	}
	for _, name := range benchmarks {
		p, err := lt.generateProgram(func() (*program.Program, error) {
			return workload.Generate(name, workload.Options{Iterations: b.size.FleetIterations})
		})
		if err != nil {
			return f, err
		}
		tr, err := lt.recordTrace(p, b.size.FleetTraceInsts)
		if err != nil {
			return f, err
		}
		var buf bytes.Buffer
		var sum traceio.Summary
		if err := timed(encode, func() (err error) { sum, err = traceio.Encode(&buf, tr); return err }); err != nil {
			return f, err
		}
		m := traceio.NewManifest(sum, "workload/"+name, "perfbench")
		path := filepath.Join(dir, m.TraceFilename())
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			return f, err
		}
		if _, err := traceio.WriteEntry(dir, m); err != nil {
			return f, err
		}
		f.refs = append(f.refs, m.RefName())
		f.paths = append(f.paths, path)
		f.bytes += int64(buf.Len())
	}

	// A lease TTL of 600ms makes the workers renew their leases (every
	// 200ms) while a shard task runs, so renewals sit on the critical path.
	// The coordinator keeps two passes' finished jobs, so its memory is flat
	// from the third pass on, as a long-lived server's is once it reaches
	// its cap (1000 jobs by default, which a run would never reach).
	if f.svc, err = startService(ctx, simserver.Config{
		Workers:         1,
		Parallelism:     1,
		LeaseTTL:        600 * time.Millisecond,
		PollInterval:    10 * time.Millisecond,
		MaxFinishedJobs: 4 * b.size.FleetJobs,
	}); err != nil {
		return f, err
	}
	wctx, cancel := context.WithCancel(ctx)
	f.cancel = cancel
	for i := 0; i < 2; i++ {
		a, err := simworker.New(simworker.Config{
			Server:       f.svc.base,
			Name:         fmt.Sprintf("worker-%d", i),
			Parallelism:  1,
			PollInterval: 10 * time.Millisecond,
		})
		if err != nil {
			return f, err
		}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			a.Run(wctx)
		}()
	}
	c := newClient(f.svc.base, "setup")
	defer c.hc.CloseIdleConnections()
	for {
		m, err := c.Metrics(ctx)
		if err != nil {
			return f, err
		}
		if m.RemoteWorkers == 2 {
			return f, nil
		}
		time.Sleep(time.Millisecond)
	}
}

// tearDown stops the workers and the coordinator and removes the traces.
func (f *fleet) tearDown() error {
	var err error
	if f.cancel != nil {
		f.cancel()
		f.wg.Wait()
	}
	if f.svc != nil {
		err = f.svc.stop()
	}
	if rerr := os.RemoveAll(f.root); err == nil {
		err = rerr
	}
	return err
}

// fleetReplay drives the fleet-replay workload. Each pass replays every
// recorded trace under the fleet configurations as FleetJobs trace jobs,
// one after the other; the coordinator leases each job to its two workers
// as shard tasks and merges their results. Every job is followed by the
// same spec again, which the coordinator serves from its result cache.
// Each pass's fresh specs carry a distinct max_insts far above the trace
// length, so a replay is never served from an earlier pass's cache entries
// and never bounded.
func fleetReplay(ctx context.Context, b *bench) error {
	benchmarks := fleetBenchmarks(b.seed, b.size.FleetTraces)

	// Set-up: record the traces, start the coordinator, register the
	// workers; repeated, the last one serves the run.
	var f *fleet
	var setupLT layerTimes
	var encode float64
	for i := 0; i < b.size.SetupRepeats; i++ {
		if f != nil {
			if err := f.tearDown(); err != nil {
				return err
			}
		}
		setupLT, encode = layerTimes{}, 0
		c0 := cpuSeconds()
		var err error
		f, err = b.setUpFleet(ctx, &setupLT, &encode, benchmarks)
		if err != nil {
			if f != nil {
				f.tearDown()
			}
			return err
		}
		b.setupDone(c0)
	}
	defer f.tearDown()

	// The coordinator and the workers resolve the trace directory relative
	// to the working directory, as a deployment run from a checkout does.
	wd, err := os.Getwd()
	if err != nil {
		return err
	}
	if err := os.Chdir(f.root); err != nil {
		return err
	}
	defer os.Chdir(wd)

	// The traces are split into FleetJobs jobs; each has an untimed
	// reference report from the same replay run in-process.
	h, err := experiments.Lookup("trace")
	if err != nil {
		return err
	}
	type fleetJob struct {
		refs, paths []string
		ref         []byte
	}
	var jobs []fleetJob
	per := len(f.refs) / b.size.FleetJobs
	for j := 0; j < b.size.FleetJobs; j++ {
		fj := fleetJob{refs: f.refs[j*per : (j+1)*per], paths: f.paths[j*per : (j+1)*per]}
		rep, err := h.Run(ctx, experiments.Options{Benchmarks: fj.refs, Configs: b.size.FleetConfigs, Parallelism: 1})
		if err != nil {
			return err
		}
		if fj.ref, err = renderCSV(rep); err != nil {
			return err
		}
		jobs = append(jobs, fj)
	}
	pairs := per * len(b.size.FleetConfigs)

	c := newClient(f.svc.base, "fleet-client")
	defer c.hc.CloseIdleConnections()
	var st serverTrace
	var tracedJobs []jobRun
	var layers []layerTimes
	var shardMax, merge, wallUntraced, wallTraced []float64
	err = b.passes(func(pass int) error {
		traced := b.traced && pass%2 == 1
		var before serverReading
		if traced {
			if before, err = readServer(ctx, c); err != nil {
				return err
			}
		}
		specs := make([]simapi.JobSpec, len(jobs))
		colds := make([]jobRun, len(jobs))
		hits := make([]jobRun, len(jobs))
		t, c0 := time.Now(), cpuSeconds()
		for j, fj := range jobs {
			specs[j] = simapi.JobSpec{
				Experiment: "trace",
				Source:     simclient.TraceSource(fj.refs...),
				Configs:    b.size.FleetConfigs,
				MaxInsts:   1<<40 + uint64(pass)<<8 + uint64(j),
			}
			if colds[j], err = runJob(ctx, c, specs[j]); err != nil {
				return err
			}
			if hits[j], err = runJob(ctx, c, specs[j]); err != nil {
				return err
			}
		}
		wall, cpu := time.Since(t).Seconds(), cpuSeconds()-c0

		var inst uint64
		for j, fj := range jobs {
			cold, hit := colds[j], hits[j]
			b.attempted += 2 * pairs
			switch ci := cold.info; {
			case ci.State != simapi.StateDone:
				b.fail(pairs, "%s ended %s: %s", ci.ID, ci.State, ci.Error)
			case ci.TotalPairs != pairs || ci.CachedPairs != 0 || ci.ExecutedPairs != pairs:
				b.fail(pairs, "fresh %s: %d pairs, %d cached, %d executed; want %d fresh", ci.ID,
					ci.TotalPairs, ci.CachedPairs, ci.ExecutedPairs, pairs)
			case !bytes.Equal(cold.report, fj.ref):
				b.fail(pairs, "%s: fleet report differs from the in-process replay", ci.ID)
			}
			switch hi := hit.info; {
			case hi.State != simapi.StateDone || hi.CachedPairs != pairs:
				b.fail(pairs, "resubmitted %s ended %s with %d of %d pairs from the cache", hi.ID, hi.State,
					hi.CachedPairs, pairs)
			case !bytes.Equal(hit.report, cold.report):
				b.fail(pairs, "resubmitted %s: report differs from its cold job %s", hi.ID, cold.info.ID)
			}
			inst += committed(cold.entries)
			if !traced {
				b.recordJob(true, cold.cpuMs, cold.latencyMs)
				b.recordJob(false, hit.cpuMs, hit.latencyMs)
			}
		}
		if !traced {
			wallUntraced = append(wallUntraced, wall)
			b.recordPass(wall, cpu, inst)
			return nil
		}

		wallTraced = append(wallTraced, wall)
		after, err := readServer(ctx, c)
		if err != nil {
			return err
		}
		st.add(before, after)

		// Replay each cold job's spec traced in-process.
		var lt layerTimes
		for j, fj := range jobs {
			cold := colds[j]
			tracedJobs = append(tracedJobs, cold, hits[j])
			var maxShard float64
			for _, s := range cold.spans {
				switch {
				case strings.HasPrefix(s.Name, "shard["):
					maxShard = max(maxShard, s.DurationMillis)
				case s.Name == "merged":
					merge = append(merge, s.DurationMillis)
				}
			}
			shardMax = append(shardMax, maxShard)

			paths := make(map[string]string, len(fj.refs))
			for i, ref := range fj.refs {
				paths[ref] = fj.paths[i]
			}
			opts := specs[j].Options()
			opts.Parallelism = 1
			if _, err := b.traceRun(ctx, &lt, cold.info.ID, h, opts, cold.report, decoded(paths)); err != nil {
				return err
			}
		}
		layers = append(layers, lt)
		return nil
	})
	if err != nil {
		return err
	}
	if !b.traced {
		return nil
	}

	lt := medianLayers(layers)
	lt.generate, lt.record, lt.recordInsts = setupLT.generate, setupLT.record, setupLT.recordInsts
	b.pipelineLayers(lt)
	b.layers["traceio.encode_s"] = encode
	b.layers["traceio.bytes"] = float64(f.bytes)
	b.serverLayers(&st)
	b.clientLayers(tracedJobs, len(st.passes))
	b.layers["simserver.span.shard_max_ms"] = median(shardMax)
	b.layers["simserver.span.merge_ms"] = median(merge)
	b.layers["tracing.overhead_ratio"] = median(wallTraced)/median(wallUntraced) - 1
	return nil
}
