package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/simapi"
	"repro/internal/simclient"
	"repro/internal/simserver"
	"repro/internal/workload"
)

// mixOp is one job of the service-mix client's schedule: a fresh spec
// (cold) or a resubmission of the spec of an earlier cold op (hit). The
// client runs its ops in order and waits for each, so every resubmitted
// spec's first job has finished; that keeps the cache hit and miss counts
// of a round exact.
type mixOp struct {
	spec simapi.JobSpec
	cold bool
	of   int // for a hit: index of the cold op whose spec it resubmits
}

// mixPairs is the number of (program, configuration) pairs of every
// service-mix job: one program under two configurations.
const mixPairs = 2

// mixRound draws the ops of one round from the seed: half fresh specs and
// half resubmissions, in a drawn order with the first op fresh. A fresh
// spec is a sweep of one benchmark or a scenario of one stress pattern, at
// a drawn length, under two drawn configurations. Each choice is dealt
// from a deck, so a round covers the benchmarks, patterns, lengths and
// configuration pairs evenly and every round, for every seed, does about
// the same work. A fresh spec's max_insts is far above any trace length,
// so it never bounds a simulation, and distinct per fresh spec, so no two
// fresh specs share a result-cache key.
func mixRound(seed uint64, round int, sz sizes) []mixOp {
	r := newRNG(seed, fmt.Sprintf("service-mix/%d", round))
	kinds, names, patterns := core.Kinds(), workload.Names(), workload.Patterns()
	var kindPairs [][2]int
	for i := range kinds {
		for j := i + 1; j < len(kinds); j++ {
			kindPairs = append(kindPairs, [2]int{i, j})
		}
	}
	nameDeck, patternDeck := newDeck(r, len(names)), newDeck(r, len(patterns))
	pairDeck, itersDeck, expDeck := newDeck(r, len(kindPairs)), newDeck(r, len(sz.MixIterations)), newDeck(r, 2)
	fresh := func(at int) simapi.JobSpec {
		kp := kindPairs[pairDeck.deal()]
		spec := simapi.JobSpec{
			Iterations: sz.MixIterations[itersDeck.deal()],
			Configs:    []string{kinds[kp[0]].String(), kinds[kp[1]].String()},
			MaxInsts:   1<<40 + uint64(round)<<20 + uint64(at),
		}
		if expDeck.deal() == 0 {
			spec.Experiment = "sweep"
			spec.Source = simclient.BenchmarkSource(names[nameDeck.deal()])
		} else {
			spec.Experiment = "scenario"
			spec.Source = simclient.ScenarioSource(workload.Scenario{
				Name:       fmt.Sprintf("mix-%d-%d", round, at),
				Pattern:    patterns[patternDeck.deal()],
				Iterations: spec.Iterations,
				Seed:       r.next() | 1,
			})
		}
		return spec
	}

	n := sz.MixOps
	ops := make([]mixOp, 0, n)
	coldLeft, hitLeft := (n+1)/2, n/2
	var colds []int
	for k := 0; k < n; k++ {
		if len(colds) > 0 && (coldLeft == 0 || r.intn(coldLeft+hitLeft) >= coldLeft) {
			hitLeft--
			of := colds[r.intn(len(colds))]
			ops = append(ops, mixOp{spec: ops[of].spec, of: of})
			continue
		}
		coldLeft--
		colds = append(colds, k)
		ops = append(ops, mixOp{spec: fresh(k), cold: true})
	}
	return ops
}

// deck deals indices below n. Each run of n deals is a fresh shuffle of all
// of them, so any stretch of deals covers the choices evenly.
type deck struct {
	r    *rng
	n    int
	left []int
}

func newDeck(r *rng, n int) *deck { return &deck{r: r, n: n} }

func (d *deck) deal() int {
	if len(d.left) == 0 {
		d.left = make([]int, d.n)
		for i := range d.left {
			d.left[i] = i
		}
		for i := d.n - 1; i > 0; i-- {
			j := d.r.intn(i + 1)
			d.left[i], d.left[j] = d.left[j], d.left[i]
		}
	}
	x := d.left[0]
	d.left = d.left[1:]
	return x
}

// serviceMix drives the service-mix workload: an in-process server with a
// state directory (fsynced write-ahead log and result cache) on loopback,
// and one client in a closed loop on one connection. Each round runs the
// client's schedule to completion against a freshly set-up server; every
// job is timed from submit to report fetched, in CPU time of the whole
// process (client and server) and in wall-clock time. One client keeps one
// job in flight, so a job's CPU time is its own, and the process never has
// more busy threads than a 2-vCPU host has CPUs.
//
// The server copies its whole result cache for every job it plans
// (ResultCache.Load), so a job costs more the more entries earlier jobs
// left. A server kept across rounds would make every figure hang on how
// many rounds a run fits in; a fresh one per round makes each round start
// from the same state and end with the same cache size.
func serviceMix(ctx context.Context, b *bench) error {
	tmp, err := os.MkdirTemp(filepath.Join(b.work, "tmp"), "service-mix-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	// Set-up: start a durable server on a fresh state directory and warm it
	// with one job and its resubmission. It is measured SetupRepeats times
	// (the median is reported) and then done again, untimed, before every
	// round.
	setUp := func(name string) (*service, error) {
		svc, err := startService(ctx, simserver.Config{
			Workers:     2,
			Parallelism: 1,
			StateDir:    filepath.Join(tmp, name),
		})
		if err != nil {
			return nil, err
		}
		if err := warmUp(ctx, svc); err != nil {
			svc.stop()
			return nil, err
		}
		return svc, nil
	}
	// tearDown stops a round's server and removes its state directory.
	tearDown := func(svc *service, name string) error {
		err := svc.stop()
		if rerr := os.RemoveAll(filepath.Join(tmp, name)); err == nil {
			err = rerr
		}
		return err
	}
	for i := 0; i < b.size.SetupRepeats; i++ {
		name := fmt.Sprintf("setup-%d", i)
		c0 := cpuSeconds()
		svc, err := setUp(name)
		if err != nil {
			return err
		}
		b.setupDone(c0)
		if err := tearDown(svc, name); err != nil {
			return err
		}
	}

	var st serverTrace
	var tracedJobs []jobRun
	var per []layerTimes
	var wallUntraced, wallTraced []float64
	err = b.passes(func(round int) (err error) {
		name := fmt.Sprintf("round-%d", round)
		svc, err := setUp(name)
		if err != nil {
			return err
		}
		c := newClient(svc.base, "client")
		defer func() {
			c.hc.CloseIdleConnections()
			if terr := tearDown(svc, name); err == nil {
				err = terr
			}
		}()

		traced := b.traced && round%2 == 1
		var before serverReading
		if traced {
			if before, err = readServer(ctx, c); err != nil {
				return err
			}
		}
		ops := mixRound(b.seed, round, b.size)
		runs := make([]jobRun, len(ops))
		t, c0 := time.Now(), cpuSeconds()
		for k, op := range ops {
			if runs[k], err = runJob(ctx, c, op.spec); err != nil {
				return err
			}
		}
		wall, cpu := time.Since(t).Seconds(), cpuSeconds()-c0
		var inst uint64
		for k, op := range ops {
			jr := runs[k]
			b.attempted++
			if !traced {
				b.recordJob(op.cold, jr.cpuMs, jr.latencyMs)
			}
			b.checkMixJob(op, jr, runs)
			inst += committed(jr.entries)
		}
		if !traced {
			wallUntraced = append(wallUntraced, wall)
			b.recordPass(wall, cpu, inst)
			return nil
		}

		wallTraced = append(wallTraced, wall)
		after, err := readSettled(ctx, c)
		if err != nil {
			return err
		}
		st.add(before, after)
		var lt layerTimes
		for k, op := range ops {
			tracedJobs = append(tracedJobs, runs[k])
			if !op.cold {
				continue
			}
			if err := b.traceMixJob(ctx, &lt, op.spec, runs[k]); err != nil {
				return err
			}
		}
		per = append(per, lt)
		return nil
	})
	if err != nil {
		return err
	}
	if b.traced {
		b.pipelineLayers(medianLayers(per))
		b.serverLayers(&st)
		b.clientLayers(tracedJobs, len(st.passes))
		b.layers["tracing.overhead_ratio"] = median(wallTraced)/median(wallUntraced) - 1
	}
	return nil
}

// warmUp runs one job over all five configurations and its resubmission,
// so the server's lazy start-up work (first connections, first log and
// cache appends) is done before the timed rounds.
func warmUp(ctx context.Context, svc *service) error {
	c := newClient(svc.base, "setup")
	defer c.hc.CloseIdleConnections()
	spec := simapi.JobSpec{
		Experiment: "sweep",
		Source:     simclient.BenchmarkSource("gzip"),
		Iterations: 100,
	}
	for i := 0; i < 2; i++ {
		jr, err := runJob(ctx, c, spec)
		if err != nil {
			return err
		}
		if jr.info.State != simapi.StateDone {
			return fmt.Errorf("warm-up job %s ended %s: %s", jr.info.ID, jr.info.State, jr.info.Error)
		}
	}
	return nil
}

// checkMixJob checks one finished job: it is done, a fresh spec simulated
// every pair and a resubmission served every pair from the cache, and a
// resubmission's report is byte-identical to its cold job's.
func (b *bench) checkMixJob(op mixOp, jr jobRun, client []jobRun) {
	in := jr.info
	switch {
	case in.State != simapi.StateDone:
		b.fail(1, "%s ended %s: %s", in.ID, in.State, in.Error)
	case in.TotalPairs != mixPairs:
		b.fail(1, "%s has %d pairs, want %d", in.ID, in.TotalPairs, mixPairs)
	case op.cold && (in.CachedPairs != 0 || in.ExecutedPairs != mixPairs):
		b.fail(1, "fresh %s: %d cached, %d executed pairs", in.ID, in.CachedPairs, in.ExecutedPairs)
	case !op.cold && in.CachedPairs != mixPairs:
		b.fail(1, "resubmitted %s: %d of %d pairs from the cache", in.ID, in.CachedPairs, mixPairs)
	case !op.cold && !bytes.Equal(jr.report, client[op.of].report):
		b.fail(1, "resubmitted %s: report differs from its cold job %s", in.ID, client[op.of].info.ID)
	}
}

// traceMixJob runs a cold job's spec traced in-process (see traceRun) and
// checks it against the server's report.
func (b *bench) traceMixJob(ctx context.Context, lt *layerTimes, spec simapi.JobSpec, jr jobRun) error {
	h, err := experiments.Lookup(spec.Experiment)
	if err != nil {
		return err
	}
	opts := spec.Options()
	opts.Parallelism = 1
	_, err = b.traceRun(ctx, lt, jr.info.ID, h, opts, jr.report, generated(opts))
	return err
}
