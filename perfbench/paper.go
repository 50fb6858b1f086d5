package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/stats"
)

// paperExperimentNames are the six experiments of the paper-figures
// workload, in the paper's order.
var paperExperimentNames = []string{"table5", "fig2", "fig3", "fig4", "fig5cap", "fig5hist"}

// paperFigures drives the paper-figures workload. A pass runs the six
// experiments cold through experiments.Lookup(..).Run on the default
// batched engine at parallelism 1, as `nosq-experiments -exp <name>` does;
// each run is one cold job. Every run records its results in memory, as a
// run with -checkpoint does. After the pass, outside its timed region, the
// six experiments are re-run from those results PaperHitRuns times, as a
// re-run of all six with the same -checkpoint files does; each such re-run
// of all six is one hit job. The seed plays no part: the paper's inputs
// are fixed.
func paperFigures(ctx context.Context, b *bench) error {
	// Set-up: look the experiments up and warm each with one short run;
	// repeated, the median is reported.
	handles := make([]experiments.Experiment, len(paperExperimentNames))
	for r := 0; r < b.size.SetupRepeats; r++ {
		c0 := cpuSeconds()
		for i, name := range paperExperimentNames {
			h, err := experiments.Lookup(name)
			if err != nil {
				return err
			}
			if _, err := h.Run(ctx, experiments.Options{Iterations: b.size.PaperSetupIterations, Parallelism: 1}); err != nil {
				return fmt.Errorf("%s warm-up: %w", name, err)
			}
			handles[i] = h
		}
		b.setupDone(c0)
	}
	opts := experiments.Options{Iterations: b.size.PaperIterations, Parallelism: 1}

	// ref holds each experiment's report from the first pass; every later
	// run of the experiment must reproduce it byte for byte.
	ref := make([][]byte, len(handles))
	check := func(i int, what string, csv []byte, pairs int) {
		b.attempted += pairs
		if ref[i] == nil {
			ref[i] = csv
		} else if !bytes.Equal(csv, ref[i]) {
			b.fail(pairs, "%s %s: report differs from the first pass's", paperExperimentNames[i], what)
		}
	}
	// coldRun runs experiment i cold and returns the store its results went to.
	coldRun := func(i int) (*memStore, error) {
		store := &memStore{}
		o := opts
		o.Store = store
		rep, err := handles[i].Run(ctx, o)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", paperExperimentNames[i], err)
		}
		csv, err := renderCSV(rep)
		if err != nil {
			return nil, err
		}
		check(i, "run", csv, rep.Summary.Total)
		return store, nil
	}
	// hitRun runs experiment i from the results of its cold run, which must
	// resume every pair.
	hitRun := func(i int, store *memStore) error {
		o := opts
		o.Store = store
		rep, err := handles[i].Run(ctx, o)
		if err != nil {
			return fmt.Errorf("%s resumed: %w", paperExperimentNames[i], err)
		}
		csv, err := renderCSV(rep)
		if err != nil {
			return err
		}
		check(i, "resumed run", csv, rep.Summary.Total)
		if rep.Summary.Resumed != rep.Summary.Total {
			b.fail(rep.Summary.Total, "%s: resumed %d of %d pairs", paperExperimentNames[i],
				rep.Summary.Resumed, rep.Summary.Total)
		}
		return nil
	}

	if !b.traced {
		return b.passes(func(int) error {
			stores := make([]*memStore, len(handles))
			var inst uint64
			t, c0 := time.Now(), cpuSeconds()
			for i := range handles {
				t1, c1 := time.Now(), cpuSeconds()
				store, err := coldRun(i)
				if err != nil {
					return err
				}
				b.recordJob(true, (cpuSeconds()-c1)*1e3, time.Since(t1).Seconds()*1e3)
				stores[i] = store
				inst += committed(store.entries)
			}
			b.recordPass(time.Since(t).Seconds(), cpuSeconds()-c0, inst)
			// The re-runs start without the cold runs' garbage.
			runtime.GC()
			for r := 0; r < b.size.PaperHitRuns; r++ {
				t1, c1 := time.Now(), cpuSeconds()
				for i, store := range stores {
					if err := hitRun(i, store); err != nil {
						return err
					}
				}
				b.recordJob(false, (cpuSeconds()-c1)*1e3, time.Since(t1).Seconds()*1e3)
			}
			return nil
		})
	}

	// Traced run: every pass runs each experiment untraced, then traced
	// (see traceRun) against the first pass's report.
	var per []layerTimes
	var runWall, tracedWall []float64
	err := b.passes(func(int) error {
		var lt layerTimes
		var run, traced float64
		for i, name := range paperExperimentNames {
			t := time.Now()
			if _, err := coldRun(i); err != nil {
				return err
			}
			d := time.Since(t).Seconds()
			b.coldWall = append(b.coldWall, d*1e3)
			run += d
			wall, err := b.traceRun(ctx, &lt, name, handles[i], opts, ref[i], generated(opts))
			if err != nil {
				return err
			}
			traced += wall
		}
		per = append(per, lt)
		runWall = append(runWall, run)
		b.wall = append(b.wall, run)
		tracedWall = append(tracedWall, traced)
		return nil
	})
	if err != nil {
		return err
	}
	lt := medianLayers(per)
	b.pipelineLayers(lt)
	run := median(runWall)
	b.layers["experiments.run_s"] = run
	b.layers["experiments.unattributed_s"] = lt.unattributed
	b.layers["tracing.overhead_ratio"] = median(tracedWall)/run - 1
	return nil
}

func renderCSV(rep *experiments.Report) ([]byte, error) {
	s, err := rep.Render(stats.FormatCSV)
	return []byte(s), err
}
