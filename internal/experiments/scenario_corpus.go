package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/corpus"
)

// The corpus experiment replays the committed pathological-scenario corpus
// (bench/corpus — scenarios discovered by cmd/nosq-tune) as regression
// workloads, through exactly the scenario experiment's machinery: same sweep
// engine, same per-(scenario, configuration, window) rows, same scope
// derivation from canonical scenario content. It exists so the corpus runs as
// a named registry entry in CI (nightly, through the fleet) rather than as a
// loose shell loop over spec files.
//
// The corpus is read from Options.CorpusDir (default "bench/corpus", relative
// to the process working directory). In a distributed run the leased JobSpec
// carries no file contents, so every fleet worker loads the directory from
// its *own* checkout — byte-identical replay across CLI, server, and fleet
// therefore requires the nodes to share the same corpus revision, which CI
// guarantees by running all three from one checkout.

// DefaultCorpusDir is where the committed corpus lives, relative to the
// repository root.
const DefaultCorpusDir = "bench/corpus"

func init() {
	Register(funcExperiment{
		name: "corpus",
		desc: "committed pathological-scenario corpus (bench/corpus) replayed as regression workloads",
		run: func(ctx context.Context, opts Options) (*Report, error) {
			dir := opts.CorpusDir
			if dir == "" {
				dir = DefaultCorpusDir
			}
			entries, err := corpus.LoadDir(dir)
			if err != nil {
				return nil, err
			}
			entries, err = selectNamed(entries, opts.Benchmarks, func(e corpus.Entry) string { return e.Name }, "corpus entry")
			if err != nil {
				return nil, err
			}
			g, err := scenarioGrid("corpus", corpus.Scenarios(entries), opts.Iterations)
			if err != nil {
				return nil, err
			}
			rep, _, _, err := runGrid(ctx, opts, g)
			if err != nil {
				return nil, err
			}
			names := make([]string, len(entries))
			for i, e := range entries {
				names[i] = e.Name
			}
			rep.AddMeta("corpus-dir", dir)
			rep.AddMeta("scenarios", strings.Join(names, ","))
			rep.AddMeta("scenario-scope", g.scope)
			return rep, nil
		},
	})
}

// selectNamed restricts entries to the named ones, in the order named
// (nil = all). what names the kind of entry in the error for an unknown
// name.
func selectNamed[E any](entries []E, names []string, nameOf func(E) string, what string) ([]E, error) {
	if len(names) == 0 {
		return entries, nil
	}
	byName := make(map[string]E, len(entries))
	known := make([]string, len(entries))
	for i, e := range entries {
		known[i] = nameOf(e)
		byName[known[i]] = e
	}
	out := make([]E, 0, len(names))
	for _, n := range names {
		e, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("experiments: no %s named %q (known: %s)", what, n, strings.Join(known, ", "))
		}
		out = append(out, e)
	}
	return out, nil
}
