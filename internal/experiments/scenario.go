package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"repro/internal/emu"
	"repro/internal/workload"
)

// The scenario experiment runs declarative workload scenarios — an inline
// spec (Options.Scenario) or the built-in stress suite
// (workload.StressScenarios) — against the paper's machine configurations.
// It reports the same raw per-run measurements as the free-form sweep, one
// row per (scenario, configuration, window) cell.
//
// Result identity: the experiment scope embeds a hash over the canonical
// content of every scenario in the run, so the sweep engine's pair keys (and
// the simulation server's content-addressed cache keys derived from them)
// distinguish scenarios by what they *are*, not what they are called. Two
// specs sharing a name but differing in any knob can never serve each
// other's cached measurements; re-running an identical spec resumes from
// cache as usual.

func init() {
	Register(funcExperiment{
		name: "scenario",
		desc: "declarative workload scenarios (inline spec or the built-in stress suite) against the paper configurations",
		run: func(ctx context.Context, opts Options) (*Report, error) {
			scns, err := scenarioSet(opts)
			if err != nil {
				return nil, err
			}
			g, err := scenarioGrid("scenario", scns, opts.Iterations)
			if err != nil {
				return nil, err
			}
			rep, _, _, err := runGrid(ctx, opts, g)
			if err != nil {
				return nil, err
			}
			rep.AddMeta("scenarios", strings.Join(g.workloads, ","))
			rep.AddMeta("scenario-scope", g.scope)
			if len(opts.Windows) > 0 {
				rep.AddMeta("windows", joinInts(opts.Windows))
			}
			return rep, nil
		},
	})
}

// scenarioSet resolves the scenarios of a run: the inline spec when present,
// otherwise the built-in stress suite (optionally filtered to the names in
// opts.Benchmarks).
func scenarioSet(opts Options) ([]workload.Scenario, error) {
	if opts.Scenario != nil {
		s := *opts.Scenario
		if err := s.Validate(); err != nil {
			return nil, err
		}
		return []workload.Scenario{s}, nil
	}
	all := workload.StressScenarios()
	if len(opts.Benchmarks) == 0 {
		return all, nil
	}
	var out []workload.Scenario
	for _, name := range opts.Benchmarks {
		s, ok := workload.StressScenarioByName(name)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown stress scenario %q (known: %s)",
				name, strings.Join(workload.StressScenarioNames(), ", "))
		}
		out = append(out, s)
	}
	return out, nil
}

// scenarioScope derives the experiment scope from the run's scenario
// contents: "scenario:" plus a hash over every canonicalized spec. Any knob
// change in any scenario changes the scope, which changes every pair key.
func scenarioScope(scns []workload.Scenario) string {
	h := sha256.New()
	for _, s := range scns {
		h.Write(s.Canonical())
		h.Write([]byte{0})
	}
	return "scenario:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// scenarioGrid is the grid of a scenario run (the scenario and corpus
// experiments): one row block per scenario, with its generation pattern as
// the second column, and each scenario's trace generated from its spec.
func scenarioGrid(experiment string, scns []workload.Scenario, iterations int) (gridSpec, error) {
	g := gridSpec{
		experiment: experiment,
		scope:      scenarioScope(scns),
		title:      "Scenario: raw measurements per (scenario, configuration, window)",
		nameCol:    "scenario",
		extraCol:   "pattern",
	}
	byName := make(map[string]workload.Scenario, len(scns))
	for _, s := range scns {
		if _, dup := byName[s.Name]; dup {
			return gridSpec{}, fmt.Errorf("experiments: duplicate scenario name %q", s.Name)
		}
		byName[s.Name] = s
		g.workloads = append(g.workloads, s.Name)
		pattern := s.Pattern
		if pattern == "" {
			pattern = workload.PatternProfile
		}
		g.rows = append(g.rows, gridRow{name: s.Name, suite: workload.Custom, extra: pattern})
	}
	g.traces = func(name string) (func() (*emu.Trace, error), error) {
		s, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("experiments: no scenario named %q", name)
		}
		return recorded(workload.GenerateScenario(s, workload.Options{Iterations: iterations}))
	}
	return g, nil
}
