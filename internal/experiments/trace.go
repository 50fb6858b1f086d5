package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"repro/internal/emu"
	"repro/internal/traceio"
	"repro/internal/workload"
)

// The trace experiment replays recorded program traces — *.nsqt files with
// their provenance manifests under Options.TraceDir, as written by
// cmd/nosq-trace — against the paper's machine configurations, through
// exactly the sweep engine the synthetic experiments use: same
// config-parallel batching, same checkpoint/resume, same per-(trace,
// configuration, window) rows. It is the frontend for programs that were
// *executed once* somewhere and measured many times here, instead of being
// regenerated from a workload profile on every node.
//
// Result identity: the experiment scope embeds a hash over every trace
// file's content hash, so the sweep engine's pair keys (and the simulation
// server's content-addressed cache keys derived from them) distinguish
// traces by what they contain, not what they are named. Each trace's ref
// name — slug plus sixteen hash digits — is its benchmark name in rows,
// job specs and logs, so a one-byte change to a trace changes both the
// scope and the name.

// DefaultTraceDir is where the committed trace corpus lives, relative to
// the repository root.
const DefaultTraceDir = "bench/traces"

func init() {
	Register(funcExperiment{
		name: "trace",
		desc: "recorded program traces (bench/traces, or -trace-dir) replayed against the paper configurations",
		run: func(ctx context.Context, opts Options) (*Report, error) {
			dir := opts.TraceDir
			if dir == "" {
				dir = DefaultTraceDir
			}
			entries, err := traceio.LoadDir(dir)
			if err != nil {
				return nil, err
			}
			// Names are entry ref names — the content-addressed identity a
			// job spec carries — so a spec recorded against one trace
			// revision fails loudly against another instead of silently
			// replaying different bytes under the same human name.
			entries, err = selectNamed(entries, opts.Benchmarks, traceio.Entry.RefName, "trace")
			if err != nil {
				return nil, err
			}
			g := traceGrid(entries)
			rep, _, _, err := runGrid(ctx, opts, g)
			if err != nil {
				return nil, err
			}
			rep.AddMeta("trace-dir", dir)
			rep.AddMeta("traces", strings.Join(g.workloads, ","))
			rep.AddMeta("trace-scope", g.scope)
			if len(opts.Windows) > 0 {
				rep.AddMeta("windows", joinInts(opts.Windows))
			}
			return rep, nil
		},
	})
}

// traceScope derives the experiment scope from the run's trace contents:
// "trace:" plus a hash over every entry's content hash. Any byte change in
// any trace changes the scope, which changes every pair key — exactly the
// scenario experiment's content-identity rule, with the file hash standing
// in for the canonical spec.
func traceScope(entries []traceio.Entry) string {
	h := sha256.New()
	for _, e := range entries {
		h.Write([]byte(e.TraceHash))
		h.Write([]byte{0})
	}
	return "trace:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// traceGrid is the grid of a trace run: one row block per trace, named by
// its ref name, and each trace decoded from its recorded file.
func traceGrid(entries []traceio.Entry) gridSpec {
	g := gridSpec{
		experiment: "trace",
		scope:      traceScope(entries),
		title:      "Trace: raw measurements per (trace, configuration, window)",
		nameCol:    "trace",
	}
	paths := make(map[string]string, len(entries))
	for _, e := range entries {
		paths[e.RefName()] = e.Path
		g.workloads = append(g.workloads, e.RefName())
		g.rows = append(g.rows, gridRow{name: e.RefName(), suite: workload.Custom})
	}
	g.traces = func(name string) (func() (*emu.Trace, error), error) {
		path, ok := paths[name]
		if !ok {
			return nil, fmt.Errorf("experiments: no trace named %q", name)
		}
		return func() (*emu.Trace, error) {
			t, _, err := traceio.ReadFile(path)
			return t, err
		}, nil
	}
	return g
}
