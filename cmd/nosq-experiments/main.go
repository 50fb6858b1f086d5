// Command nosq-experiments runs the registered experiments: the paper's
// evaluation (Table 5 and Figures 2-5) plus the free-form sweep. Results
// render as paper-style text (default), Markdown, JSON, or CSV, and long
// sweeps can be sharded across processes and resumed from a JSONL
// checkpoint, which only a build of the same code revision resumes.
//
// Examples:
//
//	nosq-experiments -list
//	nosq-experiments -exp table5
//	nosq-experiments -exp fig2 -iters 400 -format markdown -out fig2.md
//	nosq-experiments -exp all -benchmarks gzip,mesa.o,applu -iters 100
//	nosq-experiments -exp sweep -configs nosq-delay,assoc-sq-storesets \
//	    -windows 128,256 -format csv -out sweep.csv
//	nosq-experiments -exp sweep -shards 4 -shard-index 2 -checkpoint s2.jsonl
//	nosq-experiments -exp scenario              # built-in stress suite
//	nosq-experiments -scenario myspec.json      # custom scenario spec file
//	nosq-experiments -exp trace                 # recorded traces (bench/traces)
//	nosq-experiments -trace-dir my/traces       # recorded traces elsewhere
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/workload"
)

// derivedPath inserts an experiment name before a path's extension:
// out.json → out.table5.json.
func derivedPath(path, name string) string {
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "." + name + ext
}

func main() {
	var (
		exp        = flag.String("exp", "all", `experiment name (see -list), or "all"`)
		list       = flag.Bool("list", false, "list registered experiments, then exit")
		format     = flag.String("format", stats.FormatText, "output format: "+strings.Join(stats.Formats(), ", "))
		out        = flag.String("out", "", "write output to this file (default: stdout); several selected experiments get derived files (out.json -> out.<exp>.json)")
		iters      = flag.Int("iters", 0, "workload iterations per benchmark (0 = default)")
		benches    = flag.String("benchmarks", "", "comma-separated benchmark subset (default: experiment's own set)")
		parallel   = flag.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS)")
		configs    = flag.String("configs", "", "sweep only: comma-separated configuration kinds (default: all)")
		windows    = flag.String("windows", "", "sweep only: comma-separated window sizes (default: 128)")
		timeout    = flag.Duration("timeout", 0, "abort the run after this long; finished pairs stay checkpointed (0 = no deadline)")
		shards     = flag.Int("shards", 0, "split the job list across N processes (0 or 1 = no sharding)")
		shardIndex = flag.Int("shard-index", 0, "this process's 0-based shard (with -shards)")
		checkpoint = flag.String("checkpoint", "", "JSONL checkpoint file: finished pairs are recorded and never re-run by a build of the same code revision; entries are scoped per experiment, so one file may be shared")
		scenario   = flag.String("scenario", "", "workload scenario spec file (JSON) to run through the scenario experiment")
		corpusDir  = flag.String("corpus-dir", "", "corpus experiment only: directory of committed scenario entries (default: bench/corpus)")
		traceDir   = flag.String("trace-dir", "", "trace experiment only: directory of recorded trace entries (default: bench/traces)")
		version    = flag.Bool("version", false, "print version information and exit")
	)
	flag.Parse()

	if *version {
		obs.PrintVersion(os.Stdout, "nosq-experiments")
		return
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-10s %s\n", e.Name(), e.Description())
		}
		return
	}

	// Reject bad flag values before running anything — experiments can take
	// minutes, and their output would be lost.
	if err := stats.ValidateFormat(*format); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *parallel < 0 {
		fmt.Fprintf(os.Stderr, "-parallel must be non-negative (0 = GOMAXPROCS), got %d\n", *parallel)
		os.Exit(2)
	}
	if err := experiments.ValidateShards(*shards, *shardIndex); err != nil {
		fmt.Fprintf(os.Stderr, "bad -shards/-shard-index: %v\n", err)
		os.Exit(2)
	}

	opts := experiments.Options{
		Iterations:  *iters,
		Parallelism: *parallel,
		Shards:      *shards,
		ShardIndex:  *shardIndex,
		CorpusDir:   *corpusDir,
		TraceDir:    *traceDir,
	}
	if *corpusDir != "" {
		// A corpus directory implies the corpus experiment, mirroring how
		// -scenario implies the scenario experiment.
		if *exp == "all" {
			*exp = "corpus"
		} else if *exp != "corpus" {
			fmt.Fprintf(os.Stderr, "-corpus-dir only applies to the corpus experiment; drop -exp %s or use -exp corpus\n", *exp)
			os.Exit(2)
		}
	}
	if *traceDir != "" {
		// A trace directory implies the trace experiment, the same way.
		if *exp == "all" {
			*exp = "trace"
		} else if *exp != "trace" {
			fmt.Fprintf(os.Stderr, "-trace-dir only applies to the trace experiment; drop -exp %s or use -exp trace\n", *exp)
			os.Exit(2)
		}
	}
	if *scenario != "" {
		// A spec file implies the scenario experiment: -exp all narrows to it,
		// and any other explicit selection is a contradiction worth flagging.
		s, err := workload.LoadScenarioFile(*scenario)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		opts.Scenario = &s
		if *exp == "all" {
			*exp = "scenario"
		} else if *exp != "scenario" {
			fmt.Fprintf(os.Stderr, "-scenario only applies to the scenario experiment; drop -exp %s or use -exp scenario\n", *exp)
			os.Exit(2)
		}
	}
	if *benches != "" {
		for _, b := range strings.Split(*benches, ",") {
			opts.Benchmarks = append(opts.Benchmarks, strings.TrimSpace(b))
		}
	}
	if *configs != "" {
		opts.Configs = strings.Split(*configs, ",")
	}
	if *windows != "" {
		for _, w := range strings.Split(*windows, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(w))
			if err != nil {
				fmt.Fprintf(os.Stderr, "bad -windows value %q: %v\n", w, err)
				os.Exit(2)
			}
			opts.Windows = append(opts.Windows, n)
		}
	}

	var selected []experiments.Experiment
	if *exp == "all" {
		// "all" means every self-contained experiment: the corpus and trace
		// replays depend on committed directories on disk, so they only run
		// when named explicitly (-exp corpus/-corpus-dir, -exp trace/-trace-dir).
		for _, e := range experiments.All() {
			if e.Name() != "corpus" && e.Name() != "trace" {
				selected = append(selected, e)
			}
		}
	} else {
		for _, name := range strings.Split(*exp, ",") {
			e, err := experiments.Lookup(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	// Concatenated JSON documents or CSVs with differing headers are
	// unreadable to any parser, so machine formats with several experiments
	// selected require -out (which derives one file per experiment).
	machineFormat := *format == stats.FormatJSON || *format == stats.FormatCSV
	if len(selected) > 1 && machineFormat && *out == "" {
		fmt.Fprintf(os.Stderr, "-format %s with several experiments needs -out (one derived file per experiment) or a single -exp\n", *format)
		os.Exit(2)
	}

	// The checkpoint opens before anything runs, so an unwritable path fails
	// before minutes of simulation whose results it was meant to keep. exit
	// closes it (fsyncing the last records) on every path out.
	var store *experiments.ResultFile
	if *checkpoint != "" {
		s, corrupt, err := experiments.OpenResultFile(*checkpoint, obs.CodeRevision())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if corrupt > 0 {
			fmt.Fprintf(os.Stderr, "warning: checkpoint %s: skipped %d corrupt line(s); the affected pairs will re-run\n",
				*checkpoint, corrupt)
		}
		store = s
		opts.Store = store
	}
	exit := func(code int) {
		if store != nil {
			if err := store.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "checkpoint %s: %v\n", *checkpoint, err)
				if code == 0 {
					code = 1
				}
			}
		}
		os.Exit(code)
	}

	// SIGINT/SIGTERM and -timeout cancel in-flight experiments; finished
	// pairs stay in the checkpoint file, so re-running the same command
	// resumes.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	for i, e := range selected {
		start := time.Now()
		rep, err := e.Run(ctx, opts)
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				fmt.Fprintf(os.Stderr, "%s: deadline exceeded: the run did not finish within -timeout %v", e.Name(), *timeout)
				if *checkpoint != "" {
					fmt.Fprintf(os.Stderr, "; finished pairs are in %s — re-run the same command to resume", *checkpoint)
				}
				fmt.Fprintln(os.Stderr)
				exit(1)
			}
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.Name(), err)
			exit(1)
		}
		text, err := rep.Render(*format)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(2)
		}
		timing := fmt.Sprintf("(%s completed in %v)\n", e.Name(), time.Since(start).Round(time.Millisecond))

		if *out != "" {
			// The file gets only the report (deterministic, diffable); the
			// timing line is console progress info.
			path := *out
			if len(selected) > 1 {
				path = derivedPath(path, e.Name())
			}
			if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				exit(1)
			}
			fmt.Fprint(os.Stderr, timing)
			continue
		}
		if *format == stats.FormatText {
			text += timing
		}
		// Renderings end in \n already; add a blank separator only between
		// the human-readable documents of a multi-experiment run.
		if i > 0 && !machineFormat {
			fmt.Println()
		}
		fmt.Print(text)
	}
	exit(0)
}
