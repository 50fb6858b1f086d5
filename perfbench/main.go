// Command perfbench is the repository's end-to-end benchmark. One run
// measures one workload for a fixed time and prints, as the last line of
// standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"cpu_s": {"value": 2.41, "unit": "s"}, ...}}
//
// Workloads (see README.md for why each exists and which layers it loads):
//
//	paper-figures  table5, fig2, fig3, fig4, fig5cap, fig5hist in-process
//	service-mix    an in-process durable nosq server driven by two clients
//	fleet-replay   a coordinator plus two in-process workers replaying traces
//
// With -trace 0 the run reports the end-to-end metrics from untraced passes.
// Its times are CPU times of the whole process: on a shared host the
// hypervisor takes the CPU away from the benchmark for minutes at a time,
// which stretches wall-clock times but not CPU times. The wall-clock
// figures and the share of CPU time taken away are reported, unbounded, by
// the traced run as the host.* metrics.
// With -trace 1 it reports the per-layer metrics: it runs the experiments
// in-process with the engine's own per-pair timing, times the layer calls
// that timing does not split out, reads the server's histograms and job
// spans, and writes a CPU profile of the process under <work>/artifacts.
//
// The program is normally started through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload service-mix --seed 3 --seconds 24 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the metrics an untraced run reports, with their units.
var endToEnd = []struct{ name, unit string }{
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"success_ratio", "ratio"},
	{"sim_minst_per_cpu_s", "Minst/s"},
	{"cold_job_cpu_p50_ms", "ms"},
	{"cold_job_cpu_p90_ms", "ms"},
	{"hit_job_cpu_p50_ms", "ms"},
	{"hit_job_cpu_p90_ms", "ms"},
}

// perLayer lists the metrics a traced run reports, with their units. A layer
// a workload does not reach reports 0.
var perLayer = []struct{ name, unit string }{
	{"workload.generate_s", "s"},
	{"emu.record_s", "s"},
	{"emu.record_minst_per_s", "Minst/s"},
	{"traceio.decode_s", "s"},
	{"traceio.decode_mb_per_s", "MB/s"},
	{"traceio.encode_s", "s"},
	{"traceio.bytes", "bytes"},
	{"pipeline.meta_s", "s"},
	{"pipeline.simulate_s", "s"},
	{"pipeline.minst_per_s", "Minst/s"},
	{"pipeline.ns_per_cycle", "ns"},
	{"pipeline.allocs_per_kinst", "count"},
	{"pipeline.pairs", "count"},
	{"pipeline.committed", "count"},
	{"pipeline.sim_cycles", "count"},
	{"experiments.run_s", "s"},
	{"experiments.render_s", "s"},
	{"experiments.unattributed_s", "s"},
	{"simclient.submit_ms", "ms"},
	{"simclient.wait_ms", "ms"},
	{"simclient.report_ms", "ms"},
	{"simclient.finished_dedups", "count"},
	{"simserver.http_ms.submit", "ms"},
	{"simserver.http_ms.job", "ms"},
	{"simserver.http_ms.events", "ms"},
	{"simserver.http_ms.report", "ms"},
	{"simserver.http_ms.worker_lease", "ms"},
	{"simserver.http_ms.worker_progress", "ms"},
	{"simserver.http_ms.worker_complete", "ms"},
	{"simserver.cache_lookup_ms", "ms"},
	{"simserver.queue_wait_ms", "ms"},
	{"simserver.pair_sim_ms", "ms"},
	{"simstore.wal_append_ms", "ms"},
	{"simstore.wal_appends", "count"},
	{"simserver.cache_hits", "count"},
	{"simserver.cache_misses", "count"},
	{"simserver.cache_hit_ratio", "ratio"},
	{"simserver.lease_renewal_ms", "ms"},
	{"simserver.span.shard_max_ms", "ms"},
	{"simserver.span.merge_ms", "ms"},
	{"simserver.tasks_completed", "count"},
	{"simserver.tasks_requeued", "count"},
	{"simserver.remote_pairs", "count"},
	{"tracing.overhead_ratio", "ratio"},
	{"host.wall_s", "s"},
	{"host.cold_job_p50_ms", "ms"},
	{"host.hit_job_p50_ms", "ms"},
	{"host.steal_ratio", "ratio"},
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(context.Context, *bench) error{
	"paper-figures": paperFigures,
	"service-mix":   serviceMix,
	"fleet-replay":  fleetReplay,
}

// sizes fixes how much work one pass of each workload does. The defaults
// size a pass at one to four seconds on a 2-vCPU host; the smoke test
// shrinks them.
type sizes struct {
	// PaperIterations is the workload length of every paper benchmark;
	// PaperSetupIterations is the shorter length set-up warms up with.
	PaperIterations      int
	PaperSetupIterations int
	// PaperHitRuns is how often a paper-figures pass re-runs the six
	// experiments from their results, each time one hit job. Such a re-run
	// takes milliseconds, so a pass can afford enough of them for p90 to
	// rest on ten or more samples per run.
	PaperHitRuns int
	// MixOps is the number of jobs the service-mix client runs per round,
	// half of them fresh specs and half resubmissions.
	MixOps int
	// MixIterations are the workload lengths a fresh service-mix spec draws from.
	MixIterations []int
	// FleetTraces is the number of traces the fleet replays per pass, split
	// evenly over FleetJobs jobs; FleetIterations and FleetTraceInsts are
	// their program length and recorded length.
	FleetTraces     int
	FleetJobs       int
	FleetIterations int
	FleetTraceInsts uint64
	// FleetConfigs are the configurations each fleet job replays every trace under.
	FleetConfigs []string
	// MinPasses is the fewest passes (or rounds) a run measures.
	MinPasses int
	// SetupRepeats is how often a workload repeats its set-up; the median
	// is reported.
	SetupRepeats int
}

var defaultSizes = sizes{
	PaperIterations:      50,
	PaperSetupIterations: 5,
	PaperHitRuns:         20,
	MixOps:               160,
	MixIterations:        []int{60, 80, 100},
	FleetTraces:          16,
	FleetJobs:            8,
	FleetIterations:      800,
	FleetTraceInsts:      50000,
	FleetConfigs:         []string{"assoc-sq-storesets", "nosq-nodelay", "nosq-delay", "perfect-smb"},
	MinPasses:            3,
	SetupRepeats:         7,
}

// bench is the state of one run: its settings, the samples the timed region
// collects, and the operation accounting behind success_ratio.
type bench struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	work     string // scratch directory for state, traces and artifacts
	size     sizes

	attempted int
	failed    int
	failures  []string

	setup    []float64 // CPU seconds per set-up repetition
	wall     []float64 // seconds per untraced pass
	cpu      []float64 // CPU seconds per untraced pass
	simRate  []float64 // simulated Minst per CPU second of each untraced pass
	rss      []float64 // peak resident MiB of each pass
	cold     []float64 // CPU ms of each cold job
	hit      []float64 // CPU ms of each cache-hit job
	coldWall []float64 // cold job latencies, ms
	hitWall  []float64 // cache-hit job latencies, ms
	steal    cpuTicks  // host CPU ticks over the passes

	layers map[string]float64 // per-layer values of a traced run
}

// fail records a failed output check covering n operations.
func (b *bench) fail(n int, format string, args ...interface{}) {
	b.failed += n
	msg := fmt.Sprintf(format, args...)
	if len(b.failures) < 20 {
		b.failures = append(b.failures, msg)
	}
	fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
}

// passes calls pass(i) until the run's measuring time is spent: a pass
// starts only while the time used plus the median pass so far still fits,
// and at least minPasses run. Each pass starts from a collected heap with
// its free pages returned to the system, so no pass inherits its
// predecessor's garbage, and the peak resident memory of each pass is
// recorded on its own (the peak is reset before the pass) rather than as
// the run's single high-water mark, which hangs on where one pass's
// collections happened to fall.
func (b *bench) passes(pass func(i int) error) error {
	start := time.Now()
	t0 := readCPUTicks()
	defer func() { b.steal = readCPUTicks().sub(t0) }()
	var durs []float64
	for i := 0; ; i++ {
		if i >= b.size.MinPasses && time.Since(start).Seconds()+median(durs) > b.seconds {
			return nil
		}
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return err
		}
		t, c := time.Now(), cpuSeconds()
		if err := pass(i); err != nil {
			return err
		}
		durs = append(durs, time.Since(t).Seconds())
		c = cpuSeconds() - c
		rss, err := peakRSSMB()
		if err != nil {
			return err
		}
		b.rss = append(b.rss, rss)
		fmt.Fprintf(os.Stderr, "perfbench: %s pass %d: %.3fs, %.3f CPU s, peak %.1f MiB\n", b.workload, i, durs[i], c, rss)
	}
}

// setupDone records one set-up repetition that started when the process
// had used cpu0 CPU seconds.
func (b *bench) setupDone(cpu0 float64) {
	d := cpuSeconds() - cpu0
	b.setup = append(b.setup, d)
	fmt.Fprintf(os.Stderr, "perfbench: %s set-up %d: %.3f CPU s\n", b.workload, len(b.setup)-1, d)
}

// recordPass records one untraced pass: its wall and CPU seconds and the
// simulated instructions its jobs committed.
func (b *bench) recordPass(wall, cpu float64, inst uint64) {
	b.wall = append(b.wall, wall)
	b.cpu = append(b.cpu, cpu)
	b.simRate = append(b.simRate, float64(inst)/1e6/cpu)
}

// recordJob records one job's CPU milliseconds and latency.
func (b *bench) recordJob(cold bool, cpuMs, latencyMs float64) {
	if cold {
		b.cold = append(b.cold, cpuMs)
		b.coldWall = append(b.coldWall, latencyMs)
	} else {
		b.hit = append(b.hit, cpuMs)
		b.hitWall = append(b.hitWall, latencyMs)
	}
}

// result assembles the run's JSON object.
func (b *bench) result() result {
	m := make(map[string]metric)
	if b.traced {
		b.layers["host.wall_s"] = median(b.wall)
		b.layers["host.cold_job_p50_ms"] = median(b.coldWall)
		b.layers["host.hit_job_p50_ms"] = median(b.hitWall)
		b.layers["host.steal_ratio"] = b.steal.stealRatio()
		for _, l := range perLayer {
			m[l.name] = metric{b.layers[l.name], l.unit}
		}
	} else {
		vals := map[string]float64{
			"cpu_s":               median(b.cpu),
			"setup_s":             median(b.setup),
			"peak_rss_mb":         median(b.rss),
			"success_ratio":       1 - float64(b.failed)/float64(max(b.attempted, 1)),
			"sim_minst_per_cpu_s": median(b.simRate),
			"cold_job_cpu_p50_ms": quantile(b.cold, 0.5),
			"cold_job_cpu_p90_ms": quantile(b.cold, 0.9),
			"hit_job_cpu_p50_ms":  quantile(b.hit, 0.5),
			"hit_job_cpu_p90_ms":  quantile(b.hit, 0.9),
		}
		for _, e := range endToEnd {
			m[e.name] = metric{vals[e.name], e.unit}
		}
	}
	return result{
		Correct:   b.failed == 0 && b.attempted > 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   m,
	}
}

// run executes one workload run end to end. In a traced run the CPU profile
// covers the whole run and lands in <work>/artifacts.
func (b *bench) run(ctx context.Context) (result, error) {
	drive, ok := workloads[b.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return result{}, fmt.Errorf("unknown workload %q (known: %v)", b.workload, names)
	}
	b.layers = make(map[string]float64)
	if b.traced {
		dir := filepath.Join(b.work, "artifacts")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return result{}, err
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.cpu.pprof", b.workload, b.seed))
		f, err := os.Create(path)
		if err != nil {
			return result{}, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return result{}, err
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: writing the CPU profile:", err)
				return
			}
			fmt.Fprintln(os.Stderr, "perfbench: CPU profile written to", path)
		}()
	}
	if err := drive(ctx, b); err != nil {
		return result{}, err
	}
	return b.result(), nil
}

// cpuSeconds returns the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// resetPeakRSS resets the process's peak resident set size to its current
// resident set size (Linux 4.0 and later).
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak resident set size: %w", err)
	}
	return nil
}

// peakRSSMB returns the process's peak resident set size in MiB since it
// was last reset.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kib / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// cpuTicks are the host's CPU time counters summed over its CPUs, from the
// first line of /proc/stat.
type cpuTicks struct{ total, steal uint64 }

// readCPUTicks reads /proc/stat; on a system without it the ticks are 0.
func readCPUTicks() cpuTicks {
	var t cpuTicks
	stat, err := os.ReadFile("/proc/stat")
	if err != nil {
		return t
	}
	line, _, _ := strings.Cut(string(stat), "\n")
	for i, f := range strings.Fields(line)[1:] {
		// user nice system idle iowait irq softirq steal; the guest times
		// that may follow are already counted in user and nice.
		if i > 7 {
			break
		}
		v, _ := strconv.ParseUint(f, 10, 64)
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

func (t cpuTicks) sub(o cpuTicks) cpuTicks { return cpuTicks{t.total - o.total, t.steal - o.steal} }

// stealRatio is the share of the host's CPU time the hypervisor gave to
// other guests (0 when unknown).
func (t cpuTicks) stealRatio() float64 {
	if t.total == 0 {
		return 0
	}
	return float64(t.steal) / float64(t.total)
}

// median returns the middle value of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// mean returns the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: paper-figures, service-mix or fleet-replay")
		seed     = flag.Uint64("seed", 1, "seed the workload's inputs are drawn from")
		seconds  = flag.Float64("seconds", 24, "measuring time of the run")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
		work     = flag.String("work", ".bench_build", "scratch directory for state, traces and profiles")
	)
	flag.Parse()
	if *workload == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	dir, err := filepath.Abs(*work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b := &bench{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		traced:   *trace == 1,
		work:     dir,
		size:     defaultSizes,
	}
	// A run that hangs (a job that never finishes) must still end.
	time.AfterFunc(time.Duration(*seconds+120)*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded its time limit")
		os.Exit(1)
	})
	res, err := b.run(context.Background())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
