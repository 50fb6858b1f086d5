package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/simapi"
	"repro/internal/simclient"
	"repro/internal/simserver"
)

// service is an in-process nosq server listening on loopback.
type service struct {
	srv  *simserver.Server
	hs   *http.Server
	base string
	done chan struct{}
}

// startService starts a server with cfg on a free loopback port and returns
// once it answers a health request.
func startService(ctx context.Context, cfg simserver.Config) (*service, error) {
	srv, _, err := simserver.New(cfg)
	if err != nil {
		return nil, err
	}
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(ctx)
		return nil, err
	}
	s := &service{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln)
	}()
	c := newClient(s.base, "setup")
	defer c.hc.CloseIdleConnections()
	if _, err := c.Health(ctx); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// stop shuts the HTTP listener and the server down and waits for both.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.done
	if serr := s.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// client is a simclient.Client with its own connection pool, so each
// caller holds its own connection.
type client struct {
	*simclient.Client
	hc   *http.Client
	base string
}

func newClient(base, id string) client {
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}
	return client{simclient.New(base, hc).WithClientID(id), hc, base}
}

// jobRun is one job as a client saw it: final info, CSV report, the pair
// results and spans its event feed carried, and the time of each call.
type jobRun struct {
	info                simapi.JobInfo
	report              []byte
	entries             []experiments.CheckpointEntry
	spans               []simapi.SpanInfo
	submit, wait, fetch float64 // seconds
	latencyMs           float64
	cpuMs               float64 // CPU time of the whole process over the job
	// finishedDedups counts submissions the server collapsed onto an
	// identical job that had already finished (see runJob).
	finishedDedups int
}

// runJob submits spec, follows its event feed to the end, fetches the final
// info and the CSV report, and times each step, and the whole job in
// process CPU time. A job that ends in any
// state but done is returned, not an error: the caller counts it failed.
//
// The server publishes a job's terminal state a moment before it releases
// the job's in-flight dedup slot, so a resubmission that follows the
// terminal event at once can come back Deduped onto the finished job
// instead of running anew. runJob then submits again until the server
// accepts a new job, counting the collapsed submissions; the retries are
// part of the job's measured latency.
func runJob(ctx context.Context, c client, spec simapi.JobSpec) (jobRun, error) {
	var jr jobRun
	t0, c0 := time.Now(), cpuSeconds()
	info, err := c.Submit(ctx, spec)
	for err == nil && info.Deduped && simapi.TerminalState(info.State) {
		if jr.finishedDedups++; jr.finishedDedups > 1000 {
			return jr, fmt.Errorf("%s: resubmission still collapses onto the finished job", info.ID)
		}
		time.Sleep(100 * time.Microsecond)
		info, err = c.Submit(ctx, spec)
	}
	if err != nil {
		return jr, fmt.Errorf("submitting %s: %w", spec, err)
	}
	t1 := time.Now()
	err = c.StreamEvents(ctx, info.ID, 0, func(ev simapi.Event) error {
		switch {
		case ev.Type == simapi.EventPair && ev.Entry != nil:
			jr.entries = append(jr.entries, *ev.Entry)
		case ev.Type == simapi.EventSpan && ev.Span != nil:
			jr.spans = append(jr.spans, *ev.Span)
		case ev.Type == simapi.EventState && simapi.TerminalState(ev.State):
			return simclient.ErrStopStreaming
		}
		return nil
	})
	if err != nil {
		return jr, fmt.Errorf("following %s: %w", info.ID, err)
	}
	if jr.info, err = c.Job(ctx, info.ID); err != nil {
		return jr, fmt.Errorf("reading %s: %w", info.ID, err)
	}
	t2 := time.Now()
	if jr.info.State == simapi.StateDone {
		if jr.report, err = c.Report(ctx, info.ID, "csv"); err != nil {
			return jr, fmt.Errorf("fetching the report of %s: %w", info.ID, err)
		}
	}
	t3 := time.Now()
	jr.submit, jr.wait, jr.fetch = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds()
	jr.latencyMs = t3.Sub(t0).Seconds() * 1e3
	jr.cpuMs = (cpuSeconds() - c0) * 1e3
	return jr, nil
}

// serverReading is one read of the server's histogram series (from the
// Prometheus exposition) and JSON counters.
type serverReading struct {
	hist    map[string]float64 // _sum and _count series, keyed by name and labels
	metrics simapi.Metrics
}

// readServer reads /api/v1/metricsz?format=prometheus and /api/v1/metricsz.
func readServer(ctx context.Context, c client) (serverReading, error) {
	r := serverReading{hist: make(map[string]float64)}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/api/v1/metricsz?format=prometheus", nil)
	if err != nil {
		return r, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return r, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return r, fmt.Errorf("metrics scrape: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if strings.HasPrefix(line, "#") || i < 0 {
			continue
		}
		key := line[:i]
		name, _, _ := strings.Cut(key, "{")
		if !strings.HasSuffix(name, "_sum") && !strings.HasSuffix(name, "_count") {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			r.hist[key] = v
		}
	}
	if err := sc.Err(); err != nil {
		return r, err
	}
	r.metrics, err = c.Metrics(ctx)
	return r, err
}

// readSettled reads the server once its write-ahead log has stopped
// growing: the server logs a job's completion record after it publishes the
// job's terminal state, so a read right after the last job of a round can
// miss that job's record.
func readSettled(ctx context.Context, c client) (serverReading, error) {
	const appends = "nosq_wal_append_seconds_count"
	r, err := readServer(ctx, c)
	for err == nil {
		time.Sleep(10 * time.Millisecond)
		var next serverReading
		if next, err = readServer(ctx, c); err == nil && next.hist[appends] == r.hist[appends] {
			return next, nil
		}
		r = next
	}
	return r, err
}

// serverTrace accumulates what the server recorded over the traced passes:
// histogram growth summed over all of them, and each pass's counter growth.
type serverTrace struct {
	hist   map[string]float64
	passes []simapi.Metrics
}

// add folds in one traced pass read before and after.
func (t *serverTrace) add(before, after serverReading) {
	if t.hist == nil {
		t.hist = make(map[string]float64)
	}
	for k, v := range after.hist {
		t.hist[k] += v - before.hist[k]
	}
	a, b := after.metrics, before.metrics
	t.passes = append(t.passes, simapi.Metrics{
		CacheHits:      a.CacheHits - b.CacheHits,
		CacheMisses:    a.CacheMisses - b.CacheMisses,
		TasksCompleted: a.TasksCompleted - b.TasksCompleted,
		TasksRequeued:  a.TasksRequeued - b.TasksRequeued,
		RemotePairs:    a.RemotePairs - b.RemotePairs,
	})
}

// meanMs is the mean observation of a histogram series, in milliseconds,
// over the traced passes (0 when nothing was observed).
func (t *serverTrace) meanMs(family, labels string) float64 {
	n := t.hist[family+"_count"+labels]
	if n == 0 {
		return 0
	}
	return t.hist[family+"_sum"+labels] / n * 1e3
}

// httpRoutes maps each per-route metric to the route label the server
// records its handler time under.
var httpRoutes = []struct{ metric, route string }{
	{"submit", "POST /api/v1/jobs"},
	{"job", "GET /api/v1/jobs/{id}"},
	{"events", "GET /api/v1/jobs/{id}/events"},
	{"report", "GET /api/v1/jobs/{id}/report"},
	{"worker_lease", "POST /api/v1/worker/lease"},
	{"worker_progress", "POST /api/v1/worker/tasks/{id}/progress"},
	{"worker_complete", "POST /api/v1/worker/tasks/{id}/complete"},
}

// serverLayers stores the server-side per-layer metrics of the traced
// passes. The counts are per pass; they must be the same in every pass.
func (b *bench) serverLayers(t *serverTrace) {
	for _, r := range httpRoutes {
		b.layers["simserver.http_ms."+r.metric] = t.meanMs("nosq_http_request_seconds", `{route="`+r.route+`"}`)
	}
	b.layers["simserver.cache_lookup_ms"] = t.meanMs("nosq_cache_lookup_seconds", "")
	b.layers["simserver.queue_wait_ms"] = t.meanMs("nosq_job_queue_wait_seconds", "")
	b.layers["simserver.pair_sim_ms"] = t.meanMs("nosq_pair_sim_seconds", "")
	b.layers["simstore.wal_append_ms"] = t.meanMs("nosq_wal_append_seconds", "")
	b.layers["simserver.lease_renewal_ms"] = t.meanMs("nosq_lease_renewal_seconds", "")
	if len(t.passes) == 0 {
		return
	}
	b.layers["simstore.wal_appends"] = t.hist["nosq_wal_append_seconds_count"] / float64(len(t.passes))
	n := t.passes[0]
	for _, o := range t.passes[1:] {
		if o.CacheHits != n.CacheHits || o.CacheMisses != n.CacheMisses ||
			o.RemotePairs != n.RemotePairs || o.TasksCompleted != n.TasksCompleted {
			b.fail(1, "server counts differ between passes: %+v then %+v", n, o)
		}
	}
	b.layers["simserver.cache_hits"] = float64(n.CacheHits)
	b.layers["simserver.cache_misses"] = float64(n.CacheMisses)
	if all := n.CacheHits + n.CacheMisses; all > 0 {
		b.layers["simserver.cache_hit_ratio"] = float64(n.CacheHits) / float64(all)
	}
	b.layers["simserver.tasks_completed"] = float64(n.TasksCompleted)
	b.layers["simserver.tasks_requeued"] = float64(n.TasksRequeued)
	b.layers["simserver.remote_pairs"] = float64(n.RemotePairs)
}

// clientLayers stores the mean client-call times of the traced jobs and the
// submissions per pass that collapsed onto a finished job.
func (b *bench) clientLayers(jobs []jobRun, passes int) {
	var submit, wait, fetch []float64
	dedups := 0
	for _, j := range jobs {
		submit = append(submit, j.submit*1e3)
		wait = append(wait, j.wait*1e3)
		fetch = append(fetch, j.fetch*1e3)
		dedups += j.finishedDedups
	}
	b.layers["simclient.submit_ms"] = mean(submit)
	b.layers["simclient.wait_ms"] = mean(wait)
	b.layers["simclient.report_ms"] = mean(fetch)
	if passes > 0 {
		b.layers["simclient.finished_dedups"] = float64(dedups) / float64(passes)
	}
}
