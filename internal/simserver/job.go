package simserver

import (
	"context"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/simapi"
)

// job is the server-side state of one submitted experiment run: the spec, the
// lifecycle state machine, the append-only progress event log that streaming
// clients follow, and (once done) the report.
//
// All mutable fields are guarded by mu. The event log is append-only;
// followers snapshot a suffix under the lock and then wait on the notify
// channel, which is closed and replaced on every append (a broadcast that
// needs no subscriber registry).
type job struct {
	id       string
	seq      int
	spec     simapi.JobSpec
	specHash string
	client   string

	mu        sync.Mutex
	state     string
	errMsg    string
	cancelReq bool
	submitted time.Time
	started   time.Time
	finished  time.Time
	cancel    context.CancelFunc

	total    int
	cached   int
	executed int

	report *experiments.Report
	// renders holds a recovered job's report pre-rendered per format: the
	// in-memory report does not survive a WAL round trip, so a restarted
	// server serves these instead.
	renders map[string]string
	events  []simapi.Event
	notify  chan struct{}

	// heapIndex is maintained by jobHeap while the job is queued (-1 after).
	heapIndex int
}

func newJob(id string, seq int, spec simapi.JobSpec, specHash, client string, now time.Time) *job {
	j := &job{
		id:        id,
		seq:       seq,
		spec:      spec,
		specHash:  specHash,
		client:    client,
		state:     simapi.StateQueued,
		submitted: now,
		notify:    make(chan struct{}),
		heapIndex: -1,
	}
	j.appendEventLocked(simapi.Event{Type: simapi.EventState, State: simapi.StateQueued, Time: now})
	return j
}

// appendEventLocked assigns the next sequence number, appends, and wakes
// followers. Callers must hold mu — except newJob, whose job is not yet
// shared.
func (j *job) appendEventLocked(ev simapi.Event) {
	ev.Seq = len(j.events) + 1
	j.events = append(j.events, ev)
	close(j.notify)
	j.notify = make(chan struct{})
}

// start transitions queued → running, reporting false if the job was
// canceled before a worker claimed it (including a cancel that raced the
// worker between queue pop and start).
func (j *job) start(cancel context.CancelFunc, now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != simapi.StateQueued || j.cancelReq {
		return false
	}
	j.state = simapi.StateRunning
	j.started = now
	j.cancel = cancel
	j.appendEventLocked(simapi.Event{Type: simapi.EventState, State: simapi.StateRunning, Time: now})
	j.appendEventLocked(spanEvent(obs.SpanAt("queued", j.submitted).EndAt(now), now))
	return true
}

// finish transitions running → a terminal state.
func (j *job) finish(state, errMsg string, rep *experiments.Report, now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if simapi.TerminalState(j.state) {
		return
	}
	// Timing spans land before the terminal state event — followers stop at
	// the terminal event, so anything after it would never be streamed.
	if !j.started.IsZero() {
		j.appendEventLocked(spanEvent(obs.SpanAt("run", j.started).EndAt(now), now))
	}
	j.appendEventLocked(spanEvent(obs.SpanAt("total", j.submitted).EndAt(now), now))
	j.state = state
	j.errMsg = errMsg
	j.report = rep
	j.finished = now
	j.cancel = nil
	j.appendEventLocked(simapi.Event{Type: simapi.EventState, State: state, Error: errMsg, Time: now})
}

// span appends one timing span to the event log, unless the job already
// reached a terminal state (late spans from the dispatcher must not land
// after the terminal event, which ends every follower's stream).
func (j *job) span(rec obs.SpanRecord, now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if simapi.TerminalState(j.state) {
		return
	}
	j.appendEventLocked(spanEvent(rec, now))
}

// spanEvent renders a span record as a job event.
func spanEvent(rec obs.SpanRecord, now time.Time) simapi.Event {
	return simapi.Event{
		Type: simapi.EventSpan,
		Time: now,
		Span: &simapi.SpanInfo{
			Name:           rec.Name,
			Start:          rec.Start,
			DurationMillis: float64(rec.Duration) / float64(time.Millisecond),
		},
	}
}

// markCanceledQueued cancels a job that never left the queue.
func (j *job) markCanceledQueued(now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != simapi.StateQueued {
		return false
	}
	j.state = simapi.StateCanceled
	j.finished = now
	j.appendEventLocked(simapi.Event{Type: simapi.EventState, State: simapi.StateCanceled, Time: now})
	return true
}

// requestCancel flags the job as cancel-requested and, if it is already
// running, cancels its context (the sweep engine stops dispatching and the
// worker records the canceled state). A popped-but-not-yet-started job sees
// the flag in start and never runs. It reports whether the job was still
// cancelable.
func (j *job) requestCancel() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if simapi.TerminalState(j.state) {
		return false
	}
	j.cancelReq = true
	if j.cancel != nil {
		j.cancel()
	}
	return true
}

// planned and pairDone record sweep progress (called by the job's
// ProgressSink).
func (j *job) planned(total, cached, pending int, now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.total = total
	j.cached = cached
	j.appendEventLocked(simapi.Event{
		Type:    simapi.EventPlanned,
		Time:    now,
		Planned: &simapi.PlannedInfo{Total: total, Cached: cached, Pending: pending},
	})
}

func (j *job) pairDone(e experiments.CheckpointEntry, now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.executed++
	entry := e
	j.appendEventLocked(simapi.Event{Type: simapi.EventPair, Time: now, Entry: &entry})
}

// info snapshots the job as its wire representation.
func (j *job) info() simapi.JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	return simapi.JobInfo{
		ID:            j.id,
		Spec:          j.spec,
		State:         j.state,
		Client:        j.client,
		Error:         j.errMsg,
		Submitted:     j.submitted,
		Started:       j.started,
		Finished:      j.finished,
		TotalPairs:    j.total,
		CachedPairs:   j.cached,
		ExecutedPairs: j.executed,
	}
}

// eventsSince returns the events with Seq > from, the job's current state,
// and the channel that will be closed on the next append.
func (j *job) eventsSince(from int) (evs []simapi.Event, state string, notify <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from < 0 {
		from = 0
	}
	if from < len(j.events) {
		evs = append(evs, j.events[from:]...)
	}
	return evs, j.state, j.notify
}

// result returns the finished job's report (nil unless state is done).
func (j *job) result() *experiments.Report {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.report
}

// rendered returns a recovered job's pre-rendered report in the given
// format, if one was replayed from the WAL.
func (j *job) rendered(format string) (string, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	text, ok := j.renders[format]
	return text, ok
}

// jobSink adapts a job (plus the server's metrics counters) to
// experiments.ProgressSink.
type jobSink struct {
	j    *job
	m    *metrics
	prom *promMetrics
	// replan marks the in-process fallback re-run after a lost fleet: its
	// plan is skipped entirely — the first plan already recorded the job's
	// true cache hits, and pairs delivered remotely in between would
	// otherwise be re-counted as hits (they were simulated, and already
	// counted as misses) and re-announced in a second planned event.
	replan bool
}

func (s *jobSink) Planned(total, resumed, skippedShard, pending int) {
	if s.replan {
		return
	}
	// Server jobs run unsharded with the shared cache as their only store, so
	// every resumed pair is a cache hit.
	s.m.cacheHits.Add(uint64(resumed))
	s.j.planned(total, resumed, pending, time.Now())
}

func (s *jobSink) PairDone(e experiments.CheckpointEntry) {
	s.m.cacheMisses.Add(1)
	s.m.insts.Add(e.Run.Committed)
	if s.prom != nil {
		s.prom.pairDone(e.Config, e.Run.Flushes, e.Run.BypassMispredictions, e.Run.Committed)
	}
	s.j.pairDone(e, time.Now())
}

// PairTimed implements experiments.PairTimer: the sweep engine's per-pair
// wall-time attribution (a config-parallel batch group's wall divided across
// its members) feeds the pair latency histogram.
func (s *jobSink) PairTimed(benchmark, config string, wall time.Duration) {
	if s.prom != nil {
		s.prom.pairLatency.Observe(wall.Seconds())
	}
}
