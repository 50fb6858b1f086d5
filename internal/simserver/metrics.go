package simserver

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/simapi"
)

// metrics holds the server's cumulative counters behind /metricsz.
type metrics struct {
	start time.Time

	submitted atomic.Uint64
	deduped   atomic.Uint64
	done      atomic.Uint64
	failed    atomic.Uint64
	canceled  atomic.Uint64

	// cacheHits counts pairs served from the result cache; cacheMisses
	// counts pairs simulated because it missed.
	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64

	insts atomic.Uint64

	// Worker-busy accounting: finished jobs accumulate into busyNanos;
	// running ones are tracked by start time so snapshots include in-flight
	// busy seconds and throughput is live, not only updated at job
	// boundaries.
	busyMu    sync.Mutex
	busyNanos int64
	running   map[int]time.Time // job seq → execution start
}

// jobStarted / jobEnded bracket one job's execution on a worker.
func (m *metrics) jobStarted(seq int) {
	m.busyMu.Lock()
	defer m.busyMu.Unlock()
	if m.running == nil {
		m.running = make(map[int]time.Time)
	}
	m.running[seq] = time.Now()
}

func (m *metrics) jobEnded(seq int) {
	m.busyMu.Lock()
	defer m.busyMu.Unlock()
	if start, ok := m.running[seq]; ok {
		m.busyNanos += int64(time.Since(start))
		delete(m.running, seq)
	}
}

// busyState returns the number of busy workers and cumulative busy time
// including the in-flight portion of running jobs.
func (m *metrics) busyState() (busy int, total time.Duration) {
	m.busyMu.Lock()
	defer m.busyMu.Unlock()
	total = time.Duration(m.busyNanos)
	for _, start := range m.running {
		total += time.Since(start)
	}
	return len(m.running), total
}

// snapshot assembles the /metricsz document.
func (m *metrics) snapshot(queueDepth, workers int, cache *experiments.ResultFile, codeRev string, fleet fleetStats) simapi.Metrics {
	busy, busyTotal := m.busyState()
	util := 0.0
	if workers > 0 {
		util = float64(busy) / float64(workers)
	}
	busySec := busyTotal.Seconds()
	insts := m.insts.Load()
	ips := 0.0
	if busySec > 0 {
		ips = float64(insts) / busySec
	}
	hits, misses := m.cacheHits.Load(), m.cacheMisses.Load()
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	return simapi.Metrics{
		UptimeSeconds:     time.Since(m.start).Seconds(),
		CodeRev:           codeRev,
		QueueDepth:        queueDepth,
		WorkersTotal:      workers,
		WorkersBusy:       busy,
		WorkerUtilization: util,
		JobsSubmitted:     m.submitted.Load(),
		JobsDeduped:       m.deduped.Load(),
		JobsDone:          m.done.Load(),
		JobsFailed:        m.failed.Load(),
		JobsCanceled:      m.canceled.Load(),
		CacheEntries:      cache.Len(),
		CacheHits:         hits,
		CacheMisses:       misses,
		CacheHitRate:      hitRate,
		InstsSimulated:    insts,
		InstsPerSecond:    ips,
		RemoteWorkers:     fleet.workers,
		TasksQueued:       fleet.queued,
		TasksLeased:       fleet.leased,
		TasksCompleted:    fleet.completed,
		TasksRequeued:     fleet.requeued,
		RemotePairs:       fleet.remotePairs,
	}
}
