package simserver

import (
	"time"

	"repro/internal/simapi"
	"repro/internal/simstore"
)

// replayedJob accumulates one job's WAL records during replay: the submitted
// record that created it, the last observed start time, and the first
// terminal record (later duplicates — impossible in a well-formed log — are
// ignored).
type replayedJob struct {
	sub     simstore.Record
	started time.Time
	term    *simstore.Record
	j       *job
}

// recover rebuilds the server's job registry from replayed WAL records.
// Replay rules:
//
//   - submitted + terminal record → the job is restored as-is: queryable,
//     with its pre-rendered reports, never re-run. This is what keeps a
//     completed job's pairs from ever running twice.
//   - submitted only (queued or running at the crash) → the job re-queues.
//     Its re-run resumes every pair the crashed run already persisted to the
//     result cache, so orphaned work is re-planned, not repeated; orphaned
//     shard leases need no bookkeeping here because the re-run splits fresh
//     tasks and workers abandon stale leases on their first 404.
//   - lease / task-done records are observability breadcrumbs; replay
//     ignores them.
//
// recover runs inside New, before the server is shared, so it touches
// mu-guarded fields without the lock.
func (s *Server) recover(records []simstore.Record) {
	byID := make(map[string]*replayedJob)
	var subOrder, termOrder []string
	for i := range records {
		rec := records[i]
		switch rec.Type {
		case simstore.RecSubmitted:
			if _, dup := byID[rec.JobID]; dup {
				continue
			}
			byID[rec.JobID] = &replayedJob{sub: rec}
			subOrder = append(subOrder, rec.JobID)
		case simstore.RecStarted:
			if p := byID[rec.JobID]; p != nil && p.term == nil {
				p.started = rec.Time
			}
		case simstore.RecCompleted, simstore.RecCanceled:
			if p := byID[rec.JobID]; p != nil && p.term == nil {
				r := rec
				p.term = &r
				termOrder = append(termOrder, rec.JobID)
			}
		}
	}
	for _, id := range subOrder {
		p := byID[id]
		if p.sub.Seq > s.nextSeq {
			s.nextSeq = p.sub.Seq
		}
		p.j = restoreJob(p)
		s.jobs[p.j.id] = p.j
		s.order = append(s.order, p.j)
		if p.term != nil {
			s.recRestored++
			s.tenants.restore(p.j.client, false)
			continue
		}
		s.recRequeued++
		s.tenants.restore(p.j.client, true)
		if _, taken := s.active[p.j.specHash]; !taken {
			s.active[p.j.specHash] = p.j.id
		}
		s.queue.push(p.j)
		s.logf("recovered %s (%s): re-queued", p.j.id, p.j.spec)
	}
	// Terminal jobs join the retention ring in completion order, so the same
	// eviction policy applies across restarts.
	for _, id := range termOrder {
		s.finished = append(s.finished, byID[id].j)
	}
	s.evictFinishedLocked()
}

// restoreJob reconstructs one job from its replayed records, event log
// included.
func restoreJob(p *replayedJob) *job {
	rec := p.sub
	client := rec.Client
	if client == "" {
		client = DefaultClient
	}
	j := newJob(rec.JobID, rec.Seq, *rec.Spec, rec.SpecHash, client, rec.Time)
	if p.term == nil {
		return j
	}
	term := *p.term
	state := term.State
	if term.Type == simstore.RecCanceled {
		state = simapi.StateCanceled
	}
	j.state = state
	j.errMsg = term.Error
	j.started = p.started
	j.finished = term.Time
	j.renders = term.Reports
	if term.Pairs != nil {
		j.total = term.Pairs.Total
		j.cached = term.Pairs.Cached
		j.executed = term.Pairs.Executed
	}
	if !p.started.IsZero() {
		j.appendEventLocked(simapi.Event{Type: simapi.EventState, State: simapi.StateRunning, Time: p.started})
	}
	j.appendEventLocked(simapi.Event{Type: simapi.EventState, State: state, Error: term.Error, Time: term.Time})
	return j
}

// walSnapshotLocked renders the live state as a compaction snapshot: a
// submitted record per retained job, in submission order so replay rebuilds
// the same queue order, plus the terminal record of finished ones. Running
// jobs snapshot as submitted-only — replay re-queues them regardless, so
// their started records are pure noise the compaction drops. Callers hold
// s.mu (or, in New, have not shared the server yet).
func (s *Server) walSnapshotLocked() []simstore.Record {
	out := make([]simstore.Record, 0, len(s.order))
	for _, j := range s.order {
		out = append(out, j.walRecords()...)
	}
	return out
}

// walRecords renders one job's snapshot records.
func (j *job) walRecords() []simstore.Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	spec := j.spec
	recs := []simstore.Record{{
		Type: simstore.RecSubmitted, Time: j.submitted, JobID: j.id,
		Seq: j.seq, Client: j.client, SpecHash: j.specHash, Spec: &spec,
	}}
	if !simapi.TerminalState(j.state) {
		return recs
	}
	rec := simstore.Record{
		Type: simstore.RecCompleted, Time: j.finished, JobID: j.id,
		State: j.state, Error: j.errMsg,
		Pairs: &simstore.PairCounts{Total: j.total, Cached: j.cached, Executed: j.executed},
	}
	if j.state == simapi.StateCanceled {
		rec.Type = simstore.RecCanceled
	}
	rec.Reports = j.renders
	if rec.Reports == nil && j.report != nil {
		rec.Reports = renderAll(j.report)
	}
	return append(recs, rec)
}
