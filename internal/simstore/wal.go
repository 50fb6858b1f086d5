// Package simstore is the durability layer of the simulation service: a
// write-ahead log of job state transitions, persisted as JSONL in the same
// spirit as the result store (experiments.ResultFile) that backs both
// nosq-experiments -checkpoint and the server's result cache. Every record
// is fsynced on append, so a SIGKILLed nosq-server replays the log on
// restart and rebuilds its queue, job registry and per-client accounting
// without losing a job.
//
// The log is the job-level truth; the pair-level truth is the result cache.
// Replay re-queues every job that was not terminal at the crash, and the
// re-run resumes already-finished pairs from the cache — which is what makes
// "no pair executed twice" hold without logging individual pairs here.
//
// Like every JSONL store in this repo, replay tolerates a torn or corrupt
// tail: undecodable lines are skipped and counted, never fatal (a crash
// mid-append must not brick the server). Compact rewrites the log to a
// snapshot of live records via the usual tmp-file-then-rename dance, so the
// log does not grow without bound.
package simstore

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/simapi"
)

// Record types. Job-lifecycle records (submitted, started, completed,
// canceled) drive replay; task records (lease, task-done) are observability
// breadcrumbs — replay ignores them, because a re-queued job re-plans its
// shard tasks from scratch against the result cache.
const (
	RecSubmitted = "submitted"
	RecStarted   = "started"
	RecCompleted = "completed"
	RecCanceled  = "canceled"
	RecLease     = "lease"
	RecTaskDone  = "task-done"
)

// Record is one JSONL line of the write-ahead log.
type Record struct {
	Type string    `json:"type"`
	Time time.Time `json:"time"`

	// Job-lifecycle fields.
	JobID    string          `json:"job_id,omitempty"`
	Seq      int             `json:"seq,omitempty"`
	Client   string          `json:"client,omitempty"`
	SpecHash string          `json:"spec_hash,omitempty"`
	Spec     *simapi.JobSpec `json:"spec,omitempty"` // submitted records only
	// State is the terminal state of a completed/canceled record (done,
	// failed, canceled).
	State string `json:"state,omitempty"`
	// Error is the failure message of a failed job.
	Error string `json:"error,omitempty"`
	// Pairs carries the final pair accounting of a terminal record.
	Pairs *PairCounts `json:"pairs,omitempty"`
	// Reports holds the finished job's report rendered in every format
	// (format name → rendered text). Reports are persisted pre-rendered
	// because the in-memory report's row type is experiment-specific and
	// does not survive a JSON round trip.
	Reports map[string]string `json:"reports,omitempty"`

	// Shard-task fields (lease / task-done records).
	TaskID   string `json:"task_id,omitempty"`
	WorkerID string `json:"worker_id,omitempty"`
}

// PairCounts is the pair accounting persisted with a terminal record.
type PairCounts struct {
	Total    int `json:"total"`
	Cached   int `json:"cached"`
	Executed int `json:"executed"`
}

// Hooks intercepts the WAL's file writes and fsyncs — the fault-injection
// seam the durability tests use to tear an append at a chosen point. A nil
// hook falls back to the real operation.
type Hooks struct {
	Write func(f *os.File, b []byte) (int, error)
	Sync  func(f *os.File) error
	// AppendDone, if set, observes the wall-clock duration of each successful
	// Append (marshal + write + fsync) — the server feeds it into its WAL
	// latency histogram. Called with the WAL lock held; keep it quick.
	AppendDone func(time.Duration)
}

func (h Hooks) write(f *os.File, b []byte) (int, error) {
	if h.Write != nil {
		return h.Write(f, b)
	}
	return f.Write(b)
}

func (h Hooks) sync(f *os.File) error {
	if h.Sync != nil {
		return h.Sync(f)
	}
	return f.Sync()
}

// WAL is an append-only, fsync-per-append record log. All methods are safe
// for concurrent use.
type WAL struct {
	path  string
	hooks Hooks

	mu      sync.Mutex
	f       *os.File
	appends int // since the last compaction (or open)
}

var errClosed = errors.New("simstore: WAL is closed")

// Open opens (or creates) the WAL at path, replays every decodable record,
// and leaves the file open for appends. corrupt counts undecodable lines
// skipped — a torn tail from a crash mid-append lands here, never as an
// error. hooks may be zero (real writes and fsyncs).
func Open(path string, hooks Hooks) (w *WAL, records []Record, corrupt int, err error) {
	if path == "" {
		return nil, nil, 0, errors.New("simstore: WAL path is required")
	}
	tornTail := false
	if b, rerr := os.ReadFile(path); rerr == nil {
		tornTail = len(b) > 0 && b[len(b)-1] != '\n'
		sc := bufio.NewScanner(bytes.NewReader(b))
		sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
		for sc.Scan() {
			line := sc.Bytes()
			if len(bytes.TrimSpace(line)) == 0 {
				continue
			}
			rec, derr := DecodeRecord(line)
			if derr != nil {
				corrupt++
				continue
			}
			records = append(records, rec)
		}
		if serr := sc.Err(); serr != nil {
			return nil, nil, corrupt, fmt.Errorf("simstore: reading WAL: %w", serr)
		}
	} else if !errors.Is(rerr, os.ErrNotExist) {
		return nil, nil, 0, fmt.Errorf("simstore: reading WAL: %w", rerr)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, corrupt, fmt.Errorf("simstore: opening WAL: %w", err)
	}
	// A crash mid-append can leave a torn final line with no newline; left
	// alone, the next append would concatenate onto it and corrupt itself.
	// Terminate the torn line so new records land on their own lines (the
	// torn fragment stays counted as corrupt until compaction rewrites it).
	if tornTail {
		_, werr := f.WriteString("\n")
		if werr == nil {
			werr = f.Sync()
		}
		if werr != nil {
			f.Close()
			return nil, nil, corrupt, fmt.Errorf("simstore: repairing WAL tail: %w", werr)
		}
	}
	return &WAL{path: path, hooks: hooks, f: f}, records, corrupt, nil
}

// Append durably logs one record: marshal, write, fsync. An error means the
// record may not be durable — the caller decides whether that fails the
// operation (submissions do) or degrades to a warning (mid-run transitions
// do, since the job's work is still recoverable from the result cache).
func (w *WAL) Append(rec Record) error {
	start := time.Now()
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("simstore: encoding WAL record: %w", err)
	}
	b = append(b, '\n')
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return errClosed
	}
	if _, err := w.hooks.write(w.f, b); err != nil {
		return fmt.Errorf("simstore: appending WAL record: %w", err)
	}
	if err := w.hooks.sync(w.f); err != nil {
		return fmt.Errorf("simstore: syncing WAL: %w", err)
	}
	w.appends++
	if w.hooks.AppendDone != nil {
		w.hooks.AppendDone(time.Since(start))
	}
	return nil
}

// AppendsSinceCompact returns the number of records appended since the WAL
// was opened or last compacted — the trigger the server's compaction policy
// watches.
func (w *WAL) AppendsSinceCompact() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appends
}

// Compact atomically replaces the log with the given snapshot: write to a
// temp file, fsync, rename over the log, reopen for appends. On error the
// original log is left in place (the rename is the commit point).
func (w *WAL) Compact(snapshot []Record) error {
	var buf bytes.Buffer
	for _, rec := range snapshot {
		b, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("simstore: encoding snapshot record: %w", err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return errClosed
	}
	tmp := w.path + ".compact"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("simstore: creating compaction file: %w", err)
	}
	if _, err := f.Write(buf.Bytes()); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("simstore: writing compaction file: %w", err)
	}
	if err := os.Rename(tmp, w.path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("simstore: committing compaction: %w", err)
	}
	w.f.Close()
	nf, err := os.OpenFile(w.path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		w.f = nil
		return fmt.Errorf("simstore: reopening WAL after compaction: %w", err)
	}
	w.f = nf
	w.appends = 0
	return nil
}

// Close fsyncs and closes the log file. Further appends fail.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// DecodeRecord parses and validates one WAL line. It is the single gate
// replay trusts: anything it rejects is counted as corrupt and skipped.
func DecodeRecord(line []byte) (Record, error) {
	var r Record
	if err := json.Unmarshal(line, &r); err != nil {
		return Record{}, fmt.Errorf("simstore: decoding WAL record: %w", err)
	}
	switch r.Type {
	case RecSubmitted:
		if r.JobID == "" || r.Seq <= 0 || r.Spec == nil {
			return Record{}, fmt.Errorf("simstore: submitted record missing job id, seq or spec")
		}
	case RecStarted:
		if r.JobID == "" {
			return Record{}, fmt.Errorf("simstore: started record missing job id")
		}
	case RecCompleted:
		if r.JobID == "" {
			return Record{}, fmt.Errorf("simstore: completed record missing job id")
		}
		if r.State != simapi.StateDone && r.State != simapi.StateFailed {
			return Record{}, fmt.Errorf("simstore: completed record with non-terminal state %q", r.State)
		}
	case RecCanceled:
		if r.JobID == "" {
			return Record{}, fmt.Errorf("simstore: canceled record missing job id")
		}
	case RecLease, RecTaskDone:
		if r.TaskID == "" {
			return Record{}, fmt.Errorf("simstore: %s record missing task id", r.Type)
		}
	default:
		return Record{}, fmt.Errorf("simstore: unknown WAL record type %q", r.Type)
	}
	return r, nil
}
