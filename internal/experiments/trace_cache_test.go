package experiments

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/emu"
	"repro/internal/program"
	"repro/internal/workload"
)

// TestTraceCacheConcurrentGetRelease drives the refcounted trace cache the
// way a sweep's worker pool does — many goroutines getting and releasing the
// same benchmark concurrently (run with -race in CI). Every getter must see
// the one shared trace, and the entry must be dropped exactly when the last
// pending job releases it.
func TestTraceCacheConcurrentGetRelease(t *testing.T) {
	prog, err := workload.Generate("gzip", workload.Options{Iterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 32
	pending := make([]sweepJob, jobs)
	for i := range pending {
		pending[i] = sweepJob{index: i, benchmark: "gzip"}
	}
	c := newTraceCache(map[string]*program.Program{"gzip": prog}, nil, pending)

	traces := make([]interface{}, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer c.release("gzip")
			tr, _, err := c.get("gzip")
			if err != nil {
				t.Errorf("get: %v", err)
				return
			}
			traces[i] = tr
		}(i)
	}
	wg.Wait()

	for i := 1; i < jobs; i++ {
		if traces[i] != traces[0] {
			t.Fatalf("goroutine %d got a different trace instance", i)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) != 0 || len(c.left) != 0 {
		t.Errorf("cache not empty after final release: %d entries, %d refcounts",
			len(c.entries), len(c.left))
	}
}

// TestTraceCacheRecordErrorShared: when trace recording fails, every
// concurrent getter of that benchmark must observe the same error (the
// record closure runs exactly once), and releases must still drain the
// entry.
func TestTraceCacheRecordErrorShared(t *testing.T) {
	const jobs = 16
	recordErr := errors.New("synthetic trace-recording failure")
	calls := 0
	c := &traceCache{
		entries: make(map[string]*traceEntry),
		left:    map[string]int{"broken": jobs},
	}
	c.entries["broken"] = &traceEntry{record: func() (*emu.Trace, error) {
		calls++ // safe: once.Do serializes the recording
		return nil, recordErr
	}}

	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.release("broken")
			tr, meta, err := c.get("broken")
			if !errors.Is(err, recordErr) {
				t.Errorf("get error = %v, want the recording failure", err)
			}
			if tr != nil || meta != nil {
				t.Error("got a trace or meta alongside the error")
			}
		}()
	}
	wg.Wait()
	if calls != 1 {
		t.Errorf("record ran %d times, want once", calls)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) != 0 {
		t.Errorf("failed entry not dropped after releases")
	}
}

// TestTraceCacheConcurrentMetaSharing drives get the way concurrent batch
// groups of one benchmark do: every group must see the same pre-decoded
// TraceMeta instance, built exactly once (run with -race in CI).
func TestTraceCacheConcurrentMetaSharing(t *testing.T) {
	prog, err := workload.Generate("gzip", workload.Options{Iterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 32
	pending := make([]sweepJob, jobs)
	for i := range pending {
		pending[i] = sweepJob{index: i, benchmark: "gzip"}
	}
	c := newTraceCache(map[string]*program.Program{"gzip": prog}, nil, pending)

	metas := make([]interface{}, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer c.release("gzip")
			_, m, err := c.get("gzip")
			if err != nil {
				t.Errorf("get: %v", err)
				return
			}
			metas[i] = m
		}(i)
	}
	wg.Wait()

	for i := 1; i < jobs; i++ {
		if metas[i] != metas[0] {
			t.Fatalf("goroutine %d got a different TraceMeta instance", i)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) != 0 {
		t.Errorf("cache not drained after final release")
	}
}

// TestTraceCacheMetaPropagatesRecordError: when trace recording fails, get
// must surface that error rather than pre-decoding a nil trace.
func TestTraceCacheMetaPropagatesRecordError(t *testing.T) {
	recordErr := errors.New("synthetic trace-recording failure")
	c := &traceCache{
		entries: map[string]*traceEntry{"broken": {record: func() (*emu.Trace, error) { return nil, recordErr }}},
		left:    map[string]int{"broken": 1},
	}
	if _, meta, err := c.get("broken"); !errors.Is(err, recordErr) || meta != nil {
		t.Errorf("get = meta %v, error %v; want no meta and the recording failure", meta, err)
	}
}

// TestTraceCacheUnknownBenchmark: a benchmark with no entry is an error, not
// a panic — the sweep engine treats it as a failed job.
func TestTraceCacheUnknownBenchmark(t *testing.T) {
	c := newTraceCache(nil, nil, nil)
	if _, _, err := c.get("nonesuch"); err == nil {
		t.Fatal("get of unknown benchmark should error")
	}
}

// TestTraceCacheReleaseKeepsSharedEntryAlive: releasing one of a
// benchmark's jobs must not drop the trace while other jobs still hold
// pending references.
func TestTraceCacheReleaseKeepsSharedEntryAlive(t *testing.T) {
	prog, err := workload.Generate("gzip", workload.Options{Iterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	pending := []sweepJob{{index: 0, benchmark: "gzip"}, {index: 1, benchmark: "gzip"}}
	c := newTraceCache(map[string]*program.Program{"gzip": prog}, nil, pending)
	first, _, err := c.get("gzip")
	if err != nil {
		t.Fatal(err)
	}
	c.release("gzip")
	second, _, err := c.get("gzip")
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Fatal("trace dropped while a job was still pending")
	}
	c.release("gzip")
	if _, _, err := c.get("gzip"); err == nil {
		t.Fatal("trace still served after the last pending job released it")
	}
}
