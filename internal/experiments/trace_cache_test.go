package experiments

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/emu"
	"repro/internal/workload"
)

// TestTraceCacheConcurrentGetRelease drives the refcounted trace cache the
// way a sweep's worker pool does — many goroutines getting and releasing the
// same benchmark concurrently (run with -race in CI). Every getter must see
// the one shared trace, and the entry must be dropped exactly when the last
// pending job releases it.
func TestTraceCacheConcurrentGetRelease(t *testing.T) {
	const jobs = 32
	pending := make([]sweepJob, jobs)
	for i := range pending {
		pending[i] = sweepJob{index: i, benchmark: "gzip"}
	}
	c, err := newTraceCache(profileTraces(10), pending)
	if err != nil {
		t.Fatal(err)
	}

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
	const jobs = 32
	pending := make([]sweepJob, jobs)
	for i := range pending {
		pending[i] = sweepJob{index: i, benchmark: "gzip"}
	}
	c, err := newTraceCache(profileTraces(10), pending)
	if err != nil {
		t.Fatal(err)
	}

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

// TestTraceCacheUnknownBenchmark: a pending benchmark the trace source does
// not know fails cache construction, before any pair is simulated; a get of
// a benchmark with no entry is an error, not a panic.
func TestTraceCacheUnknownBenchmark(t *testing.T) {
	if _, err := newTraceCache(profileTraces(10), []sweepJob{{benchmark: "nonesuch"}}); err == nil {
		t.Fatal("unknown pending benchmark should fail cache construction")
	}
	c, err := newTraceCache(profileTraces(10), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.get("nonesuch"); err == nil {
		t.Fatal("get of unknown benchmark should error")
	}
}

// TestTraceCacheReleaseKeepsSharedEntryAlive: releasing one of a
// benchmark's jobs must not drop the trace while other jobs still hold
// pending references.
func TestTraceCacheReleaseKeepsSharedEntryAlive(t *testing.T) {
	pending := []sweepJob{{index: 0, benchmark: "gzip"}, {index: 1, benchmark: "gzip"}}
	c, err := newTraceCache(profileTraces(10), pending)
	if err != nil {
		t.Fatal(err)
	}
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

// TestGridTraceSourcesRejectUnknownWorkload: every grid experiment's trace
// source fails cache construction for a workload outside its set, so such a
// run fails before any pair is simulated.
func TestGridTraceSourcesRejectUnknownWorkload(t *testing.T) {
	scn, err := scenarioGrid("scenario", workload.StressScenarios(), 10)
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]traceSource{
		"profile":  profileTraces(10),
		"scenario": scn.traces,
		"trace":    traceGrid(nil).traces,
	} {
		if _, err := newTraceCache(src, []sweepJob{{benchmark: "nonesuch"}}); err == nil {
			t.Errorf("%s source accepted an unknown workload", name)
		}
	}
	dup := []workload.Scenario{workload.StressScenarios()[0], workload.StressScenarios()[0]}
	if _, err := scenarioGrid("scenario", dup, 10); err == nil {
		t.Error("duplicate scenario names accepted")
	}
}
