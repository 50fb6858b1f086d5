package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
)

// testRev is the code revision the tests' result files are written under.
const testRev = "rev-test"

// openStore opens the result file at path under testRev, closed when the
// test ends. Each call re-reads the file, as a fresh nosq-experiments
// -checkpoint process does.
func openStore(t *testing.T, path string) *ResultFile {
	t.Helper()
	s, _, err := OpenResultFile(path, testRev)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func ckEntry(bench, cfg string, cycles uint64) CheckpointEntry {
	return CheckpointEntry{Experiment: "sweep", Iterations: 25, Benchmark: bench, Config: cfg,
		Run: stats.Run{Benchmark: bench, Config: cfg, Cycles: cycles, Committed: 10 * cycles}}
}

func TestResultFilePersistsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	s, _, err := OpenResultFile(path, "rev-a")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(ckEntry("gzip", "nosq-delay", 100)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(ckEntry("applu", "nosq-delay", 200)); err != nil {
		t.Fatal(err)
	}
	// Idempotent: re-appending a resident entry must not duplicate the record.
	if err := s.Append(ckEntry("gzip", "nosq-delay", 100)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(bytes.Split(bytes.TrimSpace(mustRead(t, path)), []byte("\n"))); n != 2 {
		t.Fatalf("file holds %d lines, want 2", n)
	}

	re, corrupt, err := OpenResultFile(path, "rev-a")
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if corrupt != 0 {
		t.Fatalf("reopen reported %d corrupt lines", corrupt)
	}
	if re.Len() != 2 {
		t.Fatalf("reopened store has %d entries, want 2", re.Len())
	}
	entries, _, err := re.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("Load returned %d entries, want 2", len(entries))
	}
}

// TestResultFileScopedByCodeRevision: records written by one binary
// revision stay in the file but are never served to another — stale
// simulator output must re-run, not resurface.
func TestResultFileScopedByCodeRevision(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	a, _, err := OpenResultFile(path, "rev-a")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Append(ckEntry("gzip", "nosq-delay", 100)); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	b, _, err := OpenResultFile(path, "rev-b")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	entries, _, err := b.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("rev-b Load served %d rev-a entries", len(entries))
	}
	// The new revision recomputes and stores its own copy alongside.
	if err := b.Append(ckEntry("gzip", "nosq-delay", 101)); err != nil {
		t.Fatal(err)
	}
	entries, _, err = b.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Run.Cycles != 101 {
		t.Fatalf("rev-b Load = %+v, want its own entry", entries)
	}
}

func TestResultFileSkipsCorruptLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	s, _, err := OpenResultFile(path, "rev-a")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(ckEntry("gzip", "nosq-delay", 100)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-write: a truncated trailing line.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"key":"abc","entry":{"benchmark":"tru`)
	f.Close()

	re, corrupt, err := OpenResultFile(path, "rev-a")
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if corrupt != 1 {
		t.Fatalf("corrupt = %d, want 1", corrupt)
	}
	if re.Len() != 1 {
		t.Fatalf("entries = %d, want the intact one", re.Len())
	}
	// The next record starts a line of its own instead of being glued onto
	// the torn one and lost with it.
	if err := re.Append(ckEntry("applu", "nosq-delay", 200)); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	again, corrupt, err := OpenResultFile(path, "rev-a")
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if corrupt != 1 || again.Len() != 2 {
		t.Fatalf("after append past a torn line: %d entries, %d corrupt, want 2 and 1", again.Len(), corrupt)
	}
}

// TestResultFileSkipsLegacyCheckpointLines: checkpoint lines written before
// records carried a code revision are intact but unattributable, so they are
// skipped like another revision's records — not served, not counted corrupt.
func TestResultFileSkipsLegacyCheckpointLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	line, err := json.Marshal(ckEntry("gzip", "nosq-delay", 100))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(line, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	s, corrupt, err := OpenResultFile(path, "rev-a")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if corrupt != 0 || s.Len() != 0 {
		t.Fatalf("legacy line: corrupt = %d, resident = %d, want 0 and 0", corrupt, s.Len())
	}
}

// TestResultFileDurablePerAppend: every append must be fully on the file
// (flushed through any buffering) before the call returns — an interrupted
// sweep resumes from exactly the pairs it was told were recorded. A crash
// between append and Close must not leave a truncated (or missing) final
// line that the corrupt-line skipper silently discards, re-running finished
// work.
func TestResultFileDurablePerAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	s, _, err := OpenResultFile(path, "rev-a")
	if err != nil {
		t.Fatal(err)
	}
	entries := []CheckpointEntry{
		ckEntry("gzip", "nosq-delay", 100),
		ckEntry("applu", "nosq-delay", 200),
		ckEntry("mesa.o", "assoc-sq-storesets", 300),
	}
	for i, e := range entries {
		if err := s.Append(e); err != nil {
			t.Fatal(err)
		}
		// Before Close — as if the process died right here: the file must
		// already hold i+1 complete, parseable lines.
		b := mustRead(t, path)
		if len(b) == 0 || b[len(b)-1] != '\n' {
			t.Fatalf("after append %d: file does not end in a complete line: %q", i+1, b)
		}
		lines := bytes.Split(bytes.TrimSuffix(b, []byte("\n")), []byte("\n"))
		if len(lines) != i+1 {
			t.Fatalf("after append %d: %d lines on disk", i+1, len(lines))
		}
		for _, line := range lines {
			var rec resultRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				t.Fatalf("after append %d: unparseable line %q: %v", i+1, line, err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// And the whole file reopens with zero corruption.
	re, corrupt, err := OpenResultFile(path, "rev-a")
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if corrupt != 0 || re.Len() != len(entries) {
		t.Fatalf("reopen: %d entries, %d corrupt, want %d and 0", re.Len(), corrupt, len(entries))
	}
}

// TestOpenResultFileUnwritablePath: a path that cannot be written fails at
// open, before a run simulates anything whose results it was meant to keep.
// An empty path is a memory-only store.
func TestOpenResultFileUnwritablePath(t *testing.T) {
	notDir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenResultFile(filepath.Join(notDir, "ck.jsonl"), "rev-a"); err == nil {
		t.Fatal("opening a result file under a regular file succeeded")
	}

	mem, _, err := OpenResultFile("", "rev-a")
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Append(ckEntry("gzip", "nosq-delay", 1)); err != nil {
		t.Fatal(err)
	}
	if mem.Len() != 1 {
		t.Fatalf("memory-only store holds %d entries, want 1", mem.Len())
	}
	if err := mem.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointNotResumedAcrossRevisions is the -checkpoint regression: a
// file written by one build and reopened by a build of another code revision
// resumes nothing and re-runs the whole grid, while the same revision
// resumes everything.
func TestCheckpointNotResumedAcrossRevisions(t *testing.T) {
	benchmarks := []string{"gzip", "applu"}
	cfgs := kindConfigs([]core.ConfigKind{core.Baseline, core.NoSQDelay}, 0)
	total := len(benchmarks) * len(cfgs)
	ck := filepath.Join(t.TempDir(), "ck.jsonl")
	run := func(rev string) Summary {
		t.Helper()
		store, _, err := OpenResultFile(ck, rev)
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		_, sum, err := runSweep(context.Background(), benchmarks, cfgs,
			Options{Iterations: 10, Parallelism: 2, Store: store})
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	if sum := run("rev-a"); sum.Executed != total {
		t.Fatalf("rev-a first run summary = %+v", sum)
	}
	if sum := run("rev-b"); sum.Resumed != 0 || sum.Executed != total {
		t.Fatalf("rev-b run summary = %+v, want 0 resumed and all %d executed", sum, total)
	}
	if sum := run("rev-a"); sum.Resumed != total || sum.Executed != 0 {
		t.Fatalf("rev-a re-run summary = %+v, want all %d resumed", sum, total)
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
