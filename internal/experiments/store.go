package experiments

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// resultRecord is one JSONL line of a result file: the entry's
// content-address, the code revision that produced it, and the entry itself.
type resultRecord struct {
	Key     string          `json:"key"`
	CodeRev string          `json:"code_rev"`
	Entry   CheckpointEntry `json:"entry"`
}

// ResultFile is the result store behind both nosq-experiments -checkpoint
// and the simulation server's cross-job cache. An entry is keyed by the hash
// of the code revision and everything that determines its measurements
// (CheckpointEntry.Key), so repeated or overlapping grids resume instead of
// re-simulating, and a binary built from another revision never serves
// them: those records stay in the file but never become resident.
//
// Entries are resident in memory and, when the store has a path, persisted
// as append-only JSONL. Concatenating result files (per-shard runs) merges
// them; duplicate lines become resident once. All methods are safe for
// concurrent use.
type ResultFile struct {
	rev string

	mu      sync.Mutex
	entries map[string]CheckpointEntry
	f       *os.File
}

// OpenResultFile opens (or creates) the result file at path and loads the
// records written under codeRev. An empty path makes a memory-only store.
// corrupt counts lines skipped as unreadable (e.g. one truncated by a
// crash); their pairs simply re-run, and the caller decides how to report
// them. Opening fails on a path that cannot be written, so a run learns of
// it before simulating anything.
func OpenResultFile(path, codeRev string) (s *ResultFile, corrupt int, err error) {
	s = &ResultFile{rev: codeRev, entries: make(map[string]CheckpointEntry)}
	if path == "" {
		return s, 0, nil
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("experiments: opening result file: %w", err)
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec resultRecord
		if json.Unmarshal(line, &rec) != nil {
			corrupt++
			continue
		}
		// Records from other revisions — including checkpoint lines written
		// before records carried one — are skipped, not counted: they are
		// intact, just not this binary's measurements.
		if rec.CodeRev != codeRev {
			continue
		}
		if rec.Key == "" || rec.Entry.Benchmark == "" || rec.Entry.Config == "" {
			corrupt++
			continue
		}
		if rec.Key != s.key(rec.Entry) {
			continue
		}
		s.entries[rec.Key] = rec.Entry
	}
	if err := sc.Err(); err != nil {
		// A scan failure (e.g. a line past the buffer cap) would silently
		// drop every entry after it; surface it instead of re-running
		// persisted work without explanation.
		f.Close()
		return nil, corrupt, fmt.Errorf("experiments: reading result file: %w", err)
	}
	// A torn final line (a crash mid-append) has no newline; end it, or the
	// next record would be glued onto it and lost with it.
	if err := terminateLastLine(f); err != nil {
		f.Close()
		return nil, corrupt, fmt.Errorf("experiments: repairing result file: %w", err)
	}
	s.f = f
	return s, corrupt, nil
}

// terminateLastLine appends a newline to a non-empty file that does not end
// in one.
func terminateLastLine(f *os.File) error {
	info, err := f.Stat()
	if err != nil || info.Size() == 0 {
		return err
	}
	last := make([]byte, 1)
	if _, err := f.ReadAt(last, info.Size()-1); err != nil {
		return err
	}
	if last[0] == '\n' {
		return nil
	}
	_, err = f.Write([]byte{'\n'})
	return err
}

// key content-addresses an entry under the store's code revision.
func (s *ResultFile) key(e CheckpointEntry) string {
	h := sha256.Sum256([]byte(s.rev + "\x00" + e.Key()))
	return hex.EncodeToString(h[:])
}

// Load implements ResultStore: it returns every resident entry. Other
// revisions' records were filtered out and corrupt lines counted when the
// file was opened, so Load always reports zero corrupt records.
//
// The snapshot is O(store size) per call, so every sweep planned against a
// long-lived store (one server job each) pays a copy of all resident
// entries. A keyed lookup would avoid it but changes the ResultStore
// interface.
func (s *ResultFile) Load() ([]CheckpointEntry, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]CheckpointEntry, 0, len(s.entries))
	for _, e := range s.entries {
		out = append(out, e)
	}
	return out, 0, nil
}

// Append implements ResultStore: it records one finished pair. Appending an
// entry already resident is a no-op, so overlapping runs racing on one pair
// cannot duplicate records. Each record is one unbuffered write of a
// complete line, so a pair counts as stored only once the OS has it.
func (s *ResultFile) Append(e CheckpointEntry) error {
	k := s.key(e)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.entries[k]; dup {
		return nil
	}
	s.entries[k] = e
	if s.f == nil {
		return nil
	}
	b, err := json.Marshal(resultRecord{Key: k, CodeRev: s.rev, Entry: e})
	if err != nil {
		return err
	}
	_, err = s.f.Write(append(b, '\n'))
	return err
}

// Len returns the number of resident entries (current revision only).
func (s *ResultFile) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Close fsyncs and closes the backing file, so a crash right after a clean
// shutdown cannot leave a torn final line.
func (s *ResultFile) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Sync()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	return err
}
