package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"repro/internal/stats"
)

// pinnedIterations is the reduced workload length of the pinned results:
// long enough to exercise bypassing, delay, flushes and both window sizes,
// short enough that all ten experiments run in a couple of seconds.
const pinnedIterations = 20

// pinnedExperiments are the experiments whose simulated numbers are pinned
// under testdata/pinned: every paper table and figure, the default sweep
// grid, the built-in stress suite, the committed scenario corpus, and the
// committed trace corpus.
var pinnedExperiments = []string{
	"table5", "fig2", "fig3", "fig4", "fig5cap", "fig5hist",
	"sweep", "scenario", "corpus", "trace",
}

// pairRecorder collects every executed pair's checkpoint entry.
type pairRecorder struct {
	mu      sync.Mutex
	entries []CheckpointEntry
}

func (r *pairRecorder) Planned(total, resumed, skippedShard, pending int) {}

func (r *pairRecorder) PairDone(e CheckpointEntry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.entries = append(r.entries, e)
}

// jsonl renders the recorded entries one JSON line each, sorted by pair key
// so the file does not depend on worker completion order.
func (r *pairRecorder) jsonl(t *testing.T) []byte {
	t.Helper()
	sort.Slice(r.entries, func(i, j int) bool { return r.entries[i].Key() < r.entries[j].Key() })
	var b bytes.Buffer
	for _, e := range r.entries {
		line, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// TestPinnedResults compares every pinned experiment's JSON report and its
// per-pair stats.Run records byte for byte against testdata/pinned. A change
// to the timing model that moves any simulated number fails here; when the
// move is intended, regenerate with
//
//	go test ./internal/experiments -run TestPinnedResults -update
//
// and say why in the change description. The experiments run from the
// repository root with the default corpus and trace directories, so each
// pinned report is also exactly what
//
//	nosq-experiments -exp <name> -iters 20 -format json
//
// prints there.
func TestPinnedResults(t *testing.T) {
	dir, err := filepath.Abs(filepath.Join("testdata", "pinned"))
	if err != nil {
		t.Fatal(err)
	}
	t.Chdir(filepath.Join("..", ".."))
	for _, name := range pinnedExperiments {
		t.Run(name, func(t *testing.T) {
			e, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			rec := &pairRecorder{}
			rep, err := e.Run(context.Background(), Options{
				Iterations:  pinnedIterations,
				Parallelism: 2,
				Progress:    rec,
			})
			if err != nil {
				t.Fatal(err)
			}
			report, err := rep.Render(stats.FormatJSON)
			if err != nil {
				t.Fatal(err)
			}
			comparePinned(t, filepath.Join(dir, name+".json"), []byte(report))
			comparePinned(t, filepath.Join(dir, name+".runs.jsonl"), rec.jsonl(t))
		})
	}
}

func comparePinned(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing pinned file (run `go test ./internal/experiments -run TestPinnedResults -update`): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the pinned result (%d bytes, want %d); a simulated number moved", path, len(got), len(want))
	}
}
