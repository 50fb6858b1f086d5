package simserver

import (
	"testing"

	"repro/internal/experiments"
)

// TestResultCacheHitAccounting: the server's cache hit and miss counters
// surface in /metricsz with their ratio.
func TestResultCacheHitAccounting(t *testing.T) {
	cache, _, err := experiments.OpenResultFile("", "rev-a")
	if err != nil {
		t.Fatal(err)
	}
	var m metrics
	if got := m.snapshot(0, 1, cache, "rev-a", fleetStats{}).CacheHitRate; got != 0 {
		t.Fatalf("hit rate before any pair = %v, want 0", got)
	}
	m.cacheHits.Add(3)
	m.cacheMisses.Add(1)
	snap := m.snapshot(0, 1, cache, "rev-a", fleetStats{})
	if snap.CacheHits != 3 || snap.CacheMisses != 1 {
		t.Fatalf("hits/misses = %d/%d", snap.CacheHits, snap.CacheMisses)
	}
	if snap.CacheHitRate != 0.75 {
		t.Fatalf("hit rate = %v, want 0.75", snap.CacheHitRate)
	}
}
