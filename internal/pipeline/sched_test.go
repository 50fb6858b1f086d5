package pipeline

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/program"
	"repro/internal/stats"
	"repro/internal/workload"
)

// referenceSelect is the issue rule the event-driven scheduler must
// implement, written as the plain oldest-first scan: walk the renamed,
// un-issued issue-queue holders in sequence order and take every one whose
// ready() predicate holds, within the per-class port budgets and the issue
// width. It returns the chosen sequence numbers without issuing anything.
func referenceSelect(s *Simulator) []uint64 {
	var ports [portNone + 1]int
	ports[portSimple] = s.cfg.SimpleIntPorts
	ports[portComplex] = s.cfg.ComplexPorts
	ports[portBranch] = s.cfg.BranchPorts
	ports[portLoad] = s.cfg.LoadPorts
	ports[portStore] = s.cfg.StorePorts
	var picked []uint64
	for i := 0; i < s.renamedCount && len(picked) < s.cfg.IssueWidth; i++ {
		in := s.window.at(i)
		if !in.holdsIQ || in.issued {
			continue
		}
		if ports[in.port] > 0 && s.ready(in) {
			picked = append(picked, in.seq)
			ports[in.port]--
		}
	}
	return picked
}

// runAgainstReference simulates prog under cfg, stepping the stages in
// step()'s order, and before every issue stage computes referenceSelect's
// choice; the instructions issue() actually starts must be exactly that
// set. It returns the final statistics, or an error naming the first cycle
// where the two selections differ.
func runAgainstReference(prog *program.Program, cfg Config) (stats.Run, error) {
	s, err := New(prog, cfg)
	if err != nil {
		return stats.Run{}, err
	}
	var holders []*inflight
	for !s.done() {
		if s.cfg.MaxCycles > 0 && s.now >= s.cfg.MaxCycles {
			return stats.Run{}, fmt.Errorf("cycle limit after %d cycles", s.now)
		}
		s.drainDCacheWrites()
		s.retire()
		s.commitEnter()
		s.complete()

		want := referenceSelect(s)
		holders = holders[:0]
		for i := 0; i < s.renamedCount; i++ {
			if in := s.window.at(i); in.holdsIQ {
				holders = append(holders, in)
			}
		}
		s.issue()
		var got []uint64
		for _, in := range holders {
			if in.issued {
				got = append(got, in.seq)
			}
		}
		if !slices.Equal(got, want) {
			return stats.Run{}, fmt.Errorf("cycle %d: issue chose %v, the oldest-first reference chose %v", s.now, got, want)
		}

		s.rename()
		s.fetch()
		s.now++
	}
	s.res.Cycles = s.now
	return s.res, nil
}

// checkAgainstReference runs one (program, configuration) pair against the
// reference selector and also requires the hand-stepped run to end in the
// same statistics as Run, so the stage sequence above cannot drift from
// step() unnoticed.
func checkAgainstReference(t *testing.T, prog *program.Program, cfg Config) {
	t.Helper()
	got, err := runAgainstReference(prog, cfg)
	if err != nil {
		t.Errorf("%s/%s: %v", prog.Name, cfg.Name, err)
		return
	}
	sim, err := New(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s/%s: hand-stepped run ended in %+v, Run in %+v", prog.Name, cfg.Name, got, want)
	}
}

// TestIssueMatchesOldestFirstReference checks, every cycle, that the
// event-driven scheduler issues exactly what the oldest-first scan over all
// issue-queue occupants would, on every generated benchmark under every
// configuration.
func TestIssueMatchesOldestFirstReference(t *testing.T) {
	for _, name := range workload.Names() {
		prog, err := workload.Generate(name, workload.Options{Iterations: 10})
		if err != nil {
			t.Fatalf("generate %s: %v", name, err)
		}
		for _, cfg := range allConfigs() {
			checkAgainstReference(t, prog, cfg)
		}
	}
}

// TestIssueMatchesOldestFirstReferenceOnStress repeats the check on the
// adversarial scenarios, which exercise squash storms, partial-word stalls
// and the associative multi-source hold (the one readiness condition that
// can be revoked, and so is re-polled rather than woken).
func TestIssueMatchesOldestFirstReferenceOnStress(t *testing.T) {
	for _, sc := range workload.StressScenarios() {
		prog, err := workload.GenerateScenario(sc, workload.Options{Iterations: 20})
		if err != nil {
			t.Fatalf("generate scenario %s: %v", sc.Name, err)
		}
		for _, cfg := range allConfigs() {
			checkAgainstReference(t, prog, cfg)
		}
	}
}
