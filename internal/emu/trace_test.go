package emu

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/program"
)

func countedProgram(n int) *program.Program {
	b := program.NewBuilder("counted")
	r1 := isa.IntReg(1)
	for i := 0; i < n; i++ {
		b.AddImm(r1, r1, 1)
	}
	b.Halt()
	return b.MustBuild()
}

func mustRecord(t *testing.T, p *program.Program, limit uint64) *Trace {
	t.Helper()
	tr, err := RecordTrace(p, limit)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestStreamSequentialGet(t *testing.T) {
	c := mustRecord(t, countedProgram(10), 0).Cursor(0)
	for seq := uint64(1); seq <= 11; seq++ { // 10 adds + halt
		d, ok := c.Get(seq)
		if !ok {
			t.Fatalf("Get(%d): end of stream", seq)
		}
		if d.Seq != seq {
			t.Errorf("Get(%d).Seq = %d", seq, d.Seq)
		}
	}
	if _, ok := c.Get(12); ok {
		t.Error("expected end of stream after the halt")
	}
}

func TestStreamRewind(t *testing.T) {
	c := mustRecord(t, countedProgram(20), 0).Cursor(0)
	first := make([]*DynInst, 0, 10)
	for seq := uint64(1); seq <= 10; seq++ {
		d, _ := c.Get(seq)
		first = append(first, d)
	}
	// Re-fetch the same range (as after a squash): identical records returned.
	for seq := uint64(3); seq <= 10; seq++ {
		if d, _ := c.Get(seq); d != first[seq-1] {
			t.Errorf("rewound Get(%d) returned a different record", seq)
		}
	}
}

func TestStreamLimit(t *testing.T) {
	b := program.NewBuilder("spin")
	b.Label("top").Jump("top")
	tr := mustRecord(t, b.MustBuild(), 50)
	if tr.Len() != 50 {
		t.Fatalf("recorded %d instructions, want 50", tr.Len())
	}
	// A cursor limit bounds the stream further, and never extends it.
	for _, tc := range []struct{ limit, want uint64 }{{0, 50}, {20, 20}, {80, 50}} {
		c := tr.Cursor(tc.limit)
		n := uint64(0)
		for seq := uint64(1); ; seq++ {
			if _, ok := c.Get(seq); !ok {
				break
			}
			n++
		}
		if n != tc.want {
			t.Errorf("cursor limit %d served %d instructions, want %d", tc.limit, n, tc.want)
		}
	}
}
