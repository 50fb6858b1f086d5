// Package smb provides the speculative-memory-bypassing support structures
// that NoSQ adds to the rename stage: the store register queue (SRQ) and the
// partial-word bypass legality/transformation rules (Section 3.2 and 3.5).
//
// The SRQ parallels a traditional store queue in structure but is not a
// datapath element: it holds, per in-flight store (indexed by the low-order
// bits of the store's SSN), only the identity of the store's data input —
// enough for a bypassing load's output register mapping to be pointed
// directly at the DEF instruction's output. It is written at rename when a
// store is renamed and read at rename when a bypassing load is renamed.
package smb

import (
	"fmt"

	"repro/internal/isa"
)

// SRQEntry describes one in-flight store's data input.
type SRQEntry struct {
	// Valid reports whether the entry corresponds to a currently in-flight
	// store (it is cleared at commit).
	Valid bool
	// SSN is the full store sequence number, used to detect stale entries
	// when the queue index wraps.
	SSN uint64
	// DataTag is the physical register holding the store's data (the DEF
	// instruction's output register).
	DataTag int
	// ProducerSeq is the dynamic sequence number of the instruction that
	// produces the store's data (the DEF), used by the timing model to know
	// when the bypassed value is actually available.
	ProducerSeq uint64
	// StoreSeq is the store's own dynamic sequence number.
	StoreSeq uint64
	// Size is the store's access width in bytes.
	Size uint8
	// FPConv marks an sts-style converting store.
	FPConv bool
}

// SRQ is the store register queue.
type SRQ struct {
	entries []SRQEntry
}

// NewSRQ creates a store register queue with the given number of entries.
// The paper sizes it like the store queue it replaces (the number of
// in-flight stores the window can hold).
func NewSRQ(entries int) *SRQ {
	if entries <= 0 {
		panic(fmt.Sprintf("smb: SRQ size %d must be positive", entries))
	}
	return &SRQ{entries: make([]SRQEntry, entries)}
}

// Size returns the number of entries.
func (q *SRQ) Size() int { return len(q.entries) }

func (q *SRQ) index(ssn uint64) int { return int(ssn % uint64(len(q.entries))) }

// Insert records a renamed store.
func (q *SRQ) Insert(e SRQEntry) {
	if e.SSN == 0 {
		panic("smb: SRQ insert with SSN 0")
	}
	e.Valid = true
	q.entries[q.index(e.SSN)] = e
}

// Lookup returns the entry for the store with the given SSN, if it is still
// present (not overwritten or released).
func (q *SRQ) Lookup(ssn uint64) (SRQEntry, bool) {
	if ssn == 0 {
		return SRQEntry{}, false
	}
	e := q.entries[q.index(ssn)]
	if !e.Valid || e.SSN != ssn {
		return SRQEntry{}, false
	}
	return e, true
}

// Release invalidates the entry for the store with the given SSN (at commit
// or squash).
func (q *SRQ) Release(ssn uint64) {
	if ssn == 0 {
		return
	}
	e := &q.entries[q.index(ssn)]
	if e.Valid && e.SSN == ssn {
		e.Valid = false
	}
}

// Reset invalidates all entries.
func (q *SRQ) Reset() {
	for i := range q.entries {
		q.entries[i].Valid = false
	}
}

// Transform describes the register-to-register operation a bypassed load's
// value must undergo to mimic the store-then-load memory round trip
// (Section 3.5). A full-word, same-type bypass needs no transformation and
// can be performed purely by map-table short-circuiting; anything else
// requires injecting a speculative shift & mask instruction in place of the
// load.
type Transform struct {
	// NeedsOp reports that a shift & mask instruction must be injected (the
	// bypass cannot be a pure rename short-circuit).
	NeedsOp bool
	// ShiftBytes is the right-shift applied to the store's register value
	// (the load reads bytes starting ShiftBytes into the stored word). This
	// is the component NoSQ must predict.
	ShiftBytes uint8
	// MaskBytes is the number of bytes of the shifted value that are kept.
	MaskBytes uint8
	// SignExtend reports that the kept bytes are sign-extended (vs zero-
	// extended).
	SignExtend bool
	// FPConvert reports that the Alpha lds/sts single-precision conversion
	// must be applied (in either direction the injected op reproduces the
	// memory round trip).
	FPConvert bool
}

// StoreDesc describes the communicating store as known at rename time (from
// the SRQ) or at commit time (from the T-SSBF).
type StoreDesc struct {
	// Size is the store's width in bytes.
	Size uint8
	// FPConv marks an sts-style converting store.
	FPConv bool
}

// LoadDesc describes the bypassing load.
type LoadDesc struct {
	// Size is the load's width in bytes.
	Size uint8
	// Signed marks a sign-extending load.
	Signed bool
	// FPConv marks an lds-style converting load.
	FPConv bool
	// ShiftBytes is the predicted byte offset of the load within the store's
	// written bytes.
	ShiftBytes uint8
}

// Plan decides whether a store-load pair can be bypassed by SMB and, if so,
// what transformation the bypass requires.
//
// The one case SMB fundamentally cannot handle is the partial-store case: a
// load that reads bytes the store did not write (it would have to combine
// values from multiple sources). Those return ok=false and must be handled
// by delay (Section 3.3) or, absent delay, become mis-speculations.
func Plan(st StoreDesc, ld LoadDesc) (Transform, bool) {
	var tr Transform
	// The load must fall entirely within the store's written bytes.
	if uint16(ld.ShiftBytes)+uint16(ld.Size) > uint16(st.Size) {
		return Transform{}, false
	}
	tr.ShiftBytes = ld.ShiftBytes
	tr.MaskBytes = ld.Size
	tr.SignExtend = ld.Signed
	tr.FPConvert = st.FPConv || ld.FPConv
	// A same-width, no-shift, no-conversion, zero-or-full-extension bypass is
	// the pure short-circuit case; everything else needs the injected op.
	pure := ld.Size == 8 && st.Size == 8 && ld.ShiftBytes == 0 && !tr.FPConvert && !ld.Signed
	tr.NeedsOp = !pure
	return tr, true
}

// ApplyTransform applies the transformation to the store's register value,
// reproducing exactly what the memory round trip would have produced. The
// timing model uses this only in tests (correctness of bypassed values is
// established by the oracle), but it documents and verifies the semantics of
// the injected shift & mask operation.
func ApplyTransform(tr Transform, storeRegValue uint64, convertStore func(uint64) uint64, convertLoad func(uint64) uint64) uint64 {
	v := storeRegValue
	if convertStore != nil {
		v = convertStore(v)
	}
	v >>= 8 * uint(tr.ShiftBytes)
	if tr.MaskBytes < 8 {
		mask := (uint64(1) << (8 * uint(tr.MaskBytes))) - 1
		v &= mask
		if tr.SignExtend {
			sign := uint64(1) << (8*uint(tr.MaskBytes) - 1)
			if v&sign != 0 {
				v |= ^mask
			}
		}
	}
	if convertLoad != nil {
		v = convertLoad(v)
	}
	return v
}

// PlanForInsts is a convenience wrapper building a Plan from static
// instructions plus a shift amount.
func PlanForInsts(st *isa.Inst, ld *isa.Inst, shift uint8) (Transform, bool) {
	return Plan(
		StoreDesc{Size: st.MemSize, FPConv: st.FPConv},
		LoadDesc{Size: ld.MemSize, Signed: ld.Signed, FPConv: ld.FPConv, ShiftBytes: shift},
	)
}
