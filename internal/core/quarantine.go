package core

import (
	"math/bits"
	"sync/atomic"

	"spatialdue/internal/registry"
)

// The quarantine tracks every element offset that has been reported
// corrupt but not yet repaired and verified. Its job is double-fault
// hygiene: when a second DUE lands while a first recovery is in flight (or
// a burst takes out several cells at once), no reconstruction may read the
// still-garbage neighbors. The recovery engine wires each array's
// quarantine into predict.Env as a live mask, so every stencil, probe, and
// range computation skips quarantined cells automatically.
//
// Lifecycle: an offset enters quarantine when recovery of it begins (or when
// MarkCorrupt reports it from a detector), and leaves only when a verified
// reconstruction has been written in place. An offset whose recovery
// exhausts the escalation ladder stays quarantined, so later recoveries of
// its neighbors keep treating it as garbage until checkpoint-restart
// resolves it.
//
// Representation: one bit per element in atomic 64-bit words, allocated on
// the array's first fault. The mask is read on every stencil tap, and a
// read is one atomic load with no lock; adds and removes flip the bit with
// a compare-and-swap on its word.

// quarantine is one array's set of quarantined offsets.
type quarantine struct {
	n     int // elements in the array
	words atomic.Pointer[[]atomic.Uint64]
	count atomic.Int64
}

// contains reports whether off is quarantined; out-of-range offsets never
// are.
func (q *quarantine) contains(off int) bool {
	w := q.words.Load()
	return w != nil && uint(off) < uint(q.n) && (*w)[off>>6].Load()&(1<<(off&63)) != 0
}

func (q *quarantine) add(off int) {
	w := q.words.Load()
	if w == nil {
		fresh := make([]atomic.Uint64, (q.n+63)/64)
		q.words.CompareAndSwap(nil, &fresh)
		w = q.words.Load()
	}
	if flipBit(&(*w)[off>>6], uint64(1)<<(off&63), true) {
		q.count.Add(1)
	}
}

func (q *quarantine) remove(off int) {
	w := q.words.Load()
	if w == nil {
		return
	}
	if flipBit(&(*w)[off>>6], uint64(1)<<(off&63), false) {
		q.count.Add(-1)
	}
}

// flipBit sets (or clears) bit in word and reports whether that changed
// the word.
func flipBit(word *atomic.Uint64, bit uint64, set bool) bool {
	for {
		old := word.Load()
		nw := old &^ bit
		if set {
			nw = old | bit
		}
		if nw == old {
			return false
		}
		if word.CompareAndSwap(old, nw) {
			return true
		}
	}
}

// offsets returns the quarantined offsets in ascending order.
func (q *quarantine) offsets() []int {
	out := make([]int, 0, q.count.Load())
	w := q.words.Load()
	if w == nil {
		return out
	}
	for i := range *w {
		for b := (*w)[i].Load(); b != 0; b &= b - 1 {
			out = append(out, i<<6+bits.TrailingZeros64(b))
		}
	}
	return out
}

// MarkCorrupt reports that the element at linear offset off of alloc holds
// garbage (e.g. a second MCE arrived while another recovery was running, or
// a detector localized corruption that will be repaired later). The offset
// is masked out of every stencil until a later RecoverElement/RecoverBurst
// repairs and verifies it. An unprotected allocation has nothing to mask,
// so the call is a no-op for it.
func (e *Engine) MarkCorrupt(alloc *registry.Allocation, off int) {
	if st := e.state(alloc.Array); st != nil && off >= 0 && off < alloc.Array.Len() {
		st.markQuarantined(off)
	}
}

// IsQuarantined reports whether the element at linear offset off of alloc
// is currently quarantined.
func (e *Engine) IsQuarantined(alloc *registry.Allocation, off int) bool {
	st := e.state(alloc.Array)
	return st != nil && st.quar.contains(off)
}

// ClearCorrupt reverses MarkCorrupt for an element whose recovery was never
// admitted (the service rejects a submission after quarantining it at
// intake): the offset leaves quarantine and its snapshot contribution
// re-enters the shared statistics, restoring the pre-MarkCorrupt state so
// the cell is neither masked forever nor missing from neighborhood
// statistics. It must not be used for elements an in-flight or failed
// recovery owns — those stay quarantined until repaired or rebuilt.
func (e *Engine) ClearCorrupt(alloc *registry.Allocation, off int) {
	if st := e.state(alloc.Array); st != nil && off >= 0 && off < alloc.Array.Len() {
		st.quar.remove(off)
		st.shared.Readmit(off)
	}
}

// Quarantined returns the offsets of alloc currently quarantined (reported
// corrupt, not yet repaired), in ascending order.
func (e *Engine) Quarantined(alloc *registry.Allocation) []int {
	if st := e.state(alloc.Array); st != nil {
		return st.quar.offsets()
	}
	return []int{}
}

// QuarantineCount returns the total number of quarantined elements across
// all protected arrays (exported to Prometheus as spatialdue_quarantined).
func (e *Engine) QuarantineCount() int {
	n := int64(0)
	for _, st := range e.states(nil) {
		n += st.quar.count.Load()
	}
	return int(n)
}
