package core

import (
	"errors"
	"testing"

	"spatialdue/internal/autotune"
	"spatialdue/internal/bitflip"
	"spatialdue/internal/ndarray"
	"spatialdue/internal/predict"
	"spatialdue/internal/registry"
)

// Test accessors into an array's engine record, creating the record on
// demand like the engine's stripe APIs do.

func (e *Engine) stripesFor(arr *ndarray.Array) *stripeSet { return e.stateFor(arr).stripes }

func (e *Engine) sharedFor(arr *ndarray.Array) *predict.SharedStats { return e.stateFor(arr).shared }

func (e *Engine) cacheFor(arr *ndarray.Array) *autotune.Cache { return e.tuneCache(e.stateFor(arr)) }

func (e *Engine) markQuarantined(arr *ndarray.Array, off int) { e.stateFor(arr).markQuarantined(off) }

// TestRecoveryRefusedAfterUnprotect: once an allocation is torn down, its
// recoveries fail with checkpoint-restart and leave no engine state behind.
func TestRecoveryRefusedAfterUnprotect(t *testing.T) {
	eng := NewEngine(Options{Seed: 3})
	a := smoothArray(32, 16)
	alloc := eng.Protect("gone", a, bitflip.Float32, registry.RecoverWith(predict.MethodLorenzo1))
	if err := eng.Unprotect(alloc); err != nil {
		t.Fatal(err)
	}
	off := a.Offset(10, 8)
	if _, err := eng.RecoverElement(alloc, off); !errors.Is(err, ErrCheckpointRestartRequired) {
		t.Fatalf("RecoverElement after Unprotect: err = %v, want checkpoint-restart", err)
	}
	if _, err := eng.RecoverBurst(alloc, []int{off, off + 1}); !errors.Is(err, ErrCheckpointRestartRequired) {
		t.Fatalf("RecoverBurst after Unprotect: err = %v, want checkpoint-restart", err)
	}
	eng.MarkCorrupt(alloc, off)
	eng.ClearCorrupt(alloc, off)
	if eng.state(a) != nil {
		t.Fatal("a refused recovery re-created the array's record")
	}
	if got := eng.Stats().Fallbacks; got != 1 {
		t.Errorf("Fallbacks = %d, want 1 (the refused element recovery)", got)
	}
}

// TestRecoveryOnRetiredRecordRefused: a recovery that looked the record up
// just before Unprotect deleted it holds a retired record, and must refuse
// once it gets the stripes.
func TestRecoveryOnRetiredRecordRefused(t *testing.T) {
	eng := NewEngine(Options{Seed: 4})
	a := smoothArray(32, 16)
	alloc := eng.Protect("racing", a, bitflip.Float32, registry.RecoverWith(predict.MethodLorenzo1))
	st := eng.state(a)
	// Retire the record as Unprotect does, but leave the map entry, so the
	// recovery below finds it exactly as a recovery racing teardown would.
	if !st.stripes.tryAcquireAll() {
		t.Fatal("stripes busy")
	}
	st.retired = true
	st.stripes.releaseAll()

	off := a.Offset(16, 8)
	orig := a.AtOffset(off)
	if _, err := eng.RecoverElement(alloc, off); !errors.Is(err, ErrCheckpointRestartRequired) {
		t.Fatalf("recovery on a retired record: err = %v, want checkpoint-restart", err)
	}
	if a.AtOffset(off) != orig || st.quar.contains(off) {
		t.Error("refused recovery touched the element or its quarantine")
	}
}
