package core

import (
	"sync"
	"sync/atomic"

	"spatialdue/internal/autotune"
	"spatialdue/internal/ndarray"
	"spatialdue/internal/predict"
	"spatialdue/internal/spatial"
)

// arrayState is the engine's one record per protected array: everything a
// recovery of the array needs, found with a single map lookup. Protect
// creates it (checkpoint-library datasets get theirs on first repair) and
// Unprotect drops it whole.
type arrayState struct {
	stripes *stripeSet
	shared  *predict.SharedStats
	quar    quarantine

	// Created on first use, so a protected array that never faults costs
	// neither.
	cache   atomic.Pointer[autotune.Cache]
	spatial atomic.Pointer[spatial.Analytics]

	// envs pools *predict.Env already bound to quar and shared; see env.
	envs sync.Pool

	// retired is set by Unprotect while it holds every stripe; a recovery
	// reads it after taking its stripes and refuses a retired array.
	retired bool
}

func newArrayState(arr *ndarray.Array, stripeRows int) *arrayState {
	st := &arrayState{
		stripes: newStripeSet(arr, stripeRows),
		shared:  predict.NewSharedStats(arr),
		quar:    quarantine{n: arr.Len()},
	}
	st.envs.New = func() any {
		env := predict.NewEnv(arr, 0)
		env.SetMaskFunc(st.quar.contains)
		env.SetShared(st.shared)
		return env
	}
	return st
}

// env takes a pooled Env, reset to seed's stream. Return it with
// st.envs.Put once the recovery is done with it.
func (st *arrayState) env(seed int64) *predict.Env {
	env := st.envs.Get().(*predict.Env)
	env.Reset(seed)
	return env
}

// state returns arr's record, or nil when arr is not protected.
func (e *Engine) state(arr *ndarray.Array) *arrayState {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.arrays[arr]
}

// stateFor returns arr's record, creating it when arr has none. Creation
// snapshots the array's current values into the shared statistics, so it
// must happen while they are trustworthy — at registration, before faults
// land (Protect calls this eagerly).
func (e *Engine) stateFor(arr *ndarray.Array) *arrayState {
	if st := e.state(arr); st != nil {
		return st
	}
	st := newArrayState(arr, stripeRowsFor(e.opts)) // O(N) snapshot outside e.mu
	e.mu.Lock()
	defer e.mu.Unlock()
	if prev := e.arrays[arr]; prev != nil {
		return prev // lost the creation race; the first one wins
	}
	e.arrays[arr] = st
	return st
}

// states returns arr's record (none when arr is unprotected), or every
// record when arr is nil.
func (e *Engine) states(arr *ndarray.Array) []*arrayState {
	e.mu.Lock()
	defer e.mu.Unlock()
	if arr != nil {
		if st := e.arrays[arr]; st != nil {
			return []*arrayState{st}
		}
		return nil
	}
	out := make([]*arrayState, 0, len(e.arrays))
	for _, st := range e.arrays {
		out = append(out, st)
	}
	return out
}

// markQuarantined quarantines one offset and excludes it from the array's
// shared statistics (subtracting its snapshot contribution). Every
// quarantine insertion in the engine goes through here or
// markQuarantinedAll, so the two sets never drift apart.
func (st *arrayState) markQuarantined(off int) {
	st.quar.add(off)
	st.shared.Exclude(off)
}

// markQuarantinedAll is the coalesced form: one pass over the bitset and
// one pass over the shared statistics, in submission order.
func (st *arrayState) markQuarantinedAll(offs []int) {
	for _, off := range offs {
		st.quar.add(off)
	}
	st.shared.Exclude(offs...)
}
