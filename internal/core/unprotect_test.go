package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"spatialdue/internal/bitflip"
	"spatialdue/internal/registry"
	"spatialdue/internal/trace"
)

// TestUnprotectDropsPerArrayState is the state-leak regression: before
// Unprotect existed, the caches/stripes/shared maps grew one entry per
// registered array forever.
func TestUnprotectDropsPerArrayState(t *testing.T) {
	// TuneCacheBlock on, so the tuning-cache map is exercised too.
	eng := NewEngine(Options{Seed: 5, TuneCacheBlock: 8})
	a := smoothArray(20, 20)
	alloc := eng.Protect("leaky", a, bitflip.Float32, registry.RecoverAny())

	// Run one recovery so every per-array map is populated.
	off := a.Offset(4, 4)
	a.SetOffset(off, math.Inf(1))
	if _, err := eng.RecoverElement(alloc, off); err != nil {
		t.Fatal(err)
	}
	eng.MarkCorrupt(alloc, a.Offset(9, 9)) // leave a quarantine entry behind too
	eng.mu.Lock()
	if st := eng.arrays[a]; st == nil || st.cache.Load() == nil {
		eng.mu.Unlock()
		t.Fatal("per-array state not populated before Unprotect")
	}
	eng.mu.Unlock()

	if err := eng.Unprotect(alloc); err != nil {
		t.Fatal(err)
	}

	eng.mu.Lock()
	_, hasState := eng.arrays[a]
	eng.mu.Unlock()
	if hasState {
		t.Error("per-array state leaked")
	}
	if eng.QuarantineCount() != 0 {
		t.Errorf("quarantine entries leaked: %d", eng.QuarantineCount())
	}
	if _, ok := eng.Table().ByTenantName(alloc.Tenant, "leaky"); ok {
		t.Error("allocation still registered after Unprotect")
	}
}

// TestUnprotectRefusesWhileRecoveriesInFlight: a held stripe means a
// recovery is using the array, so teardown must be refused, not raced.
func TestUnprotectRefusesWhileRecoveriesInFlight(t *testing.T) {
	eng := NewEngine(Options{Seed: 6})
	a := smoothArray(20, 20)
	alloc := eng.Protect("busy", a, bitflip.Float32, registry.RecoverAny())

	ss := eng.stripesFor(a)
	lo, hi := ss.rangeFor(a.Offset(10, 10))
	if err := ss.acquireRange(context.Background(), lo, hi); err != nil {
		t.Fatal(err)
	}
	if err := eng.Unprotect(alloc); !errors.Is(err, ErrRecoveriesInFlight) {
		t.Fatalf("Unprotect with held stripe: err = %v, want ErrRecoveriesInFlight", err)
	}
	ss.release(lo, hi)
	if err := eng.Unprotect(alloc); err != nil {
		t.Fatalf("Unprotect after release: %v", err)
	}
}

// TestUnprotectUnderConcurrentRecoveries drives recoveries while
// repeatedly attempting teardown; run under -race this proves Unprotect's
// stripe drain and map deletion don't race the recovery path.
func TestUnprotectUnderConcurrentRecoveries(t *testing.T) {
	eng := NewEngine(Options{Seed: 7})
	a := smoothArray(32, 32)
	alloc := eng.Protect("contended", a, bitflip.Float32, registry.RecoverAny())

	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				off := a.Offset(2+(i%28), 2+(w*7)%28)
				a.SetOffset(off, math.NaN())
				_, _ = eng.RecoverElement(alloc, off)
			}
		}(w)
	}
	// Teardown attempts race the recoveries; busy refusals are expected.
	for i := 0; i < 50; i++ {
		if err := eng.Unprotect(alloc); err != nil && !errors.Is(err, ErrRecoveriesInFlight) {
			t.Errorf("Unprotect: unexpected error %v", err)
		}
	}
	wg.Wait()
	if err := eng.Unprotect(alloc); err != nil {
		t.Fatalf("final Unprotect: %v", err)
	}
	eng.mu.Lock()
	_, hasState := eng.arrays[a]
	eng.mu.Unlock()
	if hasState {
		t.Error("array record survived final Unprotect")
	}
}

// TestMethodCountersMonotonic is the counter-semantics regression:
// spatialdue_recoveries_by_method was recomputed from the bounded audit
// ring, so past 1024 recoveries the "counter" could decrease. The lifetime
// counters must keep every recovery.
func TestMethodCountersMonotonic(t *testing.T) {
	eng := NewEngine(Options{Seed: 8})
	a := smoothArray(64, 64)
	alloc := eng.Protect("ringwrap", a, bitflip.Float32, registry.RecoverAny())

	const n = auditCap + 200 // force the audit ring to wrap
	prev := int64(0)
	for i := 0; i < n; i++ {
		off := 65 + i%(a.Len()-130)
		orig := a.AtOffset(off)
		a.SetOffset(off, math.Inf(1))
		if _, err := eng.RecoverElement(alloc, off); err != nil {
			a.SetOffset(off, orig)
			continue
		}
		if i%257 == 0 {
			var sum int64
			for _, c := range eng.MethodCounts() {
				sum += c
			}
			if sum < prev {
				t.Fatalf("method counters decreased: %d -> %d at recovery %d", prev, sum, i)
			}
			prev = sum
		}
	}
	var sum int64
	for _, c := range eng.MethodCounts() {
		sum += c
	}
	if got := int64(eng.Stats().Recovered); sum != got {
		t.Fatalf("lifetime method counters sum to %d, engine recovered %d", sum, got)
	}
	if sum <= int64(auditCap) {
		t.Fatalf("test did not exercise ring wrap: only %d successes", sum)
	}

	var sb strings.Builder
	if err := eng.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "spatialdue_recoveries_by_method") {
		t.Error("by-method counter missing from metrics export")
	}
}

// TestTraceSpansCoverLadder: a directly driven recovery must leave a trace
// in the engine collector whose spans cover the ladder work (stripe wait +
// at least one predict/verify pair) and sum to at most the total.
func TestTraceSpansCoverLadder(t *testing.T) {
	eng := NewEngine(Options{Seed: 9})
	a := smoothArray(20, 20)
	alloc := eng.Protect("traced", a, bitflip.Float32, registry.RecoverAny())

	off := a.Offset(7, 7)
	a.SetOffset(off, math.Inf(1))
	if _, err := eng.RecoverElement(alloc, off); err != nil {
		t.Fatal(err)
	}

	top := eng.Tracer().Top()
	if len(top) != 1 {
		t.Fatalf("collector retained %d traces, want 1", len(top))
	}
	sum := top[0]
	if sum.Alloc != "traced" || sum.Offset != off || !sum.OK {
		t.Fatalf("trace summary = %+v", sum)
	}
	stages := map[string]float64{}
	spanSum := 0.0
	for _, sp := range sum.Spans {
		stages[sp.Stage] += sp.DurSeconds
		spanSum += sp.DurSeconds
	}
	if _, ok := stages[trace.StageStripeWait]; !ok {
		t.Errorf("missing %s span; got %v", trace.StageStripeWait, stages)
	}
	hasPredict := false
	for st := range stages {
		if strings.HasPrefix(st, "predict/") {
			hasPredict = true
		}
	}
	if !hasPredict {
		t.Errorf("no predict span recorded; got %v", stages)
	}
	if spanSum > sum.TotalSeconds*1.05 {
		t.Errorf("spans sum to %.9fs, exceeding total %.9fs", spanSum, sum.TotalSeconds)
	}
}

// TestBatchMembersShareStripeWaitSpan: one cluster acquisition is stamped
// into every member's trace with the identical duration.
func TestBatchMembersShareStripeWaitSpan(t *testing.T) {
	eng := NewEngine(Options{Seed: 10})
	a := smoothArray(32, 32)
	alloc := eng.Protect("batch", a, bitflip.Float32, registry.RecoverAny())

	offs := []int{a.Offset(5, 5), a.Offset(5, 6), a.Offset(5, 7)}
	trs := make([]*trace.Trace, len(offs))
	for i := range trs {
		trs[i] = trace.New()
	}
	for _, off := range offs {
		a.SetOffset(off, math.Inf(1))
	}
	for _, r := range eng.RecoverBatch(context.Background(), alloc, offs, trs) {
		if r.Err != nil {
			t.Fatalf("batch member %d: %v", r.Offset, r.Err)
		}
	}

	var waits []float64
	for i, tr := range trs {
		found := false
		for _, sp := range tr.Spans() {
			if sp.Stage == trace.StageStripeWait {
				waits = append(waits, sp.Dur.Seconds())
				found = true
			}
		}
		if !found {
			t.Fatalf("member %d has no stripe-wait span", i)
		}
	}
	for i := 1; i < len(waits); i++ {
		if waits[i] != waits[0] {
			t.Errorf("stripe-wait durations differ across batch members: %v", waits)
		}
	}
	// Caller-supplied traces are left unfinished for the service to close.
	if trs[0].Total() != 0 {
		t.Error("caller-supplied batch trace was finished by the engine")
	}
}
