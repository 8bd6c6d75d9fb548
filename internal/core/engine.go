// Package core is the paper's recovery engine (Section 3): it ties the
// detection paths (machine-check events, SDC detectors), the memory
// allocation registry, the spatial prediction methods, and the local
// auto-tuner into the end-to-end flow of Figure/Algorithm 1:
//
//	DUE detected at address  →  relate address to a registered allocation
//	→  reconstruct the corrupted element with the allocation's recorded
//	   method (RECOVER_ANY triggers local auto-tuning)
//	→  verify the reconstruction is plausible; escalate through the
//	   recovery ladder (re-tune, alternate methods, checkpoint element
//	   restore) while it is not
//	→  write the verified reconstruction in place and resume
//	→  if the address is not registered, or the ladder is exhausted,
//	   signal that checkpoint-restart is required instead.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"spatialdue/internal/autotune"
	"spatialdue/internal/bitflip"
	"spatialdue/internal/fti"
	"spatialdue/internal/mca"
	"spatialdue/internal/ndarray"
	"spatialdue/internal/predict"
	"spatialdue/internal/registry"
	"spatialdue/internal/spatial"
	"spatialdue/internal/trace"
)

// ErrCheckpointRestartRequired is returned when localized recovery is not
// possible (unregistered address, or the escalation ladder is exhausted)
// and the caller must fall back to rolling back to a checkpoint.
var ErrCheckpointRestartRequired = errors.New("core: checkpoint-restart required")

// ErrRecoveryAbandoned is returned for a RecoverBatch member when the
// batch's context expires before the member's verified value is written:
// the deadline passed while waiting for the stripe locks, or mid-climb on
// the escalation ladder. The element stays quarantined, so later
// recoveries of its neighbors never trust it, and a retry (or checkpoint
// restart) remains safe.
var ErrRecoveryAbandoned = errors.New("core: recovery abandoned")

// ErrRecoveriesInFlight is returned by Unprotect while recoveries hold any
// of the array's region stripes: unregistering under a live ladder climb
// would yank state the climb is reading.
var ErrRecoveriesInFlight = errors.New("core: recoveries in flight")

// Options configures an Engine.
type Options struct {
	// Tune configures the RECOVER_ANY auto-tuner. Zero values take the
	// paper's defaults (K=3, 1% tolerance, all headline methods).
	Tune autotune.Config
	// Provisional is the cheap method used to patch the corrupted element
	// while recovery runs (the cell is masked out of every stencil, but raw
	// readers of the array see a bounded placeholder instead of garbage).
	// Defaults to MethodAverage unless ProvisionalSet is true.
	Provisional predict.Method
	// ProvisionalSet marks Provisional as deliberately chosen. Without it a
	// zero Provisional selects the default; with it MethodZero (the zero
	// value of predict.Method) is honored as the provisional method.
	ProvisionalSet bool
	// Verify configures reconstruction plausibility verification; see
	// VerifyOptions. The zero value enables it with defaults.
	Verify VerifyOptions
	// MaxAlternates bounds the alternate-method rung of the escalation
	// ladder: how many next-best tuner candidates are tried after the
	// primary and re-tune rungs fail. Zero selects the default (3);
	// negative disables the rung.
	MaxAlternates int
	// StageHook, when set, is called at every ladder-stage entry. It runs
	// on the recovering goroutine with the array's recovery lock held, so
	// it must not call back into recovery on this engine; report secondary
	// faults with MarkCorrupt (the fault-injection harness does exactly
	// that to exercise double faults).
	StageHook func(StageEvent)
	// TuneCacheBlock enables region-level memoization of RECOVER_ANY
	// tuning decisions when positive: one tuner run serves every
	// corruption inside the same cache region of an array. The regions are
	// the array's lock stripes (see tuneCache), whatever the value; only its
	// sign is read. Zero disables caching (every corruption re-tunes, as in
	// the paper).
	TuneCacheBlock int
	// HotSpotZ is the |G*| z-score past which a stripe counts as an error
	// hot spot (or, negated, a cold spot) in the spatial analytics. Zero
	// selects spatial.DefaultHotZ (1.645, the one-sided 95% critical
	// value).
	HotSpotZ float64
	// HotTuneTTL is the tune-cache TTL, in cache hits, applied to hot-spot
	// regions: after that many served hits the region re-tunes. Counted in
	// uses — never wall time — so journal replay reproduces the identical
	// hit/miss sequence. Zero selects the default (16). Cold and neutral
	// regions keep their cached decision until invalidated.
	HotTuneTTL int
	// HotWidenK is added to the tuner's K when a hot-spot region
	// re-tunes: the decision will be reused across the whole region, so
	// it is worth more probes. Zero selects the default (2).
	HotWidenK int
	// FrontierBatch orders the members of each batch-recovery stripe
	// cluster frontier-inward: at every step the pending member with the
	// most healthy (unquarantined) face neighbors recovers next, so cells
	// on the edge of a structured wipe repair first and re-enter the
	// stencils of the interior cells that follow. Off by default because it
	// deliberately trades away the batch/sequential bit-identity contract
	// (members no longer run in submission order) for survival of row- and
	// column-shaped faults.
	FrontierBatch bool
	// Seed makes the Random method and tuning deterministic.
	Seed int64
}

// Outcome describes one completed localized recovery.
type Outcome struct {
	// Allocation is the repaired allocation (nil for direct FTI repairs).
	Allocation *registry.Allocation
	// Offset is the linear element offset repaired.
	Offset int
	// Method is the reconstruction method used (MethodZero with
	// Stage == StageRestore means the value came from a checkpoint).
	Method predict.Method
	// Tuned is true when the method came from RECOVER_ANY auto-tuning.
	Tuned bool
	// Stage is the escalation-ladder rung that produced the value.
	Stage Stage
	// Old is the corrupted value that was replaced; New the reconstruction.
	Old, New float64
}

// Stats are the engine's lifetime counters.
type Stats struct {
	// Recovered counts successful localized recoveries.
	Recovered int
	// Tuned counts recoveries that went through the auto-tuner.
	Tuned int
	// Fallbacks counts checkpoint-restart-required outcomes.
	Fallbacks int
}

// Engine performs localized DUE/SDC recovery.
type Engine struct {
	opts   Options
	table  *registry.Table
	audit  auditLog
	tracer *trace.Collector

	mu        sync.Mutex
	seq       int64
	stats     Stats
	byMethod  map[predict.Method]int64 // lifetime successful recoveries per method
	outcomes  map[outcomeKey]string    // memoized trace-outcome detail strings
	escal     [numStages]int64
	arrays    map[*ndarray.Array]*arrayState // one record per protected array
	ckptWorld *fti.World
	ckptRank  int

	// Batch accounting (spatialdue_batch_size histogram).
	batchCalls   int64
	batchMembers int64
	batchBuckets [len(batchSizeBuckets)]int64
}

// recLock is a context-aware mutex (one-slot semaphore) guarding one region
// stripe of an array (see stripes.go). Unlike sync.Mutex, acquisition can
// give up when a context expires, so one wedged recovery cannot transitively
// wedge every worker that touches the same region.
type recLock chan struct{}

func newRecLock() recLock { return make(recLock, 1) }

// lock acquires the lock, or returns the context's error if it expires
// first.
func (l recLock) lock(ctx context.Context) error {
	select {
	case l <- struct{}{}:
		return nil
	default:
	}
	select {
	case l <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (l recLock) unlock() { <-l }

// NewEngine creates an engine with its own allocation registry.
func NewEngine(opts Options) *Engine {
	if opts.Tune.K <= 0 {
		opts.Tune.K = 3
	}
	if opts.Tune.Tolerance <= 0 {
		opts.Tune.Tolerance = 0.01
	}
	if !opts.ProvisionalSet && opts.Provisional == predict.MethodZero {
		opts.Provisional = predict.MethodAverage
	}
	return &Engine{
		opts:     opts,
		table:    registry.NewTable(),
		tracer:   trace.NewCollector(0),
		byMethod: map[predict.Method]int64{},
		outcomes: map[outcomeKey]string{},
		arrays:   map[*ndarray.Array]*arrayState{},
	}
}

// Table exposes the engine's allocation registry.
func (e *Engine) Table() *registry.Table { return e.table }

// Tracer exposes the engine's trace collector: stage-duration histograms
// and the slowest-N trace ring. Recoveries entered without a caller trace
// (RecoverElement, RecoverAddress, FTI repairs, nil RecoverBatch members)
// mint and finish their own trace here; traces the caller hands to
// RecoverBatch are finished by the caller — the service does it after
// journal completion, so their spans include the journal writes.
func (e *Engine) Tracer() *trace.Collector { return e.tracer }

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Protect registers an array for localized recovery — the library-level
// analogue of the paper's FTI_Protect extension. The array's current values
// are snapshotted into the shared recovery statistics, so register before
// faults can land (and call FieldUpdated after replacing the contents).
func (e *Engine) Protect(name string, arr *ndarray.Array, dtype bitflip.DType, policy registry.Policy) *registry.Allocation {
	alloc := e.table.Register(name, arr, dtype, policy)
	e.stateFor(arr)
	return alloc
}

// ProtectTenant is Protect scoped to a tenant namespace: the name must be
// unique within the tenant only (the networked front end registers remote
// allocations through this path).
func (e *Engine) ProtectTenant(tenant, name string, arr *ndarray.Array, dtype bitflip.DType, policy registry.Policy) (*registry.Allocation, error) {
	alloc, err := e.table.RegisterTenant(tenant, name, arr, dtype, policy)
	if err == nil {
		e.stateFor(arr)
	}
	return alloc, err
}

// Unprotect tears down a protected allocation: it unregisters the
// allocation from the table and drops the array's engine record (tuning
// cache, stripe locks, shared statistics, spatial analytics, quarantine,
// Env pool), so a long-running multi-tenant server that registers and
// unregisters allocations does not grow without bound. It refuses with
// ErrRecoveriesInFlight while any recovery holds one of the array's
// stripes. A recovery of the allocation that starts after Unprotect, or
// that was waiting for its stripes while Unprotect held them all, fails
// with ErrCheckpointRestartRequired and creates no state.
func (e *Engine) Unprotect(alloc *registry.Allocation) error {
	arr := alloc.Array
	if st := e.state(arr); st != nil {
		if !st.stripes.tryAcquireAll() {
			return fmt.Errorf("%w: %s", ErrRecoveriesInFlight, alloc.Name)
		}
		defer st.stripes.releaseAll()
		st.retired = true
	}
	e.table.Unregister(alloc.ID)
	e.mu.Lock()
	delete(e.arrays, arr)
	e.mu.Unlock()
	return nil
}

// AttachMCA registers the engine as a machine-check handler: uncorrectable
// memory errors with a valid address are recovered in place; anything else
// is declined so the machine can escalate.
func (e *Engine) AttachMCA(m *mca.Machine) {
	m.Handle(func(ev mca.Event) error {
		if !ev.IsDUE() {
			return fmt.Errorf("core: not a recoverable DUE: %v", ev)
		}
		_, err := e.RecoverAddress(ev.Addr)
		return err
	})
}

// AttachCheckpoints gives the escalation ladder a restore rung: when every
// prediction-based recovery of an element fails verification, the element
// is re-read from rank's newest surviving checkpoint in w before the
// engine gives up to whole-state checkpoint-restart.
func (e *Engine) AttachCheckpoints(w *fti.World, rank int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ckptWorld = w
	e.ckptRank = rank
}

// WithArrayLock runs f while holding every region stripe of arr,
// serializing f against every in-flight recovery on the array. External
// mutators of protected data — a network front end accepting field uploads
// or injecting test faults — must use it: predictors and verification scan
// the raw array, so an unsynchronized write races with a concurrent ladder
// climb. After replacing the array's contents wholesale, follow up with
// FieldUpdated so the shared recovery statistics are rebuilt.
func (e *Engine) WithArrayLock(arr *ndarray.Array, f func()) {
	ss := e.stateFor(arr).stripes
	ss.acquireRange(context.Background(), 0, ss.n-1)
	defer ss.releaseAll()
	f()
}

// RecoverAddress relates a faulting physical address to a registered
// allocation and repairs the affected element (Section 3.3). An
// unregistered address yields ErrCheckpointRestartRequired.
func (e *Engine) RecoverAddress(addr uint64) (Outcome, error) {
	alloc, off, err := e.table.Lookup(addr)
	if err != nil {
		e.mu.Lock()
		e.stats.Fallbacks++
		e.mu.Unlock()
		e.audit.record(AuditEntry{Alloc: fmt.Sprintf("addr %#x", addr), Offset: -1, Err: err.Error()})
		// Double-wrap so callers can match both the escalation sentinel and
		// the cause — a registry.ErrMetadataCorrupt must stay distinguishable
		// (the HTTP layer maps it to 422, not 404).
		return Outcome{}, fmt.Errorf("%w: %w", ErrCheckpointRestartRequired, err)
	}
	return e.RecoverElement(alloc, off)
}

// RecoverElement reconstructs the element at linear offset off of a
// registered allocation according to its recovery policy, verifies the
// reconstruction (escalating through the recovery ladder on failure),
// writes the value in place, and reports the outcome. It is RecoverBatch
// with one member and no deadline.
func (e *Engine) RecoverElement(alloc *registry.Allocation, off int) (Outcome, error) {
	return e.recoverOne(allocTarget(alloc), off)
}

// recoverOne runs a batch of one without a deadline.
func (e *Engine) recoverOne(t target, off int) (Outcome, error) {
	var r [1]BatchResult
	e.recoverBatch(context.Background(), t, []int{off}, nil, r[:])
	return r[0].Outcome, r[0].Err
}

// MethodCounts returns the lifetime count of successful recoveries per
// reconstruction method. Unlike the bounded audit ring, these counters
// never decrease, so spatialdue_recoveries_by_method stays a true
// Prometheus counter under rate().
func (e *Engine) MethodCounts() map[predict.Method]int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[predict.Method]int64, len(e.byMethod))
	for m, n := range e.byMethod {
		out[m] = n
	}
	return out
}

// FTIRepairer adapts the engine to the checkpoint library's SDCCheck hook,
// repairing via the per-dataset policy recorded by fti.Protect.
func (e *Engine) FTIRepairer() fti.RepairFunc {
	return func(ds *fti.Dataset, off int) (float64, error) {
		out, err := e.recoverOne(target{
			arr: ds.Array, name: "fti:" + ds.Name,
			policy: registry.Policy{Any: ds.Policy.Any, Method: ds.Policy.Method},
		}, off)
		return out.New, err
	}
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Default hot-spot cache policy (Options.HotTuneTTL / Options.HotWidenK
// zero values).
const (
	defaultHotTuneTTL = 16
	defaultHotWidenK  = 2
)

// tuneCache returns (creating on demand) the tuning cache of an array.
// Cache regions ARE the array's lock stripes: corruptions in one stripe are
// always serialized (element recovery holds stripes s-1..s+1), so cached
// decisions never depend on scheduling, and a streaming upload's
// stripe-granular invalidation maps one-to-one onto cache regions. The
// per-region policy closes the analytics feedback loop — hot-spot stripes
// (|G*| >= HotSpotZ) get a short uses-counted TTL, a widened re-tune K,
// and a bias toward the stripe's historically best method, while smooth
// stripes keep their decision until invalidated.
func (e *Engine) tuneCache(st *arrayState) *autotune.Cache {
	if c := st.cache.Load(); c != nil {
		return c
	}
	ss, sa := st.stripes, e.analytics(st)
	c := autotune.NewCache(ss.rows)
	c.SetRegionFunc(func(idx []int) int {
		s := 0
		if len(idx) > 0 {
			s = idx[0] / ss.rows
		}
		if s >= ss.n {
			s = ss.n - 1
		}
		if s < 0 {
			s = 0
		}
		return s
	})
	hotTTL := e.opts.HotTuneTTL
	if hotTTL <= 0 {
		hotTTL = defaultHotTuneTTL
	}
	widen := e.opts.HotWidenK
	if widen <= 0 {
		widen = defaultHotWidenK
	}
	c.SetPolicyFunc(func(region int) autotune.Policy {
		if sa.Heat(region) != spatial.HeatHot {
			return autotune.Policy{}
		}
		p := autotune.Policy{TTLUses: hotTTL, WidenK: widen}
		if m, ok := sa.BestMethod(region); ok {
			p.Bias, p.BiasOK = m, true
		}
		return p
	})
	st.cache.CompareAndSwap(nil, c) // on a race the first one wins
	return st.cache.Load()
}

// InvalidateTuneCache drops cached tuning decisions for an array (call
// after the protected data changes character). A nil array drops all.
// Lifetime hit/miss counters survive — only the decisions are dropped.
func (e *Engine) InvalidateTuneCache(arr *ndarray.Array) {
	for _, st := range e.states(arr) {
		if c := st.cache.Load(); c != nil {
			c.Invalidate()
		}
	}
}

// TuneCacheCounters returns tune-cache lifetime counters summed across
// every protected array (exported as spatialdue_tune_cache_*).
func (e *Engine) TuneCacheCounters() autotune.CacheStats {
	var out autotune.CacheStats
	for _, st := range e.states(nil) {
		c := st.cache.Load()
		if c == nil {
			continue
		}
		cs := c.Counters()
		out.Hits += cs.Hits
		out.Misses += cs.Misses
		out.Coalesced += cs.Coalesced
		out.Expiries += cs.Expiries
		out.Invalidations += cs.Invalidations
		out.Corrections += cs.Corrections
	}
	return out
}

// analytics returns (creating on demand) the spatial analytics of an
// array, sized to its stripe table.
func (e *Engine) analytics(st *arrayState) *spatial.Analytics {
	if sa := st.spatial.Load(); sa != nil {
		return sa
	}
	st.spatial.CompareAndSwap(nil, spatial.New(st.stripes.n, e.opts.HotSpotZ))
	return st.spatial.Load()
}

// SpatialReport computes the spatial-autocorrelation report (Moran's I,
// Geary's C, per-stripe G* hot/cold spots) over arr's accumulated recovery
// outcomes.
func (e *Engine) SpatialReport(arr *ndarray.Array) spatial.Report {
	return e.analytics(e.stateFor(arr)).Report()
}

// recordSpatial deposits one finished ladder climb into the array's
// per-stripe spatial accumulators. ok=false is a ladder exhaustion; lock
// timeouts and abandoned climbs are NOT recorded (they carry scheduling
// signal, not spatial signal, and recording them would make the analytics
// depend on replay timing).
func (e *Engine) recordSpatial(st *arrayState, off int, res ladderResult, ok bool) {
	if st == nil || off < 0 || off >= st.stripes.total {
		return
	}
	s := st.stripes.stripeOf(off)
	if ok {
		e.analytics(st).Accumulate(s, res.residual, res.verifyFails, int(res.stage), res.method, true)
	} else {
		e.analytics(st).Accumulate(s, math.NaN(), res.verifyFails, int(StageExhausted), 0, false)
	}
}

// outcomeKey indexes the memoized trace-outcome detail strings.
type outcomeKey struct {
	method predict.Method
	stage  Stage
}
