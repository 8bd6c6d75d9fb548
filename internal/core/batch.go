package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"spatialdue/internal/ndarray"
	"spatialdue/internal/predict"
	"spatialdue/internal/registry"
	"spatialdue/internal/trace"
)

// Every element recovery outside RecoverBurst — one element from
// RecoverElement/RecoverAddress, a coalesced service batch, a
// checkpoint-library repair — runs through one runner, recoverBatch; an
// element recovery is a batch of one. A batch
//
//   - looks the array's record up once (see state.go) and refuses every
//     member when the allocation is no longer protected,
//   - quarantines every member in one coalesced pass (one bitset sweep, one
//     shared-statistics exclusion sweep, both in submission order; a lone
//     member is quarantined by its own climb),
//   - groups members into stripe clusters — members whose three-stripe lock
//     ranges overlap — and runs the clusters concurrently (their read/write
//     sets are provably disjoint; see stripes.go),
//   - takes one pooled predict.Env (and its allocation-free scratch
//     buffers) per cluster, resetting it to each member's seed, and
//   - reuses auto-tune decisions across members in the same tune-cache
//     block, since clustered members tune sequentially against the same
//     cache.
//
// Equivalence contract. For offsets that are already quarantined when the
// batch starts — which is how the service uses it: every ingested event is
// MarkCorrupt'ed at intake — RecoverBatch produces bit-identical array
// contents, outcomes, and method choices to recovering the same offsets
// one at a time with RecoverElement in submission order. Within a cluster,
// members run sequentially in submission order with pre-assigned
// deterministic seeds; across clusters, no recovery can observe another's
// writes, mask changes, or tune-cache entries, and the shared statistics
// are frozen for the duration (exclusions all happen up front; repaired
// cells are not re-admitted until FieldUpdated). For offsets NOT
// pre-quarantined the batch is deliberately not order-equivalent: it
// quarantines all members before recovering any, so early members never
// read later members' corrupt values — strictly safer than the sequential
// interleaving.
//
// Quarantine release stays per-member (not coalesced): a later member of a
// cluster must see its earlier neighbors already repaired and released,
// exactly as the sequential path would, or bit-identity breaks.
//
// BatchResult reports one member's outcome, indexed like the offsets slice
// passed to RecoverBatch.
type BatchResult struct {
	// Offset echoes the member's linear element offset.
	Offset int
	// Outcome is the completed recovery (zero when Err != nil).
	Outcome Outcome
	// Err is the member's failure, if any: ErrCheckpointRestartRequired
	// (out of range, allocation not protected, ladder exhausted) or
	// ErrRecoveryAbandoned (context expired), wrapped with the element's
	// name and offset.
	Err error
}

// target is what a recovery repairs: the array, the names its bookkeeping
// reports, and the policy it reconstructs with. Registered allocations and
// checkpoint-library datasets both reduce to one.
type target struct {
	alloc  *registry.Allocation // reported in Outcome; nil for FTI datasets
	arr    *ndarray.Array
	st     *arrayState // arr's record; set by the runner, nil if unprotected
	name   string
	tenant string
	policy registry.Policy
}

func allocTarget(a *registry.Allocation) target {
	return target{alloc: a, arr: a.Array, name: a.Name, tenant: a.Tenant, policy: a.Policy}
}

// batchSizeBuckets are the spatialdue_batch_size histogram bounds.
var batchSizeBuckets = [...]int{1, 2, 4, 8, 16, 32}

// observeBatch records one multi-member RecoverBatch call for the metrics
// endpoint.
func (e *Engine) observeBatch(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.batchCalls++
	e.batchMembers += int64(n)
	for bi, bound := range batchSizeBuckets {
		if n <= bound {
			e.batchBuckets[bi]++
		}
	}
}

// BatchStats reports lifetime batch accounting over calls with more than
// one member: calls, total members, and the cumulative size histogram
// (indexed like batchSizeBuckets).
func (e *Engine) BatchStats() (calls, members int64, buckets [len(batchSizeBuckets)]int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.batchCalls, e.batchMembers, e.batchBuckets
}

// RecoverBatch recovers every element in offsets (all inside alloc's array)
// and returns one result per member, in input order. Members in
// non-conflicting stripe clusters recover concurrently.
//
// traces, indexed like offsets, carries caller-owned traces. A nil slice
// (or nil member) makes the engine mint and finish its own trace for that
// member; caller-supplied traces are annotated but left unfinished, so the
// caller can append its own post-recovery spans (journal finish) before
// handing them to the collector. Members of one stripe cluster share the
// cluster's single lock acquisition, stamped into every member's trace as a
// stripe_wait span of identical duration.
//
// The context governs the whole batch. When it expires, unfinished members
// report ErrRecoveryAbandoned immediately — even if a predictor or
// checkpoint restore is wedged — so a bounded worker pool can give up
// without leaking its worker. The abandoned cluster climbs keep running in
// the background holding their stripe locks: each aborts at its next
// cooperative checkpoint (every ladder-stage entry and every attempt),
// restores the pre-recovery value, leaves the element quarantined, and only
// then releases the locks, so no concurrent recovery ever observes a
// half-finished repair. A climb that completes after abandonment is still
// counted and audited.
func (e *Engine) RecoverBatch(ctx context.Context, alloc *registry.Allocation, offsets []int, traces []*trace.Trace) []BatchResult {
	results := make([]BatchResult, len(offsets))
	e.recoverBatch(ctx, allocTarget(alloc), offsets, traces, results)
	return results
}

// member is one batch member's private state.
type member struct {
	off   int
	seed  int64
	tr    *trace.Trace
	owned bool // engine-minted trace: finished and recycled here
	done  bool // result already in results (calling goroutine only)
}

// cluster is a run of members whose lock ranges chain together.
type cluster struct {
	from, to int // its member indices are live[from:to], submission order
	lo, hi   int // stripe lock range
}

// memberResult carries one member's result from a cluster goroutine to the
// collector.
type memberResult struct {
	i   int
	out Outcome
	err error
}

// batch is the state the clusters of one recoverBatch call share. The
// member state is passed to run separately: the escape analysis cannot tell
// the struct's fields apart, so keeping it out lets a batch of one keep its
// members on the stack.
type batch struct {
	e     *Engine
	ctx   context.Context
	t     target
	resCh chan memberResult // cluster goroutines report here
}

// deliver hands one member's result over: written straight into results
// by an inline run, sent to the collector by a cluster goroutine (which
// passes nil results). Keeping results out of the shared struct keeps it
// off the heap, so a batch of one costs no more than the element recovery
// it is.
func (b *batch) deliver(results []BatchResult, i int, out Outcome, err error) {
	if results == nil {
		b.resCh <- memberResult{i, out, err}
		return
	}
	results[i].Outcome, results[i].Err = out, err
}

// run recovers one cluster under a single lock acquisition: every member's
// trace carries the same stripe_wait span, because that is literally the
// wait they shared. ms and live are the batch's members and its in-range
// member indices, grouped by cluster.
func (b *batch) run(c cluster, ms []member, live []int, results []BatchResult) {
	e, t, st := b.e, b.t, b.t.st
	members := live[c.from:c.to]
	t0 := time.Now()
	lerr := st.stripes.acquireRange(b.ctx, c.lo, c.hi)
	clk := time.Now() // chains into the first member's ladder spans
	wait := clk.Sub(t0)
	for _, i := range members {
		ms[i].tr.ObserveDur(trace.StageStripeWait, t0, wait)
	}
	if lerr == nil && st.retired {
		// Unprotect ran while this cluster waited for its stripes: refuse,
		// and keep the dead record out of the bookkeeping.
		st.stripes.release(c.lo, c.hi)
		t.st = nil
	}
	if lerr != nil || t.st == nil {
		for _, i := range members {
			var err error
			if lerr != nil {
				err = fmt.Errorf("%w: %s[%d]: waiting for recovery lock: %v", ErrRecoveryAbandoned, t.name, ms[i].off, lerr)
			} else {
				err = errNotProtected(t, ms[i].off)
			}
			out, ferr := e.finishRecovery(t, &ms[i], ladderResult{}, err)
			b.deliver(results, i, out, ferr)
		}
		return
	}
	defer st.stripes.release(c.lo, c.hi)
	// One pooled Env for the whole cluster: the mask is live, the shared
	// statistics are frozen, and the scratch buffers amortize across
	// members. It is reset to each member's seed, restoring that member's
	// private random stream.
	env := st.env(ms[members[0]].seed)
	defer st.envs.Put(env)
	for k := range members {
		if e.opts.FrontierBatch {
			frontierPick(env, t.arr, ms, members[k:])
		}
		i := members[k]
		if k > 0 {
			env.Reset(ms[i].seed)
			clk = time.Now()
		}
		res, err := e.reconstruct(b.ctx, t, ms[i].off, env, ms[i].tr, clk)
		out, ferr := e.finishRecovery(t, &ms[i], res, err)
		b.deliver(results, i, out, ferr)
	}
}

// errNotProtected is the failure of a member whose allocation is not (or
// no longer) protected.
func errNotProtected(t target, off int) error {
	return fmt.Errorf("%w: %s[%d]: allocation not protected", ErrCheckpointRestartRequired, t.name, off)
}

// recoverBatch is the recovery runner behind every entry point. It fills
// results, indexed like offsets.
func (e *Engine) recoverBatch(ctx context.Context, t target, offsets []int, traces []*trace.Trace, results []BatchResult) {
	n := len(offsets)
	if n == 0 {
		return
	}
	if n > 1 {
		e.observeBatch(n)
	}
	// A registered allocation must still have its record; checkpoint-library
	// datasets get theirs on first repair.
	if t.alloc != nil {
		t.st = e.state(t.arr)
	} else {
		t.st = e.stateFor(t.arr)
	}
	// A batch of one keeps its bookkeeping on the stack.
	var oneM [1]member
	var oneL [1]int
	ms, live := oneM[:], oneL[:0] // live: in-range members, submission order
	if n > 1 {
		ms, live = make([]member, n), make([]int, 0, n)
	}
	born := time.Now() // one birth instant shared by every owned member
	for i, off := range offsets {
		m := &ms[i]
		m.off = off
		results[i].Offset = off
		if i < len(traces) {
			m.tr = traces[i]
		}
		if m.tr == nil {
			m.tr, m.owned = trace.GetPooledAt(born), true
		}
		// Seeds are drawn in submission order, exactly as a loop of
		// single-element recoveries would have drawn them.
		m.seed = e.nextSeed()
		var err error
		if t.st == nil {
			err = errNotProtected(t, off)
		} else if off < 0 || off >= t.arr.Len() {
			err = fmt.Errorf("%w: offset %d out of range", ErrCheckpointRestartRequired, off)
		}
		if err != nil {
			results[i].Outcome, results[i].Err = e.finishRecovery(t, m, ladderResult{}, err)
			m.done = true
			continue
		}
		live = append(live, i)
	}
	if len(live) == 0 {
		return
	}
	if len(live) > 1 {
		// Quarantine every member before any recovers (a lone member is
		// quarantined by its own climb, under its stripe locks).
		quarantine := offsets
		if len(live) < n {
			quarantine = make([]int, len(live))
			for k, i := range live {
				quarantine[k] = offsets[i]
			}
		}
		t.st.markQuarantinedAll(quarantine)
	}

	var one [1]cluster
	clusters := t.st.stripes.clusters(one[:0], ms, live)
	if len(clusters) == 1 && ctx.Done() == nil {
		// Single cluster, nothing to abandon: run inline, no goroutine.
		b := batch{e: e, ctx: ctx, t: t}
		b.run(clusters[0], ms, live, results)
		return
	}
	if len(clusters) > 1 {
		// Force the shared-statistics build now, on this goroutine, so the
		// O(N) snapshot scan is not raced for inside the clusters.
		t.st.shared.Prepare()
	}
	// The cluster goroutines get heap copies of the member state, which
	// keeps the batch-of-one buffers above on the stack. Buffered so
	// background clusters finishing after abandonment never block on a
	// collector that has already returned.
	b := &batch{e: e, ctx: ctx, t: t, resCh: make(chan memberResult, len(live))}
	hms, hlive := slices.Clone(ms), slices.Clone(live)
	for _, c := range clusters {
		go b.run(c, hms, hlive, nil)
	}
	for pending := len(live); pending > 0; pending-- {
		select {
		case r := <-b.resCh:
			results[r.i].Outcome, results[r.i].Err = r.out, r.err
			ms[r.i].done = true
		case <-ctx.Done():
			for i, off := range offsets {
				if !ms[i].done {
					results[i].Err = fmt.Errorf("%w: %s[%d]: %v", ErrRecoveryAbandoned, t.name, off, ctx.Err())
				}
			}
			return
		}
	}
}

// clusters groups the live members by stripe-range connectivity: two
// members conflict iff their three-stripe lock ranges overlap, i.e. their
// stripes are within 2 of each other, and such stripes chain into one
// cluster. live is reordered in place so each cluster's members are one
// run of it, in submission order; the clusters are appended to dst in
// stripe order.
func (ss *stripeSet) clusters(dst []cluster, ms []member, live []int) []cluster {
	stripe := func(i int) int { return ss.stripeOf(ms[i].off) }
	if len(live) > 1 {
		slices.SortStableFunc(live, func(a, b int) int { return cmp.Compare(stripe(a), stripe(b)) })
	}
	clusters := dst
	start := 0
	for k := 1; k <= len(live); k++ {
		if k < len(live) && stripe(live[k])-stripe(live[k-1]) <= 2 {
			continue
		}
		members := live[start:k]
		lo, _ := ss.rangeFor(ms[members[0]].off)
		_, hi := ss.rangeFor(ms[members[len(members)-1]].off)
		slices.Sort(members) // back to submission order
		clusters = append(clusters, cluster{from: start, to: k, lo: lo, hi: hi})
		start = k
	}
	return clusters
}

// frontierPick moves to the front of pending the member with the most
// healthy face neighbors (FrontierBatch ordering). Earlier repairs release
// quarantine, so interior cells gain healthy neighbors as the frontier
// advances; ties keep submission order. Each member keeps its own
// pre-assigned seed.
func frontierPick(env *predict.Env, arr *ndarray.Array, ms []member, pending []int) {
	best, bestN := 0, frontierHealthy(env, arr, ms[pending[0]].off)
	for j := 1; j < len(pending); j++ {
		if hn := frontierHealthy(env, arr, ms[pending[j]].off); hn > bestN {
			best, bestN = j, hn
		}
	}
	if best != 0 {
		picked := pending[best]
		copy(pending[1:best+1], pending[:best])
		pending[0] = picked
	}
}

// frontierHealthy counts the healthy (in-bounds, unquarantined) face
// neighbors of the element at off — the FrontierBatch ordering key. Called
// only on the opt-in frontier path, so the per-call coordinate scratch is
// off the default batch hot path.
func frontierHealthy(env *predict.Env, arr *ndarray.Array, off int) int {
	idx := make([]int, arr.NumDims())
	nb := make([]int, arr.NumDims())
	arr.CoordsInto(idx, off)
	copy(nb, idx)
	n := 0
	for d := 0; d < arr.NumDims(); d++ {
		for _, delta := range [2]int{-1, 1} {
			nb[d] = idx[d] + delta
			if nb[d] >= 0 && nb[d] < arr.Dim(d) && !env.Masked(arr.Offset(nb...)) {
				n++
			}
		}
		nb[d] = idx[d]
	}
	return n
}

// finishRecovery applies one member's post-climb bookkeeping (counters,
// audit trail, spatial analytics, trace annotation) and, when the engine
// minted the member's trace, finishes and recycles it.
func (e *Engine) finishRecovery(t target, m *member, res ladderResult, err error) (Outcome, error) {
	off, tr := m.off, m.tr
	if m.owned {
		defer func() {
			e.tracer.Finish(tr)
			trace.Recycle(tr)
		}()
	}
	if err != nil {
		tr.SetResult(t.name, t.tenant, off, false, err.Error())
		e.mu.Lock()
		e.stats.Fallbacks++
		e.mu.Unlock()
		if errors.Is(err, ErrCheckpointRestartRequired) {
			e.recordSpatial(t.st, off, res, false)
		}
		e.audit.record(AuditEntry{Alloc: t.name, Offset: off, Err: err.Error()})
		return Outcome{}, err
	}
	e.recordSpatial(t.st, off, res, true)
	e.mu.Lock()
	e.stats.Recovered++
	if res.tuned {
		e.stats.Tuned++
	}
	e.byMethod[res.method]++
	// Outcome details are drawn from a tiny method x stage set; memoizing
	// them keeps fmt.Sprintf off the recovery hot path.
	detail, ok := e.outcomes[outcomeKey{res.method, res.stage}]
	if !ok {
		detail = fmt.Sprintf("method=%v stage=%v", res.method, res.stage)
		e.outcomes[outcomeKey{res.method, res.stage}] = detail
	}
	e.mu.Unlock()
	tr.SetResult(t.name, t.tenant, off, true, detail)
	e.audit.record(AuditEntry{
		Alloc: t.name, Offset: off, Method: res.method, Tuned: res.tuned,
		Stage: res.stage, Old: res.old, New: res.value, OK: true,
	})
	return Outcome{
		Allocation: t.alloc, Offset: off, Method: res.method, Tuned: res.tuned,
		Stage: res.stage, Old: res.old, New: res.value,
	}, nil
}
