package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"sync"
	"time"

	"spatialdue/internal/bitflip"
	"spatialdue/internal/core"
	"spatialdue/internal/predict"
	"spatialdue/internal/registry"
	"spatialdue/internal/sdrbench"
	"spatialdue/internal/trace"
)

// embedded is the paper's own deployment: a closed loop of ranks, each
// with its own zero-option engine protecting one sdrbench dataset per
// application, planting one bit flip per step and calling RecoverAddress.
// The tuned workload is the same loop under RECOVER_ANY.
//
// After each recovery, outside the timed call, the rank writes the
// pre-fault value back. Every DUE then meets the original data, as in the
// paper's campaigns. Without that, repeated reconstructions would roughen
// the fields over a run, and accuracy and speed would drift with the run's
// length and the host's speed.
type embedded struct {
	ranks []*rank
}

// rank is one closed-loop goroutine and everything it owns.
type rank struct {
	eng     *core.Engine
	recover func(addr uint64) (core.Outcome, error) // eng.RecoverAddress
	allocs  []*registry.Allocation
	orig    [][]float64
	rng     *rand.Rand
	steps   int
	until   int         // steps whose recovered values the digest covers
	digest  hash.Hash64 // valbits of the first until recovered values
}

func setupEmbedded(cfg config, rep int, spans *spanLog) (instance, error) {
	return newEmbedded(cfg, registry.RecoverWith(predict.MethodLorenzo1), spans)
}

func setupTuned(cfg config, rep int, spans *spanLog) (instance, error) {
	return newEmbedded(cfg, registry.RecoverAny(), spans)
}

func newEmbedded(cfg config, policy registry.Policy, spans *spanLog) (*embedded, error) {
	scale := sdrbench.ScaleSmall
	if cfg.shape.small {
		scale = sdrbench.ScaleTiny
	}
	w := &embedded{}
	for g := 0; g < cfg.shape.ranks; g++ {
		t0 := time.Now()
		eng := core.NewEngine(core.Options{})
		r := &rank{
			eng:     eng,
			recover: eng.RecoverAddress,
			rng:     rand.New(rand.NewSource(cfg.seed*7919 + int64(g))),
			until:   cfg.shape.digestSteps,
			digest:  fnv.New64a(),
		}
		for _, app := range sdrbench.Apps() {
			names := sdrbench.Names(app)
			ds := sdrbench.Generate(app, names[g%len(names)], scale)
			a := eng.Protect(ds.App.String()+"/"+ds.Name, ds.Array, ds.DType, policy)
			r.allocs = append(r.allocs, a)
			r.orig = append(r.orig, append([]float64(nil), ds.Array.Data()...))
		}
		spans.add("setup.rank", "", "", t0, time.Now())
		w.ranks = append(w.ranks, r)
	}
	return w, nil
}

// stepResult is one planted and recovered DUE.
type stepResult struct {
	t0       time.Time     // start of the RecoverAddress call
	lat      time.Duration // its latency
	got, pre float64       // the reported and the pre-fault value
	stored   bool          // the cell holds got after the call
	err      error
}

// step plants one seeded bit flip, recovers it, checks that the cell holds
// the reported value, and restores the pre-fault value.
func (r *rank) step() stepResult {
	i := r.rng.Intn(len(r.allocs))
	a := r.allocs[i]
	off := r.rng.Intn(a.Array.Len())
	bit := r.rng.Intn(a.DType.Bits())
	s := stepResult{pre: a.Array.AtOffset(off)}
	a.Array.SetOffset(off, bitflip.Flip(s.pre, a.DType, bit))
	s.t0 = time.Now()
	out, err := r.recover(a.AddrOf(off))
	s.lat = time.Since(s.t0)
	cell := math.Float64bits(a.Array.AtOffset(off))
	s.got, s.err, s.stored = out.New, err, cell == math.Float64bits(out.New)
	if r.steps < r.until {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], cell)
		r.digest.Write(b[:])
	}
	r.steps++
	a.Array.SetOffset(off, s.pre)
	return s
}

func (w *embedded) engines() []*core.Engine {
	engs := make([]*core.Engine, len(w.ranks))
	for i, r := range w.ranks {
		engs[i] = r.eng
	}
	return engs
}

func (w *embedded) run(d time.Duration, record bool, spans *spanLog) (phaseResult, error) {
	before := takeSnapshot(w.engines(), nil)
	results := make([]phaseResult, len(w.ranks))
	for i := range results {
		results[i] = newPhase(d)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for g, r := range w.ranks {
		wg.Add(1)
		go func(r *rank, res *phaseResult) {
			defer wg.Done()
			var prevEnd time.Time
			for time.Since(start) < d {
				s := r.step()
				if !record {
					continue
				}
				spans.add("core.RecoverAddress", "", "", s.t0, s.t0.Add(s.lat))
				if !prevEnd.IsZero() {
					res.genLate.add(ms(s.t0.Sub(prevEnd)))
				}
				prevEnd = s.t0.Add(s.lat)
				res.attempted++
				switch {
				case s.err != nil:
					res.fail(s.err.Error())
				case !s.stored:
					res.misstored++
					res.fail(fmt.Sprintf("reported %v, but the cell holds another value", s.got))
				default:
					res.observe(ms(s.lat), prevEnd.Sub(start).Seconds(), s.got, s.pre)
				}
			}
		}(r, &results[g])
	}
	wg.Wait()
	total := newPhase(d)
	for _, res := range results {
		total.add(res)
	}
	total.delta = takeSnapshot(w.engines(), nil).sub(before)
	return total, nil
}

// digest finishes the digest steps if fewer have run and returns the
// digest of the first recovered values of every rank.
func (w *embedded) digest() *uint64 {
	h := fnv.New64a()
	for _, r := range w.ranks {
		for r.steps < r.until {
			r.step()
		}
		fmt.Fprintf(h, "%016x", r.digest.Sum64())
	}
	d := h.Sum64()
	return &d
}

// check verifies that the quarantine is empty and that every field equals
// its original: DUE cells were written back, so any other difference is a
// stray write.
func (w *embedded) check(out io.Writer) []string {
	var problems []string
	for g, r := range w.ranks {
		if n := r.eng.QuarantineCount(); n != 0 {
			problems = append(problems, fmt.Sprintf("rank %d: %d cells still quarantined", g, n))
		}
		for i, a := range r.allocs {
			stray := 0
			for off, v := range a.Array.Data() {
				if math.Float64bits(v) != math.Float64bits(r.orig[i][off]) {
					stray++
				}
			}
			if stray > 0 {
				problems = append(problems, fmt.Sprintf("rank %d %s: %d cells differ from the original field", g, a.Name, stray))
			}
		}
	}
	return problems
}

func (w *embedded) journalBytesPerRecovery() float64 { return 0 }

func (w *embedded) slowTraces() []trace.Summary {
	var out []trace.Summary
	for _, r := range w.ranks {
		out = append(out, r.eng.Tracer().Top()...)
	}
	return out
}

func (w *embedded) close() error { return nil }
