// Package predict implements the spatial prediction algorithms of Section
// 3.4 of the paper: Zero, Random, Average, the three linearized curve-fit
// predictors (preceding-neighbor, linear, quadratic), the multi-dimensional
// Lorenzo predictors (1 to 4 layers, with all 2^d orientations and automatic
// boundary fallback), global linear regression (SZ-2.0 style), local linear
// regression over a ±3-layer patch, and Lagrange polynomial interpolation.
//
// Every predictor reconstructs the value of a single corrupted array element
// from its spatial neighbors. The corrupted element itself is never read:
// by the experiment contract (Section 4.2), exactly one element is corrupted
// and its location is known, so all other elements are trustworthy.
package predict

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"spatialdue/internal/ndarray"
)

// ErrUnsupported is returned when a predictor cannot be applied at a given
// location (for example, a stencil that does not fit inside the array in any
// orientation).
var ErrUnsupported = errors.New("predict: method unsupported at this location")

// MaxStencilReach is the largest Chebyshev distance, along any single
// dimension, between a predicted element and any element a predictor may
// read. It bounds every stencil in the package:
//
//	Lorenzo (Layers <= 4)        4
//	LorenzoAuto (probe 2 + 3)    5
//	LocalRegression (Radius 3)   3
//	CurveFit (order 2, linear)   3 linearized elements (<= 1 row)
//	Lagrange (default +-2)       2; nearest-fit fallback capped here
//
// Concurrency control (the lock-striped recovery engine in internal/core)
// relies on this bound to prove that recoveries in non-adjacent stripes
// never read each other's neighborhoods, so any new or widened stencil must
// keep within it (or raise it and let the stripe width grow).
const MaxStencilReach = 8

// Env bundles a dataset with the per-dataset state the predictors need:
// the value range (for the Random method), a deterministic random source,
// and an optional cache of global regression moments.
//
// Env snapshots dataset-wide statistics at creation time. The fault
// injection campaigns keep the underlying array pristine (they never write
// the corrupted value into it; predictors are forbidden from reading the
// target element anyway), which keeps the cached statistics exact. Code that
// recovers a genuinely corrupted in-place array (internal/core) must create
// the Env after the corruption and must not call Precompute, so that global
// regression performs an honest full scan that skips the corrupted element.
//
// Seeding is lazy: an Env stores its seed and builds the math/rand source
// only when Rand is first called (only the Random method draws), so an Env
// whose predictions never draw costs no source seeding at all. The stream
// is the rand.NewSource(seed) stream either way.
//
// Pooling. An Env is single-goroutine, but it can be reused: Reset(seed)
// returns it to the state of a fresh Env with the same array, mask
// predicate and shared statistics, keeping its scratch buffers. The
// recovery engine keeps a pool of Envs per protected array, already bound
// to the array's quarantine mask and shared statistics, and Resets one per
// recovery instead of building a new one.
type Env struct {
	A *ndarray.Array

	seed   int64
	rng    *rand.Rand // built from seed on first Rand call
	seeded bool       // rng's stream was started from seed

	rangeOK  bool
	min, max float64
	mom      *Moments // non-nil after Precompute

	// Mask state: offsets whose stored values are known-garbage (e.g.
	// quarantined multi-DUE neighbors) and must not feed any stencil.
	masked   map[int]bool
	allowed  map[int]bool       // overrides masked and maskFn (seeded cells)
	maskFn   func(off int) bool // live predicate (engine quarantine set)
	haveMask bool

	// shared, when set, supplies the array-wide statistics (value range,
	// global-regression moments) from an engine-maintained SharedStats
	// instead of per-Env O(N) scans.
	shared *SharedStats

	// Reusable kernel buffers; see scratch.
	sc scratch
}

// scratch holds the per-Env buffers that keep the predictor kernels
// allocation-free on the hot path. An Env is single-goroutine; nested
// predictor calls (LorenzoAuto probing Lorenzo, autotune probing everything)
// use disjoint fields so reuse is safe.
type scratch struct {
	// Lorenzo's four per-dimension int buffers and two flag buffers; see
	// lorenzoBufs. The fixed arrays serve arrays of up to lorSmallDims
	// dimensions, so even a fresh Env's Lorenzo prediction allocates
	// nothing.
	lorInts         [4 * lorSmallDims]int
	lorFlags        [2 * lorSmallDims]bool
	lorBigInts      []int
	lorBigFlags     []bool
	probeIdx        []int // LorenzoAuto probe coordinates
	lagNb, lagNodes []int // Lagrange neighbor index / fallback nodes
	avgNb           []int // Average neighbor index
	regIdx          []int // GlobalRegression scan coordinates
	patch           []int // ForEachInPatch walk coordinates
	coords          []int // Coords result
	phi, xtx, xtv   []float64
	solveM, solveX  []float64
}

// lorSmallDims is the largest dimension count whose Lorenzo buffers live
// inside the Env.
const lorSmallDims = 4

// lorenzoBufs returns Lorenzo's buffers for a d-dimensional array: 4*d ints
// and 2*d flags.
func (sc *scratch) lorenzoBufs(d int) ([]int, []bool) {
	if d <= lorSmallDims {
		return sc.lorInts[:4*d], sc.lorFlags[:2*d]
	}
	return intBuf(&sc.lorBigInts, 4*d), boolBuf(&sc.lorBigFlags, 2*d)
}

// intBuf returns *buf resized (reallocating only on growth) to n elements.
func intBuf(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	return (*buf)[:n]
}

func floatBuf(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	return (*buf)[:n]
}

func boolBuf(buf *[]bool, n int) []bool {
	if cap(*buf) < n {
		*buf = make([]bool, n)
	}
	return (*buf)[:n]
}

// NewEnv wraps a dataset with a deterministic random source. Dataset-wide
// statistics (the value range, the regression moments) are computed lazily
// or on request, and so is the random source, so predictors that need none
// of them stay O(1).
func NewEnv(a *ndarray.Array, seed int64) *Env {
	return &Env{A: a, seed: seed}
}

// SetShared attaches engine-maintained array-wide statistics. While set,
// Range and GlobalRegression read the SharedStats (incrementally maintained,
// O(1) per query) instead of scanning the array per Env — the fix for every
// fresh Env paying an O(N) masked rescan. The shared state's exclusion set
// must cover at least the cells this Env's mask hides (the engine guarantees
// this: both are fed from the quarantine set).
func (e *Env) SetShared(s *SharedStats) { e.shared = s }

// Rand returns the Env's random source, starting the seed's stream on the
// first call after NewEnv, Reseed or Reset.
func (e *Env) Rand() *rand.Rand {
	if !e.seeded {
		if e.rng == nil {
			e.rng = rand.New(rand.NewSource(e.seed))
		} else {
			e.rng.Seed(e.seed)
		}
		e.seeded = true
	}
	return e.rng
}

// Reseed restarts the random source at the same deterministic stream
// NewEnv(a, seed) would produce. Only the seed is stored; the source is
// reseeded when Rand next asks for it.
func (e *Env) Reseed(seed int64) { e.seed, e.seeded = seed, false }

// Reset returns a reused Env to the state of a fresh one over the same
// array — NewEnv(e.A, seed) followed by the SetMaskFunc and SetShared calls
// it was set up with: Mask and Allow state, the cached range and any
// precomputed moments are dropped, and the random source restarts at
// seed's stream. The mask predicate, shared statistics and scratch buffers
// are kept.
func (e *Env) Reset(seed int64) {
	e.Reseed(seed)
	e.rangeOK = false
	e.mom = nil
	e.masked, e.allowed = nil, nil
	e.haveMask = e.maskFn != nil
}

// Coords returns the coordinates of linear offset off in an Env-owned
// buffer, valid until the next Coords call on this Env. Predictors never
// call it, so the result can be passed to them as the target index.
func (e *Env) Coords(off int) []int {
	idx := intBuf(&e.sc.coords, e.A.NumDims())
	e.A.CoordsInto(idx, off)
	return idx
}

// ForEachInPatch is ndarray's ForEachInPatch walking with the Env's scratch
// coordinates, so the walk allocates nothing. f must not start another
// patch walk on the same Env.
func (e *Env) ForEachInPatch(center []int, radius int, f func(idx []int, off int)) {
	e.A.ForEachInPatchInto(intBuf(&e.sc.patch, len(center)), center, radius, f)
}

// Range returns the dataset's (min, max), computing and caching it on first
// use — the Random predictor's bound (Section 3.4.2). Masked (quarantined)
// cells are excluded so known-garbage values cannot widen the range.
func (e *Env) Range() (min, max float64) {
	if e.shared != nil {
		return e.shared.Range()
	}
	if !e.rangeOK {
		if e.haveMask {
			e.min, e.max = math.NaN(), math.NaN()
			for off := 0; off < e.A.Len(); off++ {
				if e.Masked(off) {
					continue
				}
				v := e.A.AtOffset(off)
				if math.IsNaN(v) {
					continue
				}
				if math.IsNaN(e.min) || v < e.min {
					e.min = v
				}
				if math.IsNaN(e.max) || v > e.max {
					e.max = v
				}
			}
		} else {
			e.min, e.max = e.A.MinMax()
		}
		e.rangeOK = true
	}
	return e.min, e.max
}

// Mask marks offsets as unusable: no predictor will read their stored
// values. Used by the recovery engine to keep quarantined (corrupt but not
// yet repaired) cells out of every stencil, so a multi-element burst never
// feeds known-garbage neighbors into a reconstruction.
func (e *Env) Mask(offs ...int) {
	if e.masked == nil {
		e.masked = map[int]bool{}
	}
	for _, off := range offs {
		e.masked[off] = true
	}
	e.haveMask = true
	e.rangeOK = false
}

// Allow marks offsets as readable again even if Mask or the mask predicate
// covers them — used by burst recovery once a cell has been seeded with a
// provisional estimate and may participate in refining its neighbors.
func (e *Env) Allow(offs ...int) {
	if e.allowed == nil {
		e.allowed = map[int]bool{}
	}
	for _, off := range offs {
		e.allowed[off] = true
	}
	e.rangeOK = false
}

// SetMaskFunc installs a live mask predicate consulted on every read (in
// addition to any offsets passed to Mask). The recovery engine wires its
// quarantine set here so cells reported corrupt *while a recovery is in
// flight* are masked immediately.
func (e *Env) SetMaskFunc(fn func(off int) bool) {
	e.maskFn = fn
	e.haveMask = e.haveMask || fn != nil
	e.rangeOK = false
}

// Masked reports whether the value stored at off must not be used.
func (e *Env) Masked(off int) bool {
	if !e.haveMask || (e.allowed != nil && e.allowed[off]) {
		return false
	}
	if e.masked != nil && e.masked[off] {
		return true
	}
	return e.maskFn != nil && e.maskFn(off)
}

// HasMask reports whether any mask state is installed (used to decide
// whether precomputed global-regression moments are still trustworthy).
func (e *Env) HasMask() bool { return e.haveMask }

// Precompute builds the global regression moment cache in a single O(N)
// pass, turning every subsequent GlobalRegression prediction into O(1) work.
// It must only be called while the array holds pristine data, and the array
// must not be modified afterwards (see the Env contract above).
func (e *Env) Precompute() { e.mom = NewMoments(e.A) }

// HasMoments reports whether Precompute has run.
func (e *Env) HasMoments() bool { return e.mom != nil }

// InvalidateMoments drops the moment cache (used by tests and by callers
// that mutate the array).
func (e *Env) InvalidateMoments() { e.mom = nil }

// Predictor reconstructs the value at a corrupted index from its spatial
// neighbors. Implementations must not read the element at idx.
type Predictor interface {
	// Name returns the method name as used in the paper's figures.
	Name() string
	// Predict returns the reconstructed value for the element at idx.
	Predict(env *Env, idx []int) (float64, error)
}

// Method enumerates the reconstruction methods evaluated in the paper,
// in the order the figures present them.
type Method int

const (
	// MethodZero replaces the corrupted value with zero (Section 3.4.1).
	MethodZero Method = iota
	// MethodRandom draws a random value within the dataset range (3.4.2).
	MethodRandom
	// MethodAverage averages the immediate face neighbors in all
	// dimensions (3.4.3).
	MethodAverage
	// MethodPreceding assigns the linear predecessor (3.4.4).
	MethodPreceding
	// MethodLinear fits a line through two consecutive values (3.4.4).
	MethodLinear
	// MethodQuadratic fits a quadratic through three values (3.4.4).
	MethodQuadratic
	// MethodLorenzo1 is the 1-layer multi-dimensional Lorenzo predictor
	// (3.4.5) — the paper's best method.
	MethodLorenzo1
	// MethodLinReg is the global linear regression predictor (3.4.6).
	MethodLinReg
	// MethodLocalLinReg is linear regression over a ±3-layer patch (3.4.7).
	MethodLocalLinReg
	// MethodLagrange is degree-2 Lagrange interpolation over two preceding
	// and one succeeding value in the slowest dimension (3.4.8).
	MethodLagrange

	// NumMethods is the number of headline methods (those in the figures).
	NumMethods int = iota

	// Extension methods (not part of the paper's headline figures, used by
	// the ablation benchmarks): deeper Lorenzo predictors as in SZ.
	MethodLorenzo2 Method = iota
	MethodLorenzo3
	MethodLorenzo4
	// MethodLorenzoAuto probes layer depths 1-3 locally and uses the best
	// (SZ's layer customization applied to recovery).
	MethodLorenzoAuto
)

var methodNames = map[Method]string{
	MethodZero:        "Zero",
	MethodRandom:      "Random",
	MethodAverage:     "Average",
	MethodPreceding:   "Preceding",
	MethodLinear:      "Linear",
	MethodQuadratic:   "Quadratic",
	MethodLorenzo1:    "Lorenzo 1-Layer",
	MethodLinReg:      "Linear Regression",
	MethodLocalLinReg: "Local Linear Regression",
	MethodLagrange:    "Lagrange",
	MethodLorenzo2:    "Lorenzo 2-Layer",
	MethodLorenzo3:    "Lorenzo 3-Layer",
	MethodLorenzo4:    "Lorenzo 4-Layer",
	MethodLorenzoAuto: "Lorenzo Auto-Layer",
}

// String implements fmt.Stringer.
func (m Method) String() string {
	if s, ok := methodNames[m]; ok {
		return s
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// ParseMethod resolves a method by its figure name (case-sensitive).
func ParseMethod(name string) (Method, error) {
	for m, s := range methodNames {
		if s == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("predict: unknown method %q", name)
}

// New constructs the predictor implementing m with the paper's parameters.
func New(m Method) Predictor {
	switch m {
	case MethodZero:
		return Zero{}
	case MethodRandom:
		return Random{}
	case MethodAverage:
		return Average{}
	case MethodPreceding:
		return CurveFit{Order: 0}
	case MethodLinear:
		return CurveFit{Order: 1}
	case MethodQuadratic:
		return CurveFit{Order: 2}
	case MethodLorenzo1:
		return Lorenzo{Layers: 1}
	case MethodLorenzo2:
		return Lorenzo{Layers: 2}
	case MethodLorenzo3:
		return Lorenzo{Layers: 3}
	case MethodLorenzo4:
		return Lorenzo{Layers: 4}
	case MethodLorenzoAuto:
		return LorenzoAuto{}
	case MethodLinReg:
		return GlobalRegression{}
	case MethodLocalLinReg:
		return LocalRegression{Radius: 3}
	case MethodLagrange:
		return Lagrange{Offsets: []int{-2, -1, 1}}
	default:
		panic(fmt.Sprintf("predict: no constructor for %v", m))
	}
}

// HeadlineMethods returns the methods evaluated in the paper's figures, in
// figure order.
func HeadlineMethods() []Method {
	ms := make([]Method, NumMethods)
	for i := range ms {
		ms[i] = Method(i)
	}
	return ms
}

// HeadlinePredictors instantiates every headline method.
func HeadlinePredictors() []Predictor {
	ms := HeadlineMethods()
	ps := make([]Predictor, len(ms))
	for i, m := range ms {
		ps[i] = New(m)
	}
	return ps
}
