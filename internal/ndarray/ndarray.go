// Package ndarray provides a dense, row-major, N-dimensional array of
// float64 values. It is the storage substrate shared by every other package
// in this repository: datasets are ndarrays, fault injection flips bits of
// ndarray elements, the spatial predictors read ndarray neighborhoods, and
// the checkpoint library serializes ndarrays.
//
// The layout is row-major ("C order"): the last dimension varies fastest.
// This matches the paper's convention, where index i is the slowest-changing
// dimension and j the fastest (Table 1 of the paper).
package ndarray

import (
	"errors"
	"fmt"
	"math"
)

// ErrShape is returned when a set of dimensions is invalid (empty, zero, or
// negative) or does not match a data slice.
var ErrShape = errors.New("ndarray: invalid shape")

// ErrBounds is returned by the Try* accessors when an index is out of range.
var ErrBounds = errors.New("ndarray: index out of bounds")

// Array is a dense N-dimensional array of float64 in row-major order.
//
// The zero value is not usable; construct arrays with New or FromData.
// Methods that take a multi-dimensional index accept exactly NumDims
// integers; the hot-path accessors (At, Set, Offset) panic on violations the
// same way built-in slice indexing does, while the Try variants return
// ErrBounds instead.
type Array struct {
	data    []float64
	backing Backing
	dims    []int
	strides []int
}

// New allocates a zero-filled array with the given dimensions.
func New(dims ...int) *Array {
	a, err := TryNew(dims...)
	if err != nil {
		panic(err)
	}
	return a
}

// TryNew is New returning an error instead of panicking on a bad shape.
func TryNew(dims ...int) (*Array, error) {
	n, err := checkDims(dims)
	if err != nil {
		return nil, err
	}
	b := &heapBacking{data: make([]float64, n)}
	return &Array{
		data:    b.data,
		backing: b,
		dims:    append([]int(nil), dims...),
		strides: computeStrides(dims),
	}, nil
}

// FromData wraps an existing slice as an array with the given dimensions.
// The slice is used directly (not copied); len(data) must equal the product
// of the dimensions.
func FromData(data []float64, dims ...int) (*Array, error) {
	n, err := checkDims(dims)
	if err != nil {
		return nil, err
	}
	if len(data) != n {
		return nil, fmt.Errorf("%w: data length %d != product of dims %d", ErrShape, len(data), n)
	}
	return &Array{
		data:    data,
		backing: &heapBacking{data: data},
		dims:    append([]int(nil), dims...),
		strides: computeStrides(dims),
	}, nil
}

// NewWithBacking builds an array over an externally managed Backing (e.g. an
// mmap-backed file store). The backing's slice length must equal the product
// of the dimensions. The array takes ownership of the backing for Seal,
// Advise, and Close purposes but never closes it itself.
func NewWithBacking(b Backing, dims ...int) (*Array, error) {
	n, err := checkDims(dims)
	if err != nil {
		return nil, err
	}
	if len(b.Slice()) != n {
		return nil, fmt.Errorf("%w: backing length %d != product of dims %d", ErrShape, len(b.Slice()), n)
	}
	return &Array{
		data:    b.Slice(),
		backing: b,
		dims:    append([]int(nil), dims...),
		strides: computeStrides(dims),
	}, nil
}

func checkDims(dims []int) (int, error) {
	if len(dims) == 0 {
		return 0, fmt.Errorf("%w: no dimensions", ErrShape)
	}
	n := 1
	for _, d := range dims {
		if d <= 0 {
			return 0, fmt.Errorf("%w: dimension %d", ErrShape, d)
		}
		if n > math.MaxInt/d {
			return 0, fmt.Errorf("%w: size overflow", ErrShape)
		}
		n *= d
	}
	return n, nil
}

func computeStrides(dims []int) []int {
	strides := make([]int, len(dims))
	s := 1
	for i := len(dims) - 1; i >= 0; i-- {
		strides[i] = s
		s *= dims[i]
	}
	return strides
}

// Len returns the total number of elements.
func (a *Array) Len() int { return len(a.data) }

// NumDims returns the number of dimensions.
func (a *Array) NumDims() int { return len(a.dims) }

// Dims returns a copy of the dimension sizes.
func (a *Array) Dims() []int { return append([]int(nil), a.dims...) }

// Dim returns the size of dimension d.
func (a *Array) Dim(d int) int { return a.dims[d] }

// Strides returns a copy of the row-major strides.
func (a *Array) Strides() []int { return append([]int(nil), a.strides...) }

// Data returns the backing slice in row-major order. Mutating it mutates the
// array. This is the zero-copy path used by fault injection and
// checkpointing.
func (a *Array) Data() []float64 { return a.data }

// Offset converts a multi-dimensional index to a linear offset. It panics if
// the index has the wrong arity or is out of bounds.
func (a *Array) Offset(idx ...int) int {
	off, err := a.TryOffset(idx...)
	if err != nil {
		panic(err)
	}
	return off
}

// TryOffset is Offset returning ErrBounds instead of panicking.
func (a *Array) TryOffset(idx ...int) (int, error) {
	if len(idx) != len(a.dims) {
		return 0, fmt.Errorf("%w: got %d indices for %d dims", ErrBounds, len(idx), len(a.dims))
	}
	off := 0
	for d, i := range idx {
		if i < 0 || i >= a.dims[d] {
			return 0, fmt.Errorf("%w: index %d out of [0,%d) in dim %d", ErrBounds, i, a.dims[d], d)
		}
		off += i * a.strides[d]
	}
	return off, nil
}

// Coords converts a linear offset into a freshly allocated index vector.
func (a *Array) Coords(off int) []int {
	idx := make([]int, len(a.dims))
	a.CoordsInto(idx, off)
	return idx
}

// CoordsInto writes the multi-dimensional index of linear offset off into
// dst, which must have length NumDims. It panics if off is out of range.
func (a *Array) CoordsInto(dst []int, off int) {
	if off < 0 || off >= len(a.data) {
		panic(fmt.Errorf("%w: offset %d out of [0,%d)", ErrBounds, off, len(a.data)))
	}
	if len(dst) != len(a.dims) {
		panic(fmt.Errorf("%w: dst length %d != %d dims", ErrBounds, len(dst), len(a.dims)))
	}
	for d := 0; d < len(a.dims); d++ {
		dst[d] = off / a.strides[d]
		off %= a.strides[d]
	}
}

// InBounds reports whether idx is a valid index (correct arity, all
// coordinates in range).
func (a *Array) InBounds(idx ...int) bool {
	if len(idx) != len(a.dims) {
		return false
	}
	for d, i := range idx {
		if i < 0 || i >= a.dims[d] {
			return false
		}
	}
	return true
}

// At returns the element at the given multi-dimensional index.
func (a *Array) At(idx ...int) float64 { return a.data[a.Offset(idx...)] }

// Set stores v at the given multi-dimensional index.
func (a *Array) Set(v float64, idx ...int) { a.data[a.Offset(idx...)] = v }

// AtOffset returns the element at linear offset off.
func (a *Array) AtOffset(off int) float64 { return a.data[off] }

// SetOffset stores v at linear offset off.
func (a *Array) SetOffset(off int, v float64) { a.data[off] = v }

// Clone returns a deep copy of the array's values. The clone always lives on
// the heap regardless of the source backing (cloning an mmap-backed array
// must not create a second file), and shares the immutable dims/strides
// slices with the source so the only allocations are the copied data, the
// backing wrapper, and the Array struct itself.
func (a *Array) Clone() *Array {
	b := a.backing.CloneData()
	return &Array{
		data:    b.Slice(),
		backing: b,
		dims:    a.dims,
		strides: a.strides,
	}
}

// CopyFrom copies the contents of src, which must have identical dimensions.
func (a *Array) CopyFrom(src *Array) error {
	if !SameShape(a, src) {
		return fmt.Errorf("%w: shape mismatch %v vs %v", ErrShape, a.dims, src.dims)
	}
	copy(a.data, src.data)
	return nil
}

// SameShape reports whether two arrays have identical dimensions.
func SameShape(a, b *Array) bool {
	if a.NumDims() != b.NumDims() {
		return false
	}
	for d := range a.dims {
		if a.dims[d] != b.dims[d] {
			return false
		}
	}
	return true
}

// Fill sets every element to v.
func (a *Array) Fill(v float64) {
	for i := range a.data {
		a.data[i] = v
	}
}

// FillFunc sets every element to f(idx). The index slice passed to f is
// reused between calls; f must not retain it.
func (a *Array) FillFunc(f func(idx []int) float64) {
	idx := make([]int, len(a.dims))
	for off := range a.data {
		a.CoordsInto(idx, off)
		a.data[off] = f(idx)
	}
}

// MinMax returns the minimum and maximum element values, ignoring NaNs.
// If every element is NaN it returns (NaN, NaN).
func (a *Array) MinMax() (min, max float64) {
	min, max = math.NaN(), math.NaN()
	for _, v := range a.data {
		if math.IsNaN(v) {
			continue
		}
		if math.IsNaN(min) || v < min {
			min = v
		}
		if math.IsNaN(max) || v > max {
			max = v
		}
	}
	return min, max
}

// ValueRange returns max - min (the dynamic range used to scale the Random
// predictor and the SDC detectors). It returns 0 for all-NaN arrays.
func (a *Array) ValueRange() float64 {
	min, max := a.MinMax()
	if math.IsNaN(min) || math.IsNaN(max) {
		return 0
	}
	return max - min
}

// Mean returns the arithmetic mean of all elements.
func (a *Array) Mean() float64 {
	sum := 0.0
	for _, v := range a.data {
		sum += v
	}
	return sum / float64(len(a.data))
}

// Std returns the population standard deviation of all elements.
func (a *Array) Std() float64 {
	m := a.Mean()
	ss := 0.0
	for _, v := range a.data {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(a.data)))
}

// ApproxEqual reports whether the two arrays have the same shape and every
// pair of elements differs by at most tol (absolute). NaNs compare equal to
// NaNs.
func ApproxEqual(a, b *Array, tol float64) bool {
	if !SameShape(a, b) {
		return false
	}
	for i := range a.data {
		x, y := a.data[i], b.data[i]
		if math.IsNaN(x) && math.IsNaN(y) {
			continue
		}
		if math.Abs(x-y) > tol {
			return false
		}
	}
	return true
}

// ClampIndex copies idx into dst with each coordinate clamped into bounds.
// dst and idx may alias.
func (a *Array) ClampIndex(dst, idx []int) {
	for d := range a.dims {
		i := idx[d]
		if i < 0 {
			i = 0
		}
		if i >= a.dims[d] {
			i = a.dims[d] - 1
		}
		dst[d] = i
	}
}

// ForEachInPatch calls f for every in-bounds index within Chebyshev distance
// radius of center (a hyper-cube patch of side 2*radius+1 clipped to the
// array bounds), including center itself. The idx slice passed to f is
// reused across calls; f must not retain it. f receives the linear offset as
// well so callers can read/write without recomputing it.
func (a *Array) ForEachInPatch(center []int, radius int, f func(idx []int, off int)) {
	a.ForEachInPatchInto(make([]int, len(a.dims)), center, radius, f)
}

// ForEachInPatchInto is ForEachInPatch walking in the caller's buffer idx
// (at least NumDims long), which is the slice f receives, so the walk
// allocates nothing. center must not change while the walk runs.
func (a *Array) ForEachInPatchInto(idx, center []int, radius int, f func(idx []int, off int)) {
	if len(center) != len(a.dims) {
		panic(fmt.Errorf("%w: center arity %d != %d dims", ErrBounds, len(center), len(a.dims)))
	}
	idx = idx[:len(a.dims)]
	for d := range a.dims {
		lo, hi := a.patchBounds(center, radius, d)
		if lo > hi {
			return // center out of bounds far enough that the patch is empty
		}
		idx[d] = lo
	}
	for {
		off := 0
		for d := range idx {
			off += idx[d] * a.strides[d]
		}
		f(idx, off)
		// Odometer increment over the patch box.
		d := len(idx) - 1
		for d >= 0 {
			lo, hi := a.patchBounds(center, radius, d)
			idx[d]++
			if idx[d] <= hi {
				break
			}
			idx[d] = lo
			d--
		}
		if d < 0 {
			return
		}
	}
}

// patchBounds clips dimension d of the patch of the given radius around
// center to the array.
func (a *Array) patchBounds(center []int, radius, d int) (lo, hi int) {
	lo, hi = center[d]-radius, center[d]+radius
	if lo < 0 {
		lo = 0
	}
	if hi > a.dims[d]-1 {
		hi = a.dims[d] - 1
	}
	return lo, hi
}

// String returns a short human-readable description, e.g. "ndarray[100x500x500]".
func (a *Array) String() string {
	s := "ndarray["
	for d, n := range a.dims {
		if d > 0 {
			s += "x"
		}
		s += fmt.Sprint(n)
	}
	return s + "]"
}
