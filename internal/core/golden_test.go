package core_test

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"spatialdue/internal/bitflip"
	"spatialdue/internal/core"
	"spatialdue/internal/fti"
	"spatialdue/internal/ndarray"
	"spatialdue/internal/predict"
	"spatialdue/internal/registry"
	"spatialdue/internal/sdrbench"
	"spatialdue/internal/service"
)

// The golden digests pin the engine's recovered values across commits, not
// just across two runs of one build: each case recovers fixed-seed bit
// flips in one ScaleTiny dataset per application and folds the outcome
// values and the final arrays into an FNV-64a digest, compared against
// testdata/golden.json. Regenerate with
//
//	go test ./internal/core -run TestGoldenDigests -update
//
// only when a change is meant to alter recovered values, and say why.
var update = flag.Bool("update", false, "rewrite testdata/golden.json")

const (
	goldenPath  = "testdata/golden.json"
	goldenSeed  = 20231112
	goldenFlips = 16 // DUEs per dataset
)

// digest accumulates float64 bit patterns and small tags into FNV-64a.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d *digest) value(v float64) { d.u64(math.Float64bits(v)) }

// outcome folds one recovery result: failure flag, or method, stage and the
// written value.
func (d *digest) outcome(out core.Outcome, err error) {
	if err != nil {
		d.u64(1)
		return
	}
	d.u64(0)
	d.u64(uint64(out.Method))
	d.u64(uint64(out.Stage))
	d.value(out.New)
}

func (d *digest) array(a *ndarray.Array) {
	for off := 0; off < a.Len(); off++ {
		d.value(a.AtOffset(off))
	}
}

func (d *digest) hex() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

// goldenDatasets returns one fresh ScaleTiny dataset per application.
func goldenDatasets() []*sdrbench.Dataset {
	var out []*sdrbench.Dataset
	for _, app := range sdrbench.Apps() {
		out = append(out, sdrbench.Generate(app, sdrbench.Names(app)[0], sdrbench.ScaleTiny))
	}
	return out
}

// flip is one planned bit flip.
type flip struct{ off, bit int }

// planFlips draws n distinct offsets and bit positions for a dataset.
func planFlips(ds *sdrbench.Dataset, seed int64, n int) []flip {
	rng := rand.New(rand.NewSource(seed))
	seen := map[int]bool{}
	var out []flip
	for len(out) < n {
		off := rng.Intn(ds.Array.Len())
		bit := rng.Intn(ds.DType.Bits())
		if seen[off] {
			continue
		}
		seen[off] = true
		out = append(out, flip{off, bit})
	}
	return out
}

func (f flip) apply(ds *sdrbench.Dataset) {
	ds.Array.SetOffset(f.off, bitflip.Flip(ds.Array.AtOffset(f.off), ds.DType, f.bit))
}

// goldenAddress recovers each flip right after planting it, through
// RecoverAddress, as an application's MCA handler would.
func goldenAddress(policy registry.Policy, cacheBlock int) string {
	d := newDigest()
	for i, ds := range goldenDatasets() {
		eng := core.NewEngine(core.Options{Seed: goldenSeed, TuneCacheBlock: cacheBlock})
		alloc := eng.Protect(ds.Name, ds.Array, ds.DType, policy)
		for _, f := range planFlips(ds, goldenSeed+int64(i), goldenFlips) {
			f.apply(ds)
			d.outcome(eng.RecoverAddress(alloc.AddrOf(f.off)))
		}
		d.array(ds.Array)
	}
	return d.hex()
}

// goldenBatch plants every flip, pre-quarantines it (the service intake
// pattern), and recovers the set in one RecoverBatch call.
func goldenBatch() string {
	d := newDigest()
	for i, ds := range goldenDatasets() {
		eng := core.NewEngine(core.Options{Seed: goldenSeed})
		alloc := eng.Protect(ds.Name, ds.Array, ds.DType, registry.RecoverAny())
		flips := planFlips(ds, goldenSeed+int64(i), goldenFlips)
		offs := make([]int, len(flips))
		for k, f := range flips {
			f.apply(ds)
			offs[k] = f.off
		}
		for _, off := range offs {
			eng.MarkCorrupt(alloc, off)
		}
		for _, r := range eng.RecoverBatch(context.Background(), alloc, offs, nil) {
			d.outcome(r.Outcome, r.Err)
		}
		d.array(ds.Array)
	}
	return d.hex()
}

// listDetector flags a fixed offset list, so the SDCCheck case exercises
// the repairer and not a detector's thresholds.
type listDetector []int

func (listDetector) Name() string                { return "list" }
func (l listDetector) Scan(*ndarray.Array) []int { return l }

// goldenFTI repairs the flips through the checkpoint library's SDCCheck
// hook with the engine's FTIRepairer.
func goldenFTI(t *testing.T) string {
	d := newDigest()
	for i, ds := range goldenDatasets() {
		w, err := fti.NewWorld(t.TempDir(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Rank(0).Protect(1, ds.Name, ds.Array, ds.DType, fti.RecoveryPolicy{Any: true}); err != nil {
			t.Fatal(err)
		}
		eng := core.NewEngine(core.Options{Seed: goldenSeed})
		flips := planFlips(ds, goldenSeed+int64(i), goldenFlips)
		offs := make([]int, len(flips))
		for k, f := range flips {
			f.apply(ds)
			offs[k] = f.off
		}
		sort.Ints(offs)
		rep, err := w.SDCCheck(listDetector(offs), eng.FTIRepairer())
		if rep == nil {
			t.Fatalf("SDCCheck: %v", err)
		}
		for _, f := range rep.Findings {
			d.outcome(core.Outcome{New: f.New}, f.Err)
		}
		d.array(ds.Array)
	}
	return d.hex()
}

// goldenService runs the flips through a one-worker service, submitted
// before the worker starts so the queue is backed up and batchMax decides
// how many same-allocation tasks each engine call coalesces.
func goldenService(t *testing.T, batchMax int) string {
	d := newDigest()
	for i, ds := range goldenDatasets() {
		eng := core.NewEngine(core.Options{Seed: goldenSeed})
		alloc := eng.Protect(ds.Name, ds.Array, ds.DType, registry.RecoverAny())
		results := map[int]service.Result{}
		svc, err := service.New(eng, service.Config{
			Workers: 1, QueueDepth: 64, BatchMax: batchMax, Deadline: -1,
			BreakerThreshold: -1, Seed: goldenSeed,
			// One worker: callbacks never overlap.
			OnOutcome: func(r service.Result) { results[r.Offset] = r },
		})
		if err != nil {
			t.Fatal(err)
		}
		flips := planFlips(ds, goldenSeed+int64(i), goldenFlips)
		for _, f := range flips {
			f.apply(ds)
			if err := svc.Submit(alloc, f.off); err != nil {
				t.Fatal(err)
			}
		}
		svc.Start()
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
		for _, f := range flips {
			r, ok := results[f.off]
			if !ok {
				t.Fatalf("%s: no outcome for offset %d", ds.Name, f.off)
			}
			d.outcome(r.Outcome, r.Err)
		}
		d.array(ds.Array)
	}
	return d.hex()
}

// TestGoldenDigests compares every recovery path's digest with the
// committed one. The two service runs share one digest: batching must not
// change a single recovered bit.
func TestGoldenDigests(t *testing.T) {
	lorenzo := registry.RecoverWith(predict.MethodLorenzo1)
	got := map[string]string{
		"address/lorenzo1":       goldenAddress(lorenzo, 0),
		"address/lorenzo1/cache": goldenAddress(lorenzo, 8),
		"address/any":            goldenAddress(registry.RecoverAny(), 0),
		"address/any/cache":      goldenAddress(registry.RecoverAny(), 8),
		"batch/any":              goldenBatch(),
		"fti/any":                goldenFTI(t),
		"service/any":            goldenService(t, 16),
	}
	if single := goldenService(t, 1); single != got["service/any"] {
		t.Errorf("service digest with BatchMax 1 = %s, with BatchMax 16 = %s", single, got["service/any"])
	}

	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if want[name] != got[name] {
			t.Errorf("%s: digest %s, golden %s", name, got[name], want[name])
		}
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d cases, test computes %d", len(want), len(got))
	}
}
