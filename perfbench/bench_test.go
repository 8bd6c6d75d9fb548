package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"spatialdue/internal/core"
)

// smallShape shrinks every workload so a run takes well under a second.
var smallShape = shape{
	small: true, ranks: 2, digestSteps: 50,
	stormDim: 64, stormBurst: 6, stormConns: 2,
	pacedDim: 32, pacedTen: 2, pacedRate: 200, pacedSend: 2, pacedRecent: 4,
}

func smallConfig(t *testing.T, workload string, seed int64, traced bool) config {
	return config{
		workload: workload, seed: seed, seconds: 1, trace: traced,
		setupReps: 2, warmup: 50 * time.Millisecond,
		workDir: t.TempDir(), shape: smallShape,
	}
}

func runSmall(t *testing.T, cfg config) (*result, string) {
	t.Helper()
	var out bytes.Buffer
	res, err := runBenchmark(cfg, &out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", cfg.workload, err, out.String())
	}
	if !res.Correct {
		t.Fatalf("%s: output checks failed:\n%s", cfg.workload, out.String())
	}
	return res, out.String()
}

// benchmarkFile is the part of BENCHMARK.json the metric tables must match.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(defs) != len(got) {
			t.Fatalf("%s: %d metrics in the code, %d in BENCHMARK.json", kind, len(defs), len(got))
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: code has %s (%s), BENCHMARK.json %s (%s)",
					kind, i, d.name, d.unit, got[i].Name, got[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, bf.EndToEnd)
	check("per_layer", perLayer, bf.PerLayer)
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
}

// TestEveryMetricPrints runs each workload at reduced size, untraced and
// traced, and checks that every metric is reported and printed with its
// unit.
func TestEveryMetricPrints(t *testing.T) {
	for _, w := range []string{"embedded", "tuned", "storm", "paced"} {
		for _, traced := range []bool{false, true} {
			res, out := runSmall(t, smallConfig(t, w, 1, traced))
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w, traced, d.name, m, d.unit)
				}
				if !strings.Contains(out, d.name) {
					t.Errorf("%s trace=%v: %s not printed", w, traced, d.name)
				}
			}
			if !traced && w == "paced" {
				for _, d := range pacedOnly {
					if !strings.Contains(out, d.name) {
						t.Errorf("paced: %s not printed", d.name)
					}
				}
			}
			if res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s trace=%v: attempted %d failed %d", w, traced, res.Attempted, res.Failed)
			}
			if !traced && res.Metrics["recoveries_per_s"].Value <= 0 {
				t.Errorf("%s: recoveries_per_s %v", w, res.Metrics["recoveries_per_s"].Value)
			}
		}
	}
}

func digestLine(t *testing.T, out string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "digest ") {
			return line
		}
	}
	t.Fatalf("no digest line in output:\n%s", out)
	return ""
}

// TestDigestsRepeatPerSeed checks that the embedded and tuned field digests
// repeat for the same seed and change with it.
func TestDigestsRepeatPerSeed(t *testing.T) {
	for _, w := range []string{"embedded", "tuned"} {
		_, a := runSmall(t, smallConfig(t, w, 1, false))
		_, b := runSmall(t, smallConfig(t, w, 1, false))
		_, c := runSmall(t, smallConfig(t, w, 2, false))
		if digestLine(t, a) != digestLine(t, b) {
			t.Errorf("%s: seed 1 digests differ: %q vs %q", w, digestLine(t, a), digestLine(t, b))
		}
		if digestLine(t, a) == digestLine(t, c) {
			t.Errorf("%s: seeds 1 and 2 give the same digest %q", w, digestLine(t, a))
		}
	}
}

// TestMisstoredRecoveryIsCaught checks that a recovery reporting one value
// while its cell holds another counts as failed and fails the run's checks.
func TestMisstoredRecoveryIsCaught(t *testing.T) {
	inst, err := setupEmbedded(smallConfig(t, "embedded", 1, false), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := inst.(*embedded)
	for _, r := range w.ranks {
		recover := r.recover
		r.recover = func(addr uint64) (core.Outcome, error) {
			out, err := recover(addr)
			if err == nil {
				out.Allocation.Array.SetOffset(out.Offset, out.New+1)
			}
			return out, err
		}
	}
	res, err := w.run(100*time.Millisecond, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.attempted == 0 || res.misstored != res.attempted || res.recovered != 0 {
		t.Errorf("attempted %d misstored %d recovered %d; want every DUE misstored, none recovered",
			res.attempted, res.misstored, res.recovered)
	}
}

// TestSeedChangesNetworkedFaults checks that the storm offsets and the
// paced arrival schedule derive from the seed.
func TestSeedChangesNetworkedFaults(t *testing.T) {
	stormOffs := func(seed int64) []int {
		inst, err := setupStorm(smallConfig(t, "storm", seed, false), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer inst.close()
		return append([]int(nil), inst.(*storm).clients[0].offs...)
	}
	schedule := func(seed int64) []arrival {
		inst, err := setupPaced(smallConfig(t, "paced", seed, false), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer inst.close()
		sched, err := inst.(*paced).schedule(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return sched
	}
	if a, b := stormOffs(1), stormOffs(1); !equalInts(a, b) {
		t.Error("storm: seed 1 gives two offset orders")
	}
	if equalInts(stormOffs(1), stormOffs(2)) {
		t.Error("storm: seeds 1 and 2 give the same offsets")
	}
	a, b, c := schedule(1), schedule(1), schedule(2)
	if len(a) == 0 || !equalArrivals(a, b) {
		t.Error("paced: seed 1 gives two schedules")
	}
	if equalArrivals(a, c) {
		t.Error("paced: seeds 1 and 2 give the same schedule")
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalArrivals(a, b []arrival) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
