// Command perfbench is the repository benchmark. It runs one named DUE
// workload from a single process, measures it from outside the program (it
// times calls into the layers' public functions and reads the counters and
// stage histograms the program already exposes), checks the program's
// outputs, and prints every metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// is split into an untraced and a traced half, the benchmark records its own
// spans in the traced half, and the metrics are the per-layer ones.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload embedded|tuned|storm|paced --seed N --seconds S --trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"spatialdue/internal/trace"
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the recovery system sees; every
// workload reports all of them.
var endToEnd = []metricDef{
	{"recoveries_per_s", "1/s"},
	{"recover_p50_ms", "ms"},
	{"recover_p99_ms", "ms"},
	{"accurate_frac", "frac"},
	{"recovered_frac", "frac"},
	{"setup_s", "s"},
	{"rss_peak_mb", "MB"},
}

// perLayer are the single-layer metrics, named module.metric; they are a
// traced run's JSON result. A layer a workload does not load reports 0,
// for example every httpapi, service and journal metric on embedded.
var perLayer = []metricDef{
	{"httpapi.ingest_p50_us", "us"},
	{"httpapi.ingest_p99_us", "us"},
	{"httpapi.latched_frac", "frac"},
	{"httpapi.pre_trace_frac", "frac"},
	{"service.queue_wait_mean_us", "us"},
	{"service.batched_frac", "frac"},
	{"service.rejected_frac", "frac"},
	{"service.retries", "count"},
	{"journal.begin_mean_us", "us"},
	{"journal.finish_mean_us", "us"},
	{"journal.bytes_per_recovery", "B"},
	{"core.stripe_wait_mean_us", "us"},
	{"core.batch_mean_size", "count"},
	{"core.provisional_mean_us", "us"},
	{"core.escalated_frac", "frac"},
	{"autotune.tune_mean_us", "us"},
	{"autotune.cache_hit_frac", "frac"},
	{"predict.primary_mean_us", "us"},
	{"predict.verify_mean_us", "us"},
	{"unattributed_frac", "frac"},
	{"gen.late_p99_ms", "ms"},
	{"trace.overhead_ms", "ms"},
}

// pacedOnly are the end-to-end metrics of the open loop, which only paced
// prints: with a schedule, a DUE's latency runs from its due time.
var pacedOnly = []metricDef{
	{"slo_frac", "frac"},
}

// sloMS is the recovery latency limit behind slo_frac.
const sloMS = 10.0

// config is one benchmark invocation.
type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	setupReps int           // least set-ups per run; setup_s is their median
	setupFor  time.Duration // set up again until this much set-up time is spent
	warmup    time.Duration // unmeasured load before the first phase
	workDir   string        // journals and span files
	shape     shape
}

// shape holds the input sizes of every workload.
type shape struct {
	small       bool    // ScaleTiny datasets instead of ScaleSmall
	ranks       int     // embedded/tuned goroutines, each with its own engine
	digestSteps int     // embedded/tuned recovered values per rank the digest covers
	stormDim    int     // storm allocation is stormDim x stormDim
	stormBurst  int     // DUEs per storm IngestBatch
	stormConns  int     // storm clients
	pacedDim    int     // each paced tenant's allocation is pacedDim x pacedDim
	pacedTen    int     // paced tenants
	pacedRate   float64 // paced Poisson arrival rate, DUEs per second
	pacedSend   int     // paced sender goroutines
	pacedRecent int     // latest DUEs of a tenant a new paced DUE keeps apart from
}

// fullShape is what the benchmark measures.
var fullShape = shape{
	ranks: 2, digestSteps: 200,
	stormDim: 256, stormBurst: 24, stormConns: 2,
	pacedDim: 64, pacedTen: 8, pacedRate: 800, pacedSend: 2, pacedRecent: 16,
}

// windows is how many equal windows, by completion time, a measured phase
// is cut into. The rate and latency metrics are medians over the windows,
// so a few slow seconds on a shared machine move them less.
const windows = 10

// phaseResult is what one phase of a workload observed.
type phaseResult struct {
	winLen    float64 // seconds per window
	attempted int     // DUEs injected
	recovered int     // DUEs with a successful outcome
	accurate  int     // recovered within 1% of the pre-fault value
	lat       hist    // recovery latency of recovered DUEs, ms
	win       [windows]hist
	inSLO     int      // recovered within sloMS
	misstored int      // successful recoveries whose cell does not hold the reported value
	ingest    hist     // ingest call duration, us (networked workloads)
	events    int      // events sent
	latched   int      // events answered "latched"
	genLate   hist     // generator delay, ms
	failures  []string // the first few failed outcomes, for the report
	delta     snapshot // program counters over the phase
}

// newPhase starts the result of a phase that drives load for d.
func newPhase(d time.Duration) phaseResult {
	return phaseResult{winLen: d.Seconds() / windows}
}

// observe records one successful recovery of latency latMS that completed
// doneS seconds into the phase, with got against the pre-fault value pre.
func (p *phaseResult) observe(latMS, doneS, got, pre float64) {
	p.recovered++
	p.lat.add(latMS)
	k := 0
	if p.winLen > 0 {
		k = max(0, min(int(doneS/p.winLen), windows-1))
	}
	p.win[k].add(latMS)
	if latMS <= sloMS {
		p.inSLO++
	}
	if accurate(got, pre) {
		p.accurate++
	}
}

// windowed returns, per window, the recoveries per second and the p50 and
// p99 latency. Recoveries completing after the phase's nominal end fall in
// the last window.
func windowed(r phaseResult) (rate, p50, p99 []float64) {
	for k := range r.win {
		w := &r.win[k]
		rate = append(rate, ratio(float64(w.n), r.winLen))
		p50 = append(p50, w.quantile(0.50))
		p99 = append(p99, w.quantile(0.99))
	}
	return rate, p50, p99
}

// maxFailures caps the failed outcomes a phase keeps for the report.
const maxFailures = 5

// fail records a DUE that ended without a successful recovery.
func (p *phaseResult) fail(detail string) {
	if len(p.failures) < maxFailures {
		p.failures = append(p.failures, detail)
	}
}

// add merges q, a result of the same phase, into p.
func (p *phaseResult) add(q phaseResult) {
	p.attempted += q.attempted
	p.recovered += q.recovered
	p.accurate += q.accurate
	p.lat.merge(&q.lat)
	for k := range p.win {
		p.win[k].merge(&q.win[k])
	}
	p.inSLO += q.inSLO
	p.misstored += q.misstored
	p.ingest.merge(&q.ingest)
	p.events += q.events
	p.latched += q.latched
	p.genLate.merge(&q.genLate)
	for _, f := range q.failures {
		p.fail(f)
	}
}

// instance is one set-up workload.
type instance interface {
	// run drives load for d. With record false the phase is warm-up and
	// its result is discarded; spans is nil in untraced phases.
	run(d time.Duration, record bool, spans *spanLog) (phaseResult, error)
	// check verifies the program's final outputs and returns the problems
	// found. It may print a digest line to out.
	check(out io.Writer) []string
	// digest, when not nil, finishes the steps a seed-repeatable digest of
	// recovered values covers and returns the digest.
	digest() *uint64
	// journalBytesPerRecovery is the journal size over journaled
	// recoveries (0 without a journal).
	journalBytesPerRecovery() float64
	// slowTraces returns the program's retained slowest traces.
	slowTraces() []trace.Summary
	close() error
}

// workloads maps a workload name to its set-up function.
var workloads = map[string]func(cfg config, rep int, spans *spanLog) (instance, error){
	"embedded": setupEmbedded,
	"tuned":    setupTuned,
	"storm":    setupStorm,
	"paced":    setupPaced,
}

// result is the benchmark's final report.
type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]reportedMetric `json:"metrics"`
}

type reportedMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// maxSetupReps caps the set-ups of one run.
const maxSetupReps = 400

// runBenchmark sets the workload up at least cfg.setupReps times and until
// cfg.setupFor of set-up time is spent, keeps the last instance, measures
// it, and checks its outputs. Where the workload has a digest, the first,
// discarded instance computes it too, and the kept instance's digest must
// repeat it. Human-readable lines go to out; the
// caller prints the JSON result.
func runBenchmark(cfg config, out io.Writer) (*result, error) {
	setup, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	var spans *spanLog
	if cfg.trace {
		spans = newSpanLog()
	}
	var inst instance
	var setups []float64
	var setupSum float64
	var firstDigest *uint64
	for rep := 0; rep < cfg.setupReps || (setupSum < cfg.setupFor.Seconds() && rep < maxSetupReps); rep++ {
		if inst != nil {
			if rep == 1 {
				firstDigest = inst.digest()
			}
			if err := inst.close(); err != nil {
				return nil, fmt.Errorf("tear down set-up %d: %w", rep, err)
			}
			inst = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		inst, err = setup(cfg, rep, spans)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		setupSum += setups[rep]
	}
	defer inst.close()
	fmt.Fprintf(out, "set-ups %d, %.4g s in all\n", len(setups), setupSum)

	if _, err := inst.run(cfg.warmup, false, nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	d := time.Duration(cfg.seconds * float64(time.Second))
	var total phaseResult
	metrics := map[string]float64{}
	if !cfg.trace {
		res, err := inst.run(d, true, nil)
		if err != nil {
			return nil, err
		}
		total = res
		endToEndMetrics(res, setups, metrics)
		rate, p50, _ := windowed(res)
		fmt.Fprintf(out, "per-window recoveries/s %.6g\nper-window p50 ms %.4g\n", rate, p50)
	} else {
		plain, err := inst.run(d/2, true, nil)
		if err != nil {
			return nil, err
		}
		traced, err := inst.run(d/2, true, spans)
		if err != nil {
			return nil, err
		}
		total = plain
		total.add(traced)
		layerMetrics(plain, traced, inst.journalBytesPerRecovery(), metrics)
		printShares(out, cfg.workload, traced, spans)
	}

	for _, f := range total.failures {
		fmt.Fprintf(out, "failed DUE: %s\n", f)
	}
	var problems []string
	if d := inst.digest(); d != nil {
		fmt.Fprintf(out, "digest %016x\n", *d)
		if firstDigest != nil && *firstDigest != *d {
			problems = append(problems, fmt.Sprintf("digest %016x differs from the first set-up's %016x for the same seed", *d, *firstDigest))
		}
	}
	problems = append(problems, inst.check(out)...)
	failed := total.attempted - total.recovered
	if total.misstored > 0 {
		problems = append(problems, fmt.Sprintf("%d recoveries reported a value their cell does not hold", total.misstored))
	}
	if total.attempted == 0 {
		problems = append(problems, "no DUE was injected")
	}
	if cfg.trace && cfg.workDir != "" {
		path := filepath.Join(cfg.workDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := spans.write(path, inst.slowTraces()); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "spans written to %s\n", path)
	}
	for _, p := range problems {
		fmt.Fprintf(out, "CHECK FAILED: %s\n", p)
	}

	res := &result{Correct: len(problems) == 0, Attempted: total.attempted, Failed: failed,
		Metrics: map[string]reportedMetric{}}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, m := range defs {
		v := metrics[m.name]
		res.Metrics[m.name] = reportedMetric{Value: v, Unit: m.unit}
		fmt.Fprintf(out, "%-28s %14.6g %-5s%s\n", m.name, v, m.unit, sampleNote(m.name, total))
	}
	if !cfg.trace && cfg.workload == "paced" {
		for _, m := range pacedOnly {
			fmt.Fprintf(out, "%-28s %14.6g %-5s\n", m.name, metrics[m.name], m.unit)
		}
	}
	return res, nil
}

// sampleNote gives the sample count behind a latency percentile.
func sampleNote(name string, p phaseResult) string {
	switch {
	case strings.HasPrefix(name, "recover_p"):
		return fmt.Sprintf(" (n=%d, %d per window)", p.lat.n, p.lat.n/windows)
	case strings.HasPrefix(name, "httpapi.ingest_p"):
		return fmt.Sprintf(" (n=%d)", p.ingest.n)
	case name == "gen.late_p99_ms":
		return fmt.Sprintf(" (n=%d)", p.genLate.n)
	}
	return ""
}

func endToEndMetrics(r phaseResult, setups []float64, m map[string]float64) {
	n := float64(r.attempted)
	rate, p50, p99 := windowed(r)
	m["recoveries_per_s"] = median(rate)
	m["recover_p50_ms"] = median(p50)
	m["recover_p99_ms"] = median(p99)
	// Failed DUEs count as misses of the latency limit.
	m["slo_frac"] = ratio(float64(r.inSLO), n)
	m["accurate_frac"] = ratio(float64(r.accurate), n)
	m["recovered_frac"] = ratio(float64(r.recovered), n)
	m["setup_s"] = median(setups)
	m["rss_peak_mb"] = rssPeakMB()
}

// stageNames lists the program's canonical stage spans.
var stageNames = []string{
	trace.StageQueueWait, trace.StageStripeWait, trace.StageProvisional,
	trace.StageTune, trace.StagePredictPrimary, trace.StageVerifyPrimary,
	trace.StagePredictTune, trace.StageVerifyTune, trace.StagePredictAlternate,
	trace.StageVerifyAlternate, trace.StageRestore, trace.StageJournalBegin,
	trace.StageJournalFinish,
}

// stageShare is the mean time per recovery that stage's spans cover, over
// the mean recovery latency.
func stageShare(r phaseResult, stage string) float64 {
	return ratio(r.delta.perTraceMS(stage), r.lat.mean())
}

func layerMetrics(plain, r phaseResult, journalBPR float64, m map[string]float64) {
	d := r.delta
	m["httpapi.ingest_p50_us"] = r.ingest.quantile(0.50)
	m["httpapi.ingest_p99_us"] = r.ingest.quantile(0.99)
	m["httpapi.latched_frac"] = ratio(float64(r.latched), float64(r.events))
	m["httpapi.pre_trace_frac"] = preTraceShare(r)
	m["service.queue_wait_mean_us"] = d.stageMeanUS(trace.StageQueueWait)
	m["service.batched_frac"] = ratio(float64(d.svc.Batched), float64(d.svc.Recovered+d.svc.Failed))
	m["service.rejected_frac"] = ratio(float64(d.svc.Rejected+d.svc.BreakerRejected), float64(d.svc.Submitted))
	m["service.retries"] = float64(d.svc.Retries)
	m["journal.begin_mean_us"] = d.stageMeanUS(trace.StageJournalBegin)
	m["journal.finish_mean_us"] = d.stageMeanUS(trace.StageJournalFinish)
	m["journal.bytes_per_recovery"] = journalBPR
	m["core.stripe_wait_mean_us"] = ratio(float64(d.stripeWait.Microseconds()), d.stripeAcq)
	m["core.batch_mean_size"] = ratio(d.batchMembers, d.batchCalls)
	m["core.provisional_mean_us"] = d.stageMeanUS(trace.StageProvisional)
	m["core.escalated_frac"] = ratio(d.escalated, d.engineDone)
	m["autotune.tune_mean_us"] = d.stageMeanUS(trace.StageTune)
	m["autotune.cache_hit_frac"] = ratio(float64(d.cache.Hits),
		float64(d.cache.Hits+d.cache.Misses+d.cache.Coalesced))
	m["predict.primary_mean_us"] = d.stageMeanUS(trace.StagePredictPrimary)
	m["predict.verify_mean_us"] = d.stageMeanUS(trace.StageVerifyPrimary)
	attributed := 0.0
	for _, s := range stageNames {
		attributed += stageShare(r, s)
	}
	m["unattributed_frac"] = 1 - attributed
	m["gen.late_p99_ms"] = r.genLate.quantile(0.99)
	m["trace.overhead_ms"] = r.lat.quantile(0.5) - plain.lat.quantile(0.5)
}

// preTraceShare is the share of the mean recovery latency that passes
// before the program's trace of the DUE begins: for networked workloads,
// the HTTP send plus the wait behind earlier lines of the same batch.
func preTraceShare(r phaseResult) float64 {
	lat := r.lat.mean()
	if lat == 0 {
		return 0
	}
	return 1 - ratio(r.delta.traces.sum*1e3, r.delta.traces.count)/lat
}

// clientSpans names, per workload, the benchmark span around the call that
// carries DUEs into the program. The journal_begin spans run inside it.
var clientSpans = map[string]string{
	"storm": "client.IngestBatch",
	"paced": "client.Ingest",
}

// printShares prints the traced phase's layer-share table. A DUE's latency
// splits into disjoint parts: the time before the program's trace of it
// begins, each program stage, and the rest of the trace that no stage
// covers. Each is shown as a share of the mean recovery latency. The
// benchmark's client call is shown below it as self time per call.
func printShares(out io.Writer, workload string, r phaseResult, spans *spanLog) {
	lat := r.lat.mean()
	fmt.Fprintf(out, "layer shares of mean recovery latency %.4g ms (n=%d):\n", lat, r.lat.n)
	type row struct {
		name  string
		share float64
	}
	pre := preTraceShare(r)
	rows := []row{{"before the program's trace", pre}}
	rest := 1.0 - pre
	for _, s := range stageNames {
		if sh := stageShare(r, s); sh > 0 {
			rows = append(rows, row{s, sh})
			rest -= sh
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].share > rows[j].share })
	for _, rw := range rows {
		fmt.Fprintf(out, "  %-30s %7.2f%%\n", rw.name, 100*rw.share)
	}
	fmt.Fprintf(out, "  %-30s %7.2f%%\n", "unattributed in the trace", 100*rest)
	if name := clientSpans[workload]; name != "" {
		sec, n := spans.total(name)
		self := sec - r.delta.stages[trace.StageJournalBegin].sum
		fmt.Fprintf(out, "  %s self time %.4g us per call (n=%d; call minus the journal_begin spans inside it)\n",
			name, ratio(self*1e6, float64(n)), n)
	}
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: embedded, tuned, storm or paced")
		seed     = flag.Int64("seed", 1, "workload seed: every fault offset, bit and arrival derives from it")
		seconds  = flag.Float64("seconds", 10, "measured seconds")
		traced   = flag.Int("trace", 0, "1: untraced then traced half-runs, per-layer metrics; 0: end-to-end metrics")
	)
	flag.Parse()
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	cfg := config{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *traced == 1,
		setupReps: 15, setupFor: 3 * time.Second, warmup: time.Second,
		workDir: filepath.Join(".bench_build", "run"), shape: fullShape,
	}
	fmt.Printf("perfbench: workload %s seed %d seconds %g trace %d\n", cfg.workload, cfg.seed, cfg.seconds, *traced)
	res, err := runBenchmark(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
