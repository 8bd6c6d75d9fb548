package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"spatialdue/internal/autotune"
	"spatialdue/internal/core"
	"spatialdue/internal/service"
	"spatialdue/internal/trace"
)

// median returns the median of xs (the mean of the middle two for an even
// count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 0 {
		return (s[m-1] + s[m]) / 2
	}
	return s[m]
}

// hist is a log-bucketed histogram of positive values. Its memory is fixed
// however many samples a run takes, so the benchmark's own footprint does
// not grow with the program's throughput and move rss_peak_mb. Quantiles
// interpolate within a bucket (buckets are histGrowth wide).
type hist struct {
	counts []uint64
	n      uint64
	sum    float64
}

const (
	histMin    = 1e-4  // smallest resolved value; smaller ones share bucket 0
	histGrowth = 1.005 // upper/lower edge ratio of a bucket
	histBins   = 4700  // covers histMin up to about 1e6
)

var logGrowth = math.Log(histGrowth)

func (h *hist) add(v float64) {
	if h.counts == nil {
		h.counts = make([]uint64, histBins)
	}
	i := 0
	if v > histMin {
		i = min(int(math.Log(v/histMin)/logGrowth), histBins-1)
	}
	h.counts[i]++
	h.n++
	h.sum += v
}

func (h *hist) merge(o *hist) {
	if o.n == 0 {
		return
	}
	if h.counts == nil {
		h.counts = make([]uint64, histBins)
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

func (h *hist) mean() float64 { return ratio(h.sum, float64(h.n)) }

// quantile returns the q-quantile (0..1) by nearest rank, interpolated
// geometrically within the rank's bucket, or 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := math.Max(1, math.Ceil(q*float64(h.n)))
	cum := 0.0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo := histMin * math.Pow(histGrowth, float64(i))
			return lo * math.Pow(histGrowth, (rank-cum)/float64(c))
		}
		cum += float64(c)
	}
	return histMin * math.Pow(histGrowth, histBins)
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not load).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// accurate reports whether got is within 1% relative error of want, the
// paper's headline accuracy threshold (Fig. 2).
func accurate(got, want float64) bool {
	if math.IsNaN(got) || math.IsInf(got, 0) {
		return false
	}
	if want == 0 {
		return math.Abs(got) <= 0.01
	}
	return math.Abs(got-want)/math.Abs(want) <= 0.01
}

// rssPeakMB reads the process's peak resident set size (VmHWM).
func rssPeakMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// stageAgg is one stage histogram's running sum and count.
type stageAgg struct {
	sum   float64 // seconds
	count float64
}

// snapshot holds the counters the program exposes, read from outside: the
// engine's stage histograms (Engine.Tracer), stripe-lock waits, batch and
// escalation counters, tune-cache counters, and the service's Stats.
type snapshot struct {
	stages       map[string]stageAgg
	traces       stageAgg // whole-trace durations, birth to outcome
	finished     float64  // traces folded into the histograms
	stripeWait   time.Duration
	stripeAcq    float64
	batchCalls   float64
	batchMembers float64
	escalated    float64 // ladder rung entries past the primary
	engineDone   float64 // engine recoveries, successful or not
	cache        autotune.CacheStats
	svc          service.Stats
}

// takeSnapshot sums the counters of every engine and, when svc is non-nil,
// reads the service's.
func takeSnapshot(engs []*core.Engine, svc *service.Service) snapshot {
	s := snapshot{stages: map[string]stageAgg{}}
	for _, e := range engs {
		var buf bytes.Buffer
		_ = e.Tracer().WriteMetrics(&buf)
		parseStages(buf.String(), s.stages, &s.traces)
		s.finished += float64(e.Tracer().Finished())
		w, acq := e.StripeWait()
		s.stripeWait += w
		s.stripeAcq += float64(acq)
		calls, members, _ := e.BatchStats()
		s.batchCalls += float64(calls)
		s.batchMembers += float64(members)
		for st, n := range e.Escalations() {
			if st != core.StagePrimary {
				s.escalated += float64(n)
			}
		}
		es := e.Stats()
		s.engineDone += float64(es.Recovered + es.Fallbacks)
		c := e.TuneCacheCounters()
		s.cache.Hits += c.Hits
		s.cache.Misses += c.Misses
		s.cache.Coalesced += c.Coalesced
	}
	if svc != nil {
		s.svc = svc.Stats()
	}
	return s
}

// parseStages folds the spatialdue_stage_duration_seconds _sum and _count
// series of a Prometheus exposition into stages, and those of
// spatialdue_recovery_duration_seconds into traces.
func parseStages(text string, stages map[string]stageAgg, traces *stageAgg) {
	const prefix = "spatialdue_stage_duration_seconds_"
	const whole = "spatialdue_recovery_duration_seconds_"
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, whole) {
			rest := line[len(whole):]
			sp := strings.LastIndexByte(rest, ' ')
			v, err := strconv.ParseFloat(rest[sp+1:], 64)
			switch {
			case err != nil:
			case strings.HasPrefix(rest, "sum "):
				traces.sum += v
			case strings.HasPrefix(rest, "count "):
				traces.count += v
			}
			continue
		}
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		rest := line[len(prefix):]
		var isSum bool
		switch {
		case strings.HasPrefix(rest, "sum{"):
			isSum = true
		case strings.HasPrefix(rest, "count{"):
		default:
			continue
		}
		q1 := strings.IndexByte(rest, '"')
		q2 := strings.LastIndexByte(rest, '"')
		sp := strings.LastIndexByte(rest, ' ')
		if q1 < 0 || q2 <= q1 || sp < q2 {
			continue
		}
		v, err := strconv.ParseFloat(rest[sp+1:], 64)
		if err != nil {
			continue
		}
		name := rest[q1+1 : q2]
		a := stages[name]
		if isSum {
			a.sum += v
		} else {
			a.count += v
		}
		stages[name] = a
	}
}

// sub returns the counter deltas s - base.
func (s snapshot) sub(base snapshot) snapshot {
	d := s
	d.stages = map[string]stageAgg{}
	for name, a := range s.stages {
		b := base.stages[name]
		d.stages[name] = stageAgg{sum: a.sum - b.sum, count: a.count - b.count}
	}
	d.traces.sum -= base.traces.sum
	d.traces.count -= base.traces.count
	d.finished -= base.finished
	d.stripeWait -= base.stripeWait
	d.stripeAcq -= base.stripeAcq
	d.batchCalls -= base.batchCalls
	d.batchMembers -= base.batchMembers
	d.escalated -= base.escalated
	d.engineDone -= base.engineDone
	d.cache.Hits -= base.cache.Hits
	d.cache.Misses -= base.cache.Misses
	d.cache.Coalesced -= base.cache.Coalesced
	d.svc.Submitted -= base.svc.Submitted
	d.svc.Rejected -= base.svc.Rejected
	d.svc.BreakerRejected -= base.svc.BreakerRejected
	d.svc.Recovered -= base.svc.Recovered
	d.svc.Failed -= base.svc.Failed
	d.svc.Retries -= base.svc.Retries
	d.svc.Batched -= base.svc.Batched
	return d
}

// stageMeanUS is the mean duration of one stage's spans, in microseconds.
func (s snapshot) stageMeanUS(stage string) float64 {
	a := s.stages[stage]
	return ratio(a.sum, a.count) * 1e6
}

// perTraceMS is the mean time per finished trace that a stage's spans
// cover, in milliseconds.
func (s snapshot) perTraceMS(stage string) float64 {
	return ratio(s.stages[stage].sum, s.finished) * 1e3
}

// span is one benchmark-side span: a call into a layer's public function.
type span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	TraceID string `json:"trace_id,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// maxSpans caps the spans a run keeps for its span file. A traced
// embedded run makes millions of calls; past the cap, spans still count in
// the per-name totals but are not kept.
const maxSpans = 200000

// spanLog keeps spans in memory until the run ends. A nil *spanLog records
// nothing, so untraced phases pay one nil check per call.
type spanLog struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	dropped int
	totals  map[string]spanTotal
}

// spanTotal sums the spans of one name.
type spanTotal struct {
	sec float64
	n   int
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now(), totals: map[string]spanTotal{}} }

func (l *spanLog) add(name, parent, traceID string, start, end time.Time) {
	if l == nil {
		return
	}
	sp := span{Name: name, Parent: parent, TraceID: traceID,
		StartNS: int64(start.Sub(l.t0)), EndNS: int64(end.Sub(l.t0))}
	l.mu.Lock()
	t := l.totals[name]
	t.sec += end.Sub(start).Seconds()
	t.n++
	l.totals[name] = t
	if len(l.spans) < maxSpans {
		l.spans = append(l.spans, sp)
	} else {
		l.dropped++
	}
	l.mu.Unlock()
}

// total sums the durations of the spans named name, in seconds, and counts
// them.
func (l *spanLog) total(name string) (sec float64, n int) {
	if l == nil {
		return 0, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	t := l.totals[name]
	return t.sec, t.n
}

// write stores the benchmark spans, followed by the program's retained
// slowest traces (joinable on trace_id), as JSON lines in path.
func (l *spanLog) write(path string, slow []trace.Summary) error {
	if l == nil || path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, sp := range l.spans {
		if err := enc.Encode(sp); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	dropped := l.dropped
	l.mu.Unlock()
	if dropped > 0 {
		if err := enc.Encode(struct {
			Dropped int `json:"spans_not_kept"`
		}{dropped}); err != nil {
			f.Close()
			return err
		}
	}
	for _, s := range slow {
		if err := enc.Encode(struct {
			Program trace.Summary `json:"program_trace"`
		}{s}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
