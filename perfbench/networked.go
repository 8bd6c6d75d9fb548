package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"spatialdue/internal/bitflip"
	"spatialdue/internal/core"
	"spatialdue/internal/httpapi"
	"spatialdue/internal/httpapi/client"
	"spatialdue/internal/registry"
	"spatialdue/internal/service"
	"spatialdue/internal/trace"
)

// netServer is an in-process recovery server on a 127.0.0.1 listener,
// configured as `duerecover -serve -listen` ships it, except that the
// caller chooses whether journal appends are fsynced.
type netServer struct {
	srv     *httpapi.Server
	eng     *core.Engine
	base    string
	dir     string
	journal string
	hc      *http.Client
	cancel  context.CancelFunc
	done    chan error
}

func startServer(dir string, journalSync bool) (*netServer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	jpath := filepath.Join(dir, "journal.log")
	eng := core.NewEngine(core.Options{Seed: 1, TuneCacheBlock: 8})
	srv, err := httpapi.NewServer(eng, httpapi.ServerConfig{
		Service: service.Config{
			Workers: 4, QueueDepth: 64, Deadline: 2 * time.Second, BatchMax: 16,
			JournalPath: jpath, JournalSync: journalSync, Seed: 1,
		},
		EnableInject: true,
		FieldStore:   httpapi.FieldStoreHeap,
		DataDir:      dir,
	})
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Close(context.Background())
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &netServer{
		srv: srv, eng: eng, base: "http://" + l.Addr().String(), dir: dir, journal: jpath,
		hc:     &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 32}},
		cancel: cancel, done: make(chan error, 1),
	}
	go func() { s.done <- srv.Run(ctx, l) }()
	return s, nil
}

func (s *netServer) client(tenant string) *client.Client {
	return client.New(client.Config{BaseURL: s.base, Tenant: tenant, HTTPClient: s.hc})
}

// stop shuts the server down gracefully, waits for it, and removes its
// journal directory.
func (s *netServer) stop() error {
	s.cancel()
	err := <-s.done
	s.hc.CloseIdleConnections()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// plant corrupts offs of a with one bit flip each, as a memory fault would,
// and leaves each latent in the simulated machine until a demand access
// (the ingested event) discovers it. It returns the pre-fault values.
func (s *netServer) plant(a *registry.Allocation, offs, bits []int) []float64 {
	pre := make([]float64, len(offs))
	s.eng.WithArrayLock(a.Array, func() {
		for i, off := range offs {
			pre[i] = a.Array.AtOffset(off)
			a.Array.SetOffset(off, bitflip.Flip(pre[i], a.DType, bits[i]))
		}
	})
	for i, off := range offs {
		s.srv.Machine().Plant(a.AddrOf(off), bits[i])
	}
	return pre
}

func (s *netServer) journalBytesPerRecovery() float64 {
	fi, err := os.Stat(s.journal)
	if err != nil {
		return 0
	}
	st := s.srv.Service().Stats()
	return ratio(float64(fi.Size()), float64(st.Recovered+st.Failed))
}

// field is one registered allocation and the benchmark's view of it: the
// uploaded values, the values it expects the server to hold now, and the
// offsets that took a DUE.
type field struct {
	c      *client.Client
	name   string
	alloc  *registry.Allocation
	orig   []float64
	mu     sync.Mutex
	expect []float64
	hit    []bool
	failed []bool
	perm   []int // DUE offset order; a cell recurs only after a full cycle
	pos    int
	recent []int  // the latest scheduled offsets (paced)
	cursor uint64 // outcome feed position (paced)
}

// smoothField builds a float32-representable smooth field whose phase and
// orientation come from rng.
func smoothField(rows, cols int, rng *rand.Rand) []float64 {
	p1, p2 := rng.Float64()*2*math.Pi, rng.Float64()*2*math.Pi
	k1, k2 := 1+rng.Float64(), 1+rng.Float64()
	v := make([]float64, rows*cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			x, y := float64(i)/float64(rows), float64(j)/float64(cols)
			v[i*cols+j] = float64(float32(100 +
				10*math.Sin(2*math.Pi*k1*x+p1)*math.Cos(2*math.Pi*k2*y+p2) +
				5*(x+y)))
		}
	}
	return v
}

// fieldSeed fixes the uploaded fields: they are the same for every
// benchmark seed, which varies only the faults and their arrivals.
const fieldSeed = 2023

// registerField registers a rows x cols float32 RECOVER_ANY allocation with
// a value range through the SDK and uploads a smooth field drawn from rng.
func registerField(ctx context.Context, s *netServer, tenant, name string, rows, cols int, rng *rand.Rand, spans *spanLog) (*field, error) {
	c := s.client(tenant)
	t0 := time.Now()
	if _, err := c.Register(ctx, httpapi.RegisterRequest{
		Name: name, Dims: []int{rows, cols}, DType: "float32",
		Policy: httpapi.PolicyInfo{Any: true, Range: &httpapi.RangeInfo{Lo: 50, Hi: 150}},
	}); err != nil {
		return nil, fmt.Errorf("register %s/%s: %w", tenant, name, err)
	}
	t1 := time.Now()
	spans.add("client.Register", "setup", "", t0, t1)
	vals := smoothField(rows, cols, rng)
	if err := c.Upload(ctx, name, vals); err != nil {
		return nil, fmt.Errorf("upload %s/%s: %w", tenant, name, err)
	}
	spans.add("client.Upload", "setup", "", t1, time.Now())
	a, ok := s.eng.Table().ByTenantName(tenant, name)
	if !ok {
		return nil, fmt.Errorf("allocation %s/%s missing after register", tenant, name)
	}
	return &field{
		c: c, name: name, alloc: a, orig: vals,
		expect: append([]float64(nil), vals...),
		hit:    make([]bool, len(vals)), failed: make([]bool, len(vals)),
	}, nil
}

// settled records a terminal outcome for off.
func (f *field) settled(off int, ok bool, v float64) {
	f.mu.Lock()
	if ok {
		f.expect[off] = v
	} else {
		f.failed[off] = true
	}
	f.mu.Unlock()
}

// checkFinal downloads the field and verifies it against the expected
// values: cells differ from the upload only at DUE offsets, and every
// recovered cell holds the value its outcome reported.
func (f *field) checkFinal(ctx context.Context, label string) []string {
	got, err := f.c.Download(ctx, f.name)
	if err != nil {
		return []string{fmt.Sprintf("%s: download: %v", label, err)}
	}
	if len(got) != len(f.orig) {
		return []string{fmt.Sprintf("%s: downloaded %d values, want %d", label, len(got), len(f.orig))}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	stray, wrong := 0, 0
	for i, v := range got {
		if f.failed[i] {
			continue
		}
		if math.Float64bits(v) != math.Float64bits(f.orig[i]) && !f.hit[i] {
			stray++
		}
		if math.Float64bits(v) != math.Float64bits(f.expect[i]) {
			wrong++
		}
	}
	var problems []string
	if stray > 0 {
		problems = append(problems, fmt.Sprintf("%s: %d cells changed outside DUE offsets", label, stray))
	}
	if wrong > 0 {
		problems = append(problems, fmt.Sprintf("%s: %d cells differ from their reported outcome", label, wrong))
	}
	return problems
}

// checkQuarantine verifies the tenant's quarantine is empty.
func checkQuarantine(ctx context.Context, c *client.Client, label string) []string {
	q, err := c.Quarantine(ctx)
	if err != nil {
		return []string{fmt.Sprintf("%s: quarantine: %v", label, err)}
	}
	if q.Total != 0 {
		return []string{fmt.Sprintf("%s: %d cells still quarantined", label, q.Total)}
	}
	return nil
}

// faultSpacing is the least Chebyshev distance, in cells, between DUEs
// that can be outstanding at the same time. Each DUE is then a single-cell
// fault in an otherwise intact neighbourhood, the paper's fault model: the
// tuner probes up to 3 cells out with stencils of radius up to 3, so a
// closer latent fault would be read before it is reported and quarantined.
const faultSpacing = 6

// spaced reports whether off lies more than faultSpacing cells from every
// offset in others, in a field cols wide.
func spaced(off int, others []int, cols int) bool {
	r, c := off/cols, off%cols
	for _, o := range others {
		dr, dc := o/cols-r, o%cols-c
		if dr <= faultSpacing && dr >= -faultSpacing && dc <= faultSpacing && dc >= -faultSpacing {
			return false
		}
	}
	return true
}

// nextSpaced advances *pos through order to the next offset spaced from
// others and returns it; ok is false after a full cycle without one.
func nextSpaced(order []int, pos *int, others []int, cols int) (off int, ok bool) {
	for range order {
		off = order[*pos]
		*pos = (*pos + 1) % len(order)
		if spaced(off, others, cols) {
			return off, true
		}
	}
	return 0, false
}

// settleTimeout bounds the wait for an outstanding DUE's outcome.
const settleTimeout = 10 * time.Second

// ---- storm ---------------------------------------------------------------

// storm is a same-array storm: closed-loop clients share one tenant and
// one allocation, each owning a block of rows (blocks are faultSpacing
// rows apart), and send bursts of DUEs as one NDJSON IngestBatch.
type storm struct {
	cfg     config
	srv     *netServer
	f       *field
	clients []*stormClient
}

// stormJournalSync is off: storm journals every intent and outcome, but
// does not fsync them. With fsync on, its figures follow the shared disk's
// fsync latency, which moved by 2x and more between runs of the same code,
// far past the benchmark's bounds. paced keeps the shipped fsync.
const stormJournalSync = false

type stormClient struct {
	rng    *rand.Rand
	offs   []int // this client's block of rows, in DUE order
	pos    int
	cursor uint64
}

func setupStorm(cfg config, rep int, spans *spanLog) (instance, error) {
	ctx := context.Background()
	t0 := time.Now()
	srv, err := startServer(filepath.Join(cfg.workDir, fmt.Sprintf("storm-%d-%d", os.Getpid(), rep)), stormJournalSync)
	if err != nil {
		return nil, err
	}
	spans.add("httpapi.NewServer", "setup", "", t0, time.Now())
	rng := rand.New(rand.NewSource(fieldSeed))
	n := cfg.shape.stormDim
	f, err := registerField(ctx, srv, "storm", "field", n, n, rng, spans)
	if err != nil {
		_ = srv.stop()
		return nil, err
	}
	w := &storm{cfg: cfg, srv: srv, f: f}
	for c := 0; c < cfg.shape.stormConns; c++ {
		sc := &stormClient{rng: rand.New(rand.NewSource(cfg.seed*7919 + int64(c)))}
		rows := n / cfg.shape.stormConns
		for row := c * rows; row < (c+1)*rows-faultSpacing; row++ {
			for col := 0; col < n; col++ {
				sc.offs = append(sc.offs, row*n+col)
			}
		}
		sc.rng.Shuffle(len(sc.offs), func(i, j int) { sc.offs[i], sc.offs[j] = sc.offs[j], sc.offs[i] })
		w.clients = append(w.clients, sc)
	}
	return w, nil
}

// pollGap is how long a closed-loop storm client waits between outcome
// polls while DUEs of its burst are outstanding.
const pollGap = 500 * time.Microsecond

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

func (w *storm) run(d time.Duration, record bool, spans *spanLog) (phaseResult, error) {
	before := takeSnapshot([]*core.Engine{w.srv.eng}, w.srv.srv.Service())
	results := make([]phaseResult, len(w.clients))
	for i := range results {
		results[i] = newPhase(d)
	}
	errs := make([]error, len(w.clients))
	start := time.Now()
	var wg sync.WaitGroup
	for i, sc := range w.clients {
		wg.Add(1)
		go func(sc *stormClient, res *phaseResult, errp *error) {
			defer wg.Done()
			var prevEnd time.Time
			for time.Since(start) < d {
				end, err := w.burst(sc, res, spans, start, prevEnd)
				if err != nil {
					*errp = err
					return
				}
				prevEnd = end
			}
		}(sc, &results[i], &errs[i])
	}
	wg.Wait()
	total := newPhase(d)
	for i := range results {
		if errs[i] != nil {
			return total, errs[i]
		}
		total.add(results[i])
	}
	total.delta = takeSnapshot([]*core.Engine{w.srv.eng}, w.srv.srv.Service()).sub(before)
	if !record {
		return phaseResult{}, nil
	}
	return total, nil
}

// burst plants one burst of DUEs, ingests it as one NDJSON batch, and
// follows the outcome feed until every DUE of the burst has settled. start
// is the phase start. prevEnd is when the client's previous burst settled
// (zero for the first); the gap to this send is the closed-loop
// generator's delay.
func (w *storm) burst(sc *stormClient, res *phaseResult, spans *spanLog, start, prevEnd time.Time) (time.Time, error) {
	ctx := context.Background()
	f := w.f
	n := w.cfg.shape.stormBurst
	offs, bits := make([]int, 0, n), make([]int, n)
	for len(offs) < n {
		off, ok := nextSpaced(sc.offs, &sc.pos, offs, w.cfg.shape.stormDim)
		if !ok {
			return time.Now(), fmt.Errorf("storm: no cell %d apart from the burst's %d", faultSpacing, len(offs))
		}
		offs = append(offs, off)
	}
	for i := range bits {
		bits[i] = sc.rng.Intn(f.alloc.DType.Bits())
	}
	f.mu.Lock()
	for _, off := range offs {
		f.hit[off] = true
	}
	f.mu.Unlock()
	pre := w.srv.plant(f.alloc, offs, bits)
	evs := make([]httpapi.EventRequest, n)
	for i := range evs {
		evs[i] = httpapi.EventRequest{Addr: f.alloc.AddrOf(offs[i]), Bit: bits[i]}
	}

	tSend := time.Now()
	if !prevEnd.IsZero() {
		res.genLate.add(ms(tSend.Sub(prevEnd)))
	}
	results, err := f.c.IngestBatch(ctx, evs)
	tResp := time.Now()
	if err != nil {
		return tResp, fmt.Errorf("storm: ingest batch: %w", err)
	}
	if len(results) != n {
		return tResp, fmt.Errorf("storm: ingest batch answered %d of %d events", len(results), n)
	}
	spans.add("client.IngestBatch", "burst", "", tSend, tResp)
	res.ingest.add(us(tResp.Sub(tSend)))
	res.events += n
	res.attempted += n
	pending := make(map[int]int, n) // offset -> index in the burst
	for i, r := range results {
		switch r.Status {
		case httpapi.StatusAccepted:
			pending[offs[i]] = i
		case httpapi.StatusLatched:
			res.latched++
			pending[offs[i]] = i
		default:
			f.settled(offs[i], false, 0)
			res.fail(fmt.Sprintf("storm offset %d rejected: %+v", offs[i], r.Error))
		}
	}

	deadline := tResp.Add(settleTimeout)
	for len(pending) > 0 {
		tp := time.Now()
		page, err := f.c.Outcomes(ctx, sc.cursor, f.name, 1000)
		spans.add("client.Outcomes", "burst", "", tp, time.Now())
		if err != nil {
			return time.Now(), fmt.Errorf("storm: outcomes: %w", err)
		}
		if page.Dropped {
			return time.Now(), errors.New("storm: outcome feed dropped records")
		}
		sc.cursor = page.Next
		for _, rec := range page.Outcomes {
			i, ok := pending[rec.Offset]
			if !ok {
				continue
			}
			delete(pending, rec.Offset)
			f.settled(rec.Offset, rec.OK, rec.New)
			end := time.Unix(0, rec.UnixNano)
			spans.add("due", "", rec.TraceID, tSend, end)
			if rec.OK {
				res.observe(ms(end.Sub(tSend)), end.Sub(start).Seconds(), rec.New, pre[i])
			} else {
				res.fail(fmt.Sprintf("storm offset %d: code %s: %s", rec.Offset, rec.Code, rec.Error))
			}
		}
		if len(pending) == 0 {
			break
		}
		if time.Now().After(deadline) {
			for off := range pending {
				f.settled(off, false, 0)
				res.fail(fmt.Sprintf("storm offset %d: no outcome within %v", off, settleTimeout))
			}
			break
		}
		time.Sleep(pollGap)
	}
	return time.Now(), nil
}

func (w *storm) check(out io.Writer) []string {
	ctx := context.Background()
	return append(checkQuarantine(ctx, w.f.c, "storm"), w.f.checkFinal(ctx, "storm")...)
}

func (w *storm) digest() *uint64                  { return nil }
func (w *storm) journalBytesPerRecovery() float64 { return w.srv.journalBytesPerRecovery() }
func (w *storm) slowTraces() []trace.Summary      { return w.srv.eng.Tracer().Top() }
func (w *storm) close() error                     { return w.srv.stop() }

// ---- paced ---------------------------------------------------------------

// paced is an open loop: Poisson arrivals at a fixed rate over several
// tenants, one Ingest POST per DUE, sent by a few sender goroutines.
type paced struct {
	cfg    config
	srv    *netServer
	fields []*field
	rng    *rand.Rand // arrival schedule
}

// arrival is one scheduled DUE.
type arrival struct {
	at     time.Duration // since the phase start
	tenant int
	off    int
	bit    int
}

// pacedPoll is the outcome-feed poll period; latency is taken from the
// outcome record's own timestamp, so the period does not bias it.
const pacedPoll = 20 * time.Millisecond

func setupPaced(cfg config, rep int, spans *spanLog) (instance, error) {
	ctx := context.Background()
	t0 := time.Now()
	srv, err := startServer(filepath.Join(cfg.workDir, fmt.Sprintf("paced-%d-%d", os.Getpid(), rep)), true)
	if err != nil {
		return nil, err
	}
	spans.add("httpapi.NewServer", "setup", "", t0, time.Now())
	rng := rand.New(rand.NewSource(fieldSeed))
	perms := rand.New(rand.NewSource(cfg.seed))
	w := &paced{cfg: cfg, srv: srv, rng: rand.New(rand.NewSource(cfg.seed*7919 + 1000))}
	n := cfg.shape.pacedDim
	for t := 0; t < cfg.shape.pacedTen; t++ {
		f, err := registerField(ctx, srv, fmt.Sprintf("tenant%d", t), "field", n, n, rng, spans)
		if err != nil {
			_ = srv.stop()
			return nil, err
		}
		f.perm = perms.Perm(len(f.orig))
		w.fields = append(w.fields, f)
	}
	return w, nil
}

// schedule draws the arrivals of one phase of length d. Each DUE keeps
// faultSpacing away from its tenant's latest pacedRecent DUEs.
func (w *paced) schedule(d time.Duration) ([]arrival, error) {
	var out []arrival
	at := 0.0
	for {
		at += w.rng.ExpFloat64() / w.cfg.shape.pacedRate
		if at >= d.Seconds() {
			return out, nil
		}
		t := w.rng.Intn(len(w.fields))
		f := w.fields[t]
		off, ok := nextSpaced(f.perm, &f.pos, f.recent, w.cfg.shape.pacedDim)
		if !ok {
			return nil, fmt.Errorf("paced: no cell of tenant%d %d apart from its latest DUEs", t, faultSpacing)
		}
		if f.recent = append(f.recent, off); len(f.recent) > w.cfg.shape.pacedRecent {
			f.recent = f.recent[1:]
		}
		out = append(out, arrival{at: time.Duration(at * 1e9), tenant: t, off: off,
			bit: w.rng.Intn(f.alloc.DType.Bits())})
	}
}

// pendingDUE is a sent DUE awaiting its outcome.
type pendingDUE struct {
	due time.Time
	pre float64
}

func (w *paced) run(d time.Duration, record bool, spans *spanLog) (phaseResult, error) {
	ctx := context.Background()
	before := takeSnapshot([]*core.Engine{w.srv.eng}, w.srv.srv.Service())
	sched, err := w.schedule(d)
	if err != nil {
		return phaseResult{}, err
	}

	var (
		mu      sync.Mutex // guards pending, res and sendErr
		pending = map[[2]int]pendingDUE{}
		res     = newPhase(d)
		sendErr error
		next    atomic.Int64
		wg      sync.WaitGroup
	)
	start := time.Now()
	for s := 0; s < w.cfg.shape.pacedSend; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sched) {
					return
				}
				a := sched[i]
				f := w.fields[a.tenant]
				due := start.Add(a.at)
				if dt := time.Until(due); dt > 0 {
					time.Sleep(dt)
				}
				f.mu.Lock()
				f.hit[a.off] = true
				f.mu.Unlock()
				pre := w.srv.plant(f.alloc, []int{a.off}, []int{a.bit})[0]
				key := [2]int{a.tenant, a.off}
				mu.Lock()
				pending[key] = pendingDUE{due: due, pre: pre}
				mu.Unlock()
				t0 := time.Now()
				er, err := f.c.Ingest(ctx, httpapi.EventRequest{Addr: f.alloc.AddrOf(a.off), Bit: a.bit})
				t1 := time.Now()
				traceID := ""
				if er != nil {
					traceID = er.TraceID
				}
				spans.add("client.Ingest", "due", traceID, t0, t1)
				mu.Lock()
				res.events++
				res.attempted++
				res.ingest.add(us(t1.Sub(t0)))
				res.genLate.add(ms(t0.Sub(due)))
				switch {
				case err == nil:
				case er != nil && er.Status == httpapi.StatusLatched:
					res.latched++
				default:
					delete(pending, key)
					f.settled(a.off, false, 0)
					res.fail(fmt.Sprintf("paced tenant%d offset %d: ingest: %v", a.tenant, a.off, err))
					if er == nil && sendErr == nil {
						sendErr = fmt.Errorf("paced: ingest: %w", err)
					}
				}
				mu.Unlock()
			}
		}()
	}
	sent := make(chan struct{})
	go func() { wg.Wait(); close(sent) }()

	var pollErr error
	var sentAt time.Time
	for {
		if sentAt.IsZero() {
			select {
			case <-sent:
				sentAt = time.Now()
			default:
			}
		}
		for t, f := range w.fields {
			tp := time.Now()
			page, err := f.c.Outcomes(ctx, f.cursor, f.name, 1000)
			spans.add("client.Outcomes", "", "", tp, time.Now())
			if err != nil || page.Dropped {
				if pollErr == nil {
					pollErr = fmt.Errorf("paced: outcomes of tenant %d: err=%v dropped=%v", t, err, page != nil && page.Dropped)
				}
				continue
			}
			f.cursor = page.Next
			for _, rec := range page.Outcomes {
				key := [2]int{t, rec.Offset}
				mu.Lock()
				p, ok := pending[key]
				delete(pending, key)
				mu.Unlock()
				if !ok {
					continue
				}
				f.settled(rec.Offset, rec.OK, rec.New)
				end := time.Unix(0, rec.UnixNano)
				spans.add("due", "", rec.TraceID, p.due, end)
				mu.Lock()
				if rec.OK {
					res.observe(ms(end.Sub(p.due)), end.Sub(start).Seconds(), rec.New, p.pre)
				} else {
					res.fail(fmt.Sprintf("paced tenant%d offset %d: code %s: %s", t, rec.Offset, rec.Code, rec.Error))
				}
				mu.Unlock()
			}
		}
		if !sentAt.IsZero() {
			mu.Lock()
			left := len(pending)
			if left > 0 && time.Since(sentAt) > settleTimeout {
				for key := range pending {
					w.fields[key[0]].settled(key[1], false, 0)
					res.fail(fmt.Sprintf("paced tenant%d offset %d: no outcome within %v", key[0], key[1], settleTimeout))
				}
				pending = map[[2]int]pendingDUE{}
				left = 0
			}
			mu.Unlock()
			if left == 0 {
				break
			}
		}
		time.Sleep(pacedPoll)
	}
	if sendErr != nil {
		return phaseResult{}, sendErr
	}
	if pollErr != nil {
		return phaseResult{}, pollErr
	}
	res.delta = takeSnapshot([]*core.Engine{w.srv.eng}, w.srv.srv.Service()).sub(before)
	if !record {
		return phaseResult{}, nil
	}
	return res, nil
}

func (w *paced) check(out io.Writer) []string {
	ctx := context.Background()
	var problems []string
	for t, f := range w.fields {
		label := fmt.Sprintf("paced tenant%d", t)
		problems = append(problems, checkQuarantine(ctx, f.c, label)...)
		problems = append(problems, f.checkFinal(ctx, label)...)
	}
	return problems
}

func (w *paced) digest() *uint64                  { return nil }
func (w *paced) journalBytesPerRecovery() float64 { return w.srv.journalBytesPerRecovery() }
func (w *paced) slowTraces() []trace.Summary      { return w.srv.eng.Tracer().Top() }
func (w *paced) close() error                     { return w.srv.stop() }
