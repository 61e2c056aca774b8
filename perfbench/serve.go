package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"dasesim/internal/config"
	"dasesim/internal/estimate"
	"dasesim/internal/kernels"
	"dasesim/internal/server"
	"dasesim/internal/sim"
)

// serveSize sizes the three serve phases.
type serveSize struct {
	closed    time.Duration // closed-loop /v1/estimate
	open      time.Duration // open-loop /v1/estimate at rate
	rate      float64       // open-loop requests per second
	warmup    time.Duration // closed-loop /v1/estimate before measuring
	rounds    int           // rounds of closed-loop /v1/jobs submissions
	jobs      int           // jobs per round; 100 leave ten beyond the p90
	jobCycles uint64        // cycle budget per job
}

var (
	serveProbe = serveSize{warmup: 500 * time.Millisecond, closed: time.Second, open: 2 * time.Second, rate: 1000, rounds: 2, jobs: 100, jobCycles: 4_000}
	serveShort = serveSize{warmup: 100 * time.Millisecond, closed: 200 * time.Millisecond, open: 300 * time.Millisecond, rate: 500, rounds: 1, jobs: 12, jobCycles: 4_000}
)

// corpusCycles is the simulation behind the estimate corpus: two 50K-cycle
// intervals per workload.
const corpusCycles = 100_000

// makeCorpus turns the interval snapshots of a seeded pair and quad into
// /v1/estimate bodies, so requests carry realistic counters.
func makeCorpus(seed uint64) ([][]byte, error) {
	cfg := config.Default()
	all := kernels.All()
	order := rand.New(rand.NewPCG(seed, 0x636f_7270)).Perm(len(all))
	combos := [][]kernels.Profile{
		{all[order[0]], all[order[1]]},
		{all[order[2]], all[order[3]], all[order[4]], all[order[5]]},
	}
	results := make([]*sim.Result, len(combos))
	errs := make([]error, len(combos))
	var wg sync.WaitGroup
	for i, ps := range combos {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = sim.RunShared(cfg, ps, sim.EvenAllocation(cfg.NumSMs, len(ps)), corpusCycles, seed)
		}()
	}
	wg.Wait()
	var corpus [][]byte
	for i, res := range results {
		if errs[i] != nil {
			return nil, errs[i]
		}
		for j := range res.Snapshots {
			req := estimate.FromSnapshot(&res.Snapshots[j])
			corpus = append(corpus, estimate.AppendRequest(nil, &req))
		}
	}
	return corpus, nil
}

// makeJobRequests builds one round of the jobs phase: shared-mode jobs on
// pairs chained through seeded kernel orders, each with a fresh seed, and
// every fourth request a repeat of an earlier one of the round (a
// result-cache hit unless it is still running).
func makeJobRequests(seed uint64, round, n int, cycles uint64) (reqs []server.JobRequest, fresh []bool) {
	all := kernels.All()
	rng := rand.New(rand.NewPCG(seed, 0x6a6f_6273+uint64(round)))
	var order []int
	var chain []server.JobRequest
	for i := 0; i < n; i++ {
		if i%4 == 3 && len(chain) > 2 {
			reqs = append(reqs, chain[rng.IntN(len(chain)-2)])
			fresh = append(fresh, false)
			continue
		}
		if len(order) < 2 {
			order = append(order, rng.Perm(len(all))...)
		}
		a, c := all[order[0]].Abbr, all[order[1]].Abbr
		order = order[1:]
		r := server.JobRequest{Kernels: []string{a, c}, Cycles: cycles, Seed: 1 + rng.Uint64N(1<<30)}
		chain = append(chain, r)
		reqs = append(reqs, r)
		fresh = append(fresh, true)
	}
	return reqs, fresh
}

// serveEnv is one in-process dased on a loopback listener.
type serveEnv struct {
	dir     string
	log     *os.File
	srv     *server.Server
	httpSrv *http.Server
	done    chan error // Serve's return value
	url     string
	client  *http.Client
	handler *tracedHandler // nil in untraced runs
	corpus  [][]byte
}

// startServe builds dased the way cmd/dased does with its defaults, with the
// journal on in a fresh directory and the request log written to a file.
func startServe(seed uint64, tr *tracer) (*serveEnv, error) {
	corpus, err := makeCorpus(seed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(buildDir, "serve-")
	if err != nil {
		return nil, err
	}
	e := &serveEnv{dir: dir, corpus: corpus}
	fail := func(err error) (*serveEnv, error) {
		e.close()
		return nil, err
	}
	if e.log, err = os.Create(dir + "/dased.log"); err != nil {
		return fail(err)
	}
	e.srv, err = server.New(server.Options{
		QueueDepth:    64,
		JobTimeout:    2 * time.Minute,
		DefaultCycles: 300_000,
		MaxCycles:     20_000_000,
		CacheEntries:  512,
		JournalPath:   dir + "/dased.wal",
		MaxRetries:    2,
		Logger:        slog.New(slog.NewTextHandler(e.log, nil)),
	})
	if err != nil {
		return fail(err)
	}
	e.srv.Start()
	var h http.Handler = e.srv.Handler()
	if tr != nil {
		e.handler = &tracedHandler{inner: h, tr: tr}
		h = e.handler
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	e.httpSrv = &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	e.done = make(chan error, 1)
	go func() { e.done <- e.httpSrv.Serve(ln) }()
	e.url = "http://" + ln.Addr().String()
	conns := runtime.NumCPU()
	e.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}
	// Warm up: one estimate, so the first measured request does not pay
	// for connection set-up.
	if st, _, err := e.post("/v1/estimate", corpus[0], ""); err != nil || st != http.StatusOK {
		return fail(fmt.Errorf("warm-up estimate: status %d, %v", st, err))
	}
	return e, nil
}

// close stops the HTTP server and dased, waits for both, and removes the
// temporary directory.
func (e *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if e.httpSrv != nil {
		_ = e.httpSrv.Shutdown(ctx) // drains in-flight requests; a timeout leaves nothing to undo
		<-e.done
	}
	if e.client != nil {
		e.client.CloseIdleConnections()
	}
	if e.srv != nil {
		_ = e.srv.Shutdown(ctx) // a drain error only means jobs were cancelled; the run is over
	}
	if e.log != nil {
		e.log.Close()
	}
	os.RemoveAll(e.dir)
}

// post sends one request and returns the status and body.
func (e *serveEnv) post(path string, body []byte, traceHdr string) (int, []byte, error) {
	return e.do(http.MethodPost, path, body, traceHdr)
}

func (e *serveEnv) do(method, path string, body []byte, traceHdr string) (int, []byte, error) {
	req, err := http.NewRequest(method, e.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if traceHdr != "" {
		req.Header.Set(traceHeader, traceHdr)
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// clientSpan starts a load-generator span when tracing is on; finish records
// it. With tracing off both are no-ops.
type clientSpan struct {
	tr        *tracer
	trace, id uint64
	start     int64
	hdr, name string
}

func startClientSpan(tr *tracer, name string) clientSpan {
	if tr == nil {
		return clientSpan{}
	}
	cs := clientSpan{tr: tr, trace: tr.newID(), id: tr.newID(), start: tr.now(), name: name}
	cs.hdr = formatTraceHeader(cs.trace, cs.id)
	return cs
}

func (cs clientSpan) finish() {
	if cs.tr != nil {
		cs.tr.add(span{Name: cs.name, Trace: cs.trace, ID: cs.id, Start: cs.start, End: cs.tr.now()})
	}
}

// phaseCount is the requests one phase sent and the ones that failed.
type phaseCount struct{ sent, failed int }

// closedResult is what one closed-loop phase observed.
type closedResult struct {
	phaseCount
	first [][]byte // the first answer to each corpus body
}

// closedLoop runs one estimate client per CPU for d, each sending the next
// corpus body as soon as the previous answer arrives.
func (e *serveEnv) closedLoop(d time.Duration, tr *tracer) closedResult {
	workers := runtime.NumCPU()
	first := make([][]byte, len(e.corpus))
	var mu sync.Mutex
	var pc phaseCount
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var c phaseCount
			for i := w; time.Now().Before(deadline); i += workers {
				k := i % len(e.corpus)
				cs := startClientSpan(tr, "load.estimate")
				st, body, err := e.post("/v1/estimate", e.corpus[k], cs.hdr)
				cs.finish()
				c.sent++
				if err != nil || st != http.StatusOK {
					c.failed++
					continue
				}
				mu.Lock()
				if first[k] == nil {
					first[k] = body
				}
				mu.Unlock()
			}
			mu.Lock()
			pc.sent += c.sent
			pc.failed += c.failed
			mu.Unlock()
		}()
	}
	wg.Wait()
	return closedResult{phaseCount: pc, first: first}
}

// clock is the time source of the open-loop generator; tests substitute a
// fake.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

// spinWindow is how long before a due time the generator stops sleeping and
// spins. It covers the kernel's timer slack: the runtime's own timers wake
// up to a millisecond late, so the generator sleeps in nanosleep(2) instead.
const spinWindow = 80 * time.Microsecond

func (realClock) SleepUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an early wake-up only lengthens the spin
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// openResult holds, per request, the latency counted from its due time, how
// late it was sent, and whether it failed.
type openResult struct {
	latency, late []time.Duration
	failed        []bool
}

// openLoop sends n requests due at start + i/rate through a fixed set of
// workers. The generator waits for each due time and hands the request to
// the next free worker; when every worker is busy the hand-off waits, the
// send is late, and that lateness counts in the request's latency, which
// runs from the due time to the answer.
func openLoop(clk clock, start time.Time, rate float64, n, workers int, send func(i int) error) openResult {
	res := openResult{latency: make([]time.Duration, n), late: make([]time.Duration, n), failed: make([]bool, n)}
	due := func(i int) time.Time { return start.Add(time.Duration(float64(i) / rate * float64(time.Second))) }
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				d := due(i)
				res.late[i] = clk.Now().Sub(d)
				res.failed[i] = send(i) != nil
				res.latency[i] = clk.Now().Sub(d)
			}
		}()
	}
	for i := 0; i < n; i++ {
		clk.SleepUntil(due(i))
		work <- i
	}
	close(work)
	wg.Wait()
	return res
}

// jobOutcome is one job of the jobs phase, as the client saw it.
type jobOutcome struct {
	latency time.Duration
	view    server.JobView
	ok      bool
}

// runJob submits one job and long-polls it to a terminal state.
func (e *serveEnv) runJob(req server.JobRequest, tr *tracer) jobOutcome {
	body, _ := json.Marshal(req) // a JobRequest always marshals
	cs := startClientSpan(tr, "load.job")
	defer cs.finish()
	t0 := time.Now()
	var out jobOutcome
	st, data, err := e.post("/v1/jobs", body, cs.hdr)
	if err != nil || st != http.StatusAccepted {
		out.latency = time.Since(t0)
		return out
	}
	var v server.JobView
	if err := json.Unmarshal(data, &v); err != nil {
		out.latency = time.Since(t0)
		return out
	}
	for v.Status == server.StatusQueued || v.Status == server.StatusRunning {
		st, data, err = e.do(http.MethodGet, "/v1/jobs/"+v.ID+"?wait_ms=60000", nil, cs.hdr)
		if err != nil || st != http.StatusOK {
			out.latency = time.Since(t0)
			return out
		}
		if err := json.Unmarshal(data, &v); err != nil {
			out.latency = time.Since(t0)
			return out
		}
	}
	out.latency, out.view, out.ok = time.Since(t0), v, v.Status == server.StatusDone
	return out
}

// jobsPhase runs the job list with one closed-loop client per CPU.
func (e *serveEnv) jobsPhase(reqs []server.JobRequest, tr *tracer) []jobOutcome {
	out := make([]jobOutcome, len(reqs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = e.runJob(reqs[i], tr)
			}
		}()
	}
	for i := range reqs {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// promValue reads an unlabelled sample from the server's metrics registry.
func promValue(srv *server.Server, name string) float64 {
	var buf bytes.Buffer
	srv.MetricsRegistry().WritePrometheus(&buf)
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, _ := strconv.ParseFloat(strings.TrimSpace(v), 64)
			return f
		}
	}
	return 0
}

// runServe drives the serve path at its fixed size. It runs in every
// process, so the estimate and job checks always run; its figures are
// per-layer metrics of traced runs. (Its latency and rate figures are not
// end-to-end metrics: on a shared virtual machine they follow the
// hypervisor's wake-up latency, and varied far more between runs than any
// bound allows. See README.md.)
func runServe(b *bench) error {
	size := serveProbe
	if b.short {
		size = serveShort
	}
	e, err := startServe(probeSeed, b.tr)
	if err != nil {
		return err
	}
	defer e.close()

	// Warm-up: the first traffic after set-up runs at a fraction of the
	// steady rate (set-up garbage is still being collected), so it is sent
	// but not measured.
	runtime.GC()
	warm := e.closedLoop(size.warmup, nil)
	b.count(warm.sent, warm.failed)
	if e.handler != nil {
		e.handler.on.Store(true)
	}
	spanFrom := 0
	if b.tr != nil {
		spanFrom = b.tr.len()
	}

	// Phase 1: closed-loop estimates.
	runtime.GC()
	closed := e.closedLoop(size.closed, b.tr)
	b.count(closed.sent, closed.failed)
	qps := float64(closed.sent-closed.failed) / size.closed.Seconds()

	// Phase 2: open-loop estimates at a fixed rate, each timed from its due
	// time. A failed or refused request misses every latency limit: it
	// enters the percentiles as infinitely slow.
	n := int(size.rate * size.open.Seconds())
	runtime.GC()
	openSpanFrom := 0
	if b.tr != nil {
		openSpanFrom = b.tr.len()
	}
	open := openLoop(realClock{}, time.Now().Add(5*time.Millisecond), size.rate, n, runtime.NumCPU(), func(i int) error {
		cs := startClientSpan(b.tr, "load.open")
		defer cs.finish()
		st, _, err := e.post("/v1/estimate", e.corpus[i%len(e.corpus)], cs.hdr)
		if err == nil && st != http.StatusOK {
			err = fmt.Errorf("status %d", st)
		}
		return err
	})
	openFailed := 0
	var openLat, late []float64
	for i := range open.latency {
		late = append(late, float64(open.late[i])/float64(time.Microsecond))
		us := float64(open.latency[i]) / float64(time.Microsecond)
		if open.failed[i] {
			openFailed++
			us = inf
		}
		openLat = append(openLat, us)
	}
	b.count(n, openFailed)

	// Phase 3: closed-loop jobs, submit to done, in rounds of fresh
	// requests.
	var jobLat []float64
	var outs []jobOutcome
	jobsSent, jobsFailed := 0, 0
	for r := 0; r < size.rounds; r++ {
		reqs, fresh := makeJobRequests(probeSeed, r, size.jobs, size.jobCycles)
		runtime.GC()
		ro := e.jobsPhase(reqs, b.tr)
		for _, o := range ro {
			ms := float64(o.latency) / float64(time.Millisecond)
			if !o.ok {
				jobsFailed++
				ms = inf
			}
			jobLat = append(jobLat, ms)
		}
		jobsSent += len(reqs)
		if r == 0 {
			checkJobs(b, reqs, fresh, ro)
		}
		outs = append(outs, ro...)
	}
	b.count(jobsSent, jobsFailed)
	b.note("serve: closed %d sent %d failed, %.0f/s; open %d sent %d failed at %.0f/s, p50 %.0f p%g %.0f us; jobs %d sent %d failed, p50 %.1f p%g %.1f ms",
		closed.sent, closed.failed, qps, n, openFailed, size.rate, percentile(openLat, 50), supportedPercentile(len(openLat), 99), tail(openLat, 99),
		jobsSent, jobsFailed, percentile(jobLat, 50), supportedPercentile(len(jobLat), 90), tail(jobLat, 90))

	// Checks, outside the timed phases.
	checkEstimates(b, e.corpus, closed.first)

	if b.tr == nil {
		return nil
	}
	b.set("load.estimate_qps", qps)
	b.set("load.open_p50_us", percentile(openLat, 50))
	b.set("load.open_p99_us", tail(openLat, 99))
	b.set("load.job_p50_ms", percentile(jobLat, 50))
	b.set("load.job_p90_ms", tail(jobLat, 90))
	handlers := b.tr.since(spanFrom, "server.handler")
	var estH []float64
	handlerByTrace := map[uint64]time.Duration{}
	for _, s := range handlers {
		if s.Note == "/v1/estimate" {
			estH = append(estH, float64(s.dur())/float64(time.Microsecond))
			handlerByTrace[s.Trace] = s.dur()
		}
	}
	var gaps []float64
	for _, s := range b.tr.since(openSpanFrom, "load.open") {
		if h, ok := handlerByTrace[s.Trace]; ok {
			gaps = append(gaps, float64(s.dur()-h)/float64(time.Microsecond))
		}
	}
	b.set("estimate.process_us_p50", processP50(e.corpus))
	b.set("server.handler_us_p50", percentile(estH, 50))
	b.set("server.handler_us_p99", tail(estH, 99))
	b.set("server.client_gap_us_p50", percentile(gaps, 50))
	b.set("load.late_p50_us", percentile(late, 50))
	b.set("load.late_p99_us", tail(late, 99))
	var wait, run []float64
	for _, o := range outs {
		v := o.view
		if v.StartedAt != nil {
			wait = append(wait, float64(v.StartedAt.Sub(v.SubmittedAt))/float64(time.Millisecond))
			run = append(run, v.WallMS)
		}
	}
	b.set("server.queue_wait_ms_p50", percentile(wait, 50))
	b.set("server.job_run_ms_p50", percentile(run, 50))
	hits := promValue(e.srv, "dased_cache_hits_total")
	misses := promValue(e.srv, "dased_cache_misses_total")
	b.set("simcache.hit_ratio", ratio(hits, hits+misses))
	b.set("journal.records", promValue(e.srv, "dased_journal_records"))
	b.set("server.rejected", promValue(e.srv, "dased_jobs_rejected_total")+promValue(e.srv, "dased_jobs_shed_total")+promValue(e.srv, "dased_estimate_rejected_total"))
	b.set("load.closed_sent", float64(closed.sent))
	b.set("load.closed_failed", float64(closed.failed))
	b.set("load.open_sent", float64(n))
	b.set("load.open_failed", float64(openFailed))
	b.set("load.jobs_sent", float64(jobsSent))
	b.set("load.jobs_failed", float64(jobsFailed))
	return nil
}

var inf = float64(1 << 62)

// processP50 times the in-process estimate.Service.Process over the corpus
// and returns the median call in microseconds.
func processP50(corpus [][]byte) float64 {
	svc := estimate.NewService(estimate.Options{Cfg: config.Default()})
	sc := svc.Get()
	defer svc.Put(sc)
	var ts []float64
	for rep := 0; rep < 200; rep++ {
		for _, body := range corpus {
			sc.Body = append(sc.Body[:0], body...)
			t := time.Now()
			if err := svc.Process(sc); err != nil {
				return 0
			}
			ts = append(ts, float64(time.Since(t))/float64(time.Microsecond))
		}
	}
	return percentile(ts, 50)
}

// checkEstimates requires every served estimate body to equal, byte for
// byte, what the in-process service answers for the same request body.
func checkEstimates(b *bench, corpus, served [][]byte) {
	svc := estimate.NewService(estimate.Options{Cfg: config.Default()})
	sc := svc.Get()
	defer svc.Put(sc)
	checked := 0
	for i, body := range corpus {
		if served[i] == nil {
			continue
		}
		sc.Body = append(sc.Body[:0], body...)
		if err := svc.Process(sc); err != nil {
			b.problem("in-process estimate of corpus body %d: %v", i, err)
			continue
		}
		if !bytes.Equal(sc.Out, served[i]) {
			b.problem("served estimate for corpus body %d differs from in-process output", i)
		}
		checked++
	}
	if checked == 0 {
		b.problem("no served estimate body to check")
	}
}

// checkJobResults is how many fresh jobs are re-simulated directly.
const checkJobResults = 3

// checkJobs requires the first few fresh jobs' results to equal a direct
// sim.RunShared of the same request under the server's engine options.
func checkJobs(b *bench, reqs []server.JobRequest, fresh []bool, outs []jobOutcome) {
	cfg := config.Default()
	checked := 0
	for i, req := range reqs {
		if checked == checkJobResults {
			break
		}
		if !fresh[i] || !outs[i].ok || outs[i].view.Result == nil {
			continue
		}
		var ps []kernels.Profile
		for _, k := range req.Kernels {
			p, _ := kernels.ByAbbr(k)
			ps = append(ps, p)
		}
		direct, err := sim.RunShared(cfg, ps, sim.EvenAllocation(cfg.NumSMs, len(ps)), req.Cycles, req.Seed, sim.WithSnapshotRetention(4096))
		if err != nil {
			b.problem("direct run of job %d: %v", i, err)
			continue
		}
		want, _ := json.Marshal(direct)
		got, _ := json.Marshal(outs[i].view.Result.Sim)
		if !bytes.Equal(want, got) {
			b.problem("job %d (%v seed %d) result differs from a direct simulation", i, req.Kernels, req.Seed)
		}
		checked++
	}
	if checked == 0 {
		b.problem("no finished fresh job to check")
	}
	b.note("serve checks: %d job results re-simulated", checked)
}
