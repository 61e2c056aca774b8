package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dasesim/internal/core"
	"dasesim/internal/fleet"
	"dasesim/internal/kernels"
	"dasesim/internal/sched"
	"dasesim/internal/sim"
	"dasesim/internal/workload"
)

// span is one timed call across a layer boundary. Times are nanoseconds
// since the tracer started. Spans of one request, batch or replay share a
// trace ID; Parent is 0 for a root.
type span struct {
	Name   string `json:"name"`
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Note carries a span-specific label (the kernel of an alone lookup,
	// the request path of a handler call).
	Note string `json:"note,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run writes them out. It is safe for
// concurrent use. A nil *tracer is never called: untraced runs install no
// decorators at all.
type tracer struct {
	t0     time.Time
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) newID() uint64 { return t.nextID.Add(1) }

// add records a finished span and returns its ID.
func (t *tracer) add(s span) uint64 {
	if s.ID == 0 {
		s.ID = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// since returns the spans named name recorded at or after index from.
func (t *tracer) since(from int, name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans[from:] {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// writeFile writes every span as one JSON array.
func (t *tracer) writeFile(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// scope is where a decorator's spans attach: the trace and parent span of
// the batch, replay or tick in progress.
type scope struct {
	tr     *tracer
	trace  uint64
	parent uint64
}

func (sc scope) record(name, note string, start int64) {
	sc.tr.add(span{Name: name, Trace: sc.trace, Parent: sc.parent, Start: start, End: sc.tr.now(), Note: note})
}

// tracedBaseline times every alone-baseline lookup of a workload.Baseline.
type tracedBaseline struct {
	inner workload.BaselineContext
	sc    scope
}

func (b *tracedBaseline) Get(p kernels.Profile) (*sim.Result, error) {
	return b.GetContext(context.Background(), p)
}

func (b *tracedBaseline) GetContext(ctx context.Context, p kernels.Profile) (*sim.Result, error) {
	start := b.sc.tr.now()
	r, err := b.inner.GetContext(ctx, p)
	b.sc.record("workload.alone_get", p.Abbr, start)
	return r, err
}

// tracedEstimator times every per-interval Estimate call of a core.Estimator.
type tracedEstimator struct {
	inner core.Estimator
	name  string // span name, e.g. "core.dase"
	sc    scope
}

func (e *tracedEstimator) Name() string { return e.inner.Name() }

func (e *tracedEstimator) Estimate(snap *sim.IntervalSnapshot) []float64 {
	start := e.sc.tr.now()
	v := e.inner.Estimate(snap)
	e.sc.record(e.name, "", start)
	return v
}

// tracedPolicy times every OnInterval call of a sched.Policy.
type tracedPolicy struct {
	inner sched.Policy
	sc    scope
}

func (p *tracedPolicy) Name() string { return p.inner.Name() }

func (p *tracedPolicy) OnInterval(g *sim.GPU, snap *sim.IntervalSnapshot) {
	start := p.sc.tr.now()
	p.inner.OnInterval(g, snap)
	p.sc.record("sched.policy", "", start)
}

// tracedEngine times every Interval call of a fleet.Engine. The fleet steps
// GPUs one at a time, so the replay loop may move sc between ticks without
// locking.
type tracedEngine struct {
	inner fleet.Engine
	sc    scope
}

func (e *tracedEngine) Name() string { return e.inner.Name() }

func (e *tracedEngine) Interval(gpu, epoch int, profiles []kernels.Profile, alloc []int, seed, intervalCycles uint64) (*sim.IntervalSnapshot, []uint64, error) {
	start := e.sc.tr.now()
	snap, instr, err := e.inner.Interval(gpu, epoch, profiles, alloc, seed, intervalCycles)
	e.sc.record("fleet.engine", "", start)
	return snap, instr, err
}

// traceHeader carries the load generator's trace and span IDs to the
// handler wrapper, so a handler span joins its client span.
const traceHeader = "X-Perfbench-Trace"

// tracedHandler times every request the wrapped handler serves while on is
// set; when it is clear the wrapper only forwards.
type tracedHandler struct {
	inner http.Handler
	tr    *tracer
	on    atomic.Bool
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.on.Load() {
		h.inner.ServeHTTP(w, r)
		return
	}
	start := h.tr.now()
	h.inner.ServeHTTP(w, r)
	trace, parent := parseTraceHeader(r.Header.Get(traceHeader))
	h.tr.add(span{Name: "server.handler", Trace: trace, Parent: parent, Start: start, End: h.tr.now(), Note: r.URL.Path})
}

func formatTraceHeader(trace, parent uint64) string {
	return strconv.FormatUint(trace, 16) + "-" + strconv.FormatUint(parent, 16)
}

func parseTraceHeader(v string) (trace, parent uint64) {
	a, b, _ := strings.Cut(v, "-")
	trace, _ = strconv.ParseUint(a, 16, 64)
	parent, _ = strconv.ParseUint(b, 16, 64)
	return trace, parent
}

// sumDur adds up the durations of spans.
func sumDur(ss []span) time.Duration {
	var d time.Duration
	for _, s := range ss {
		d += s.dur()
	}
	return d
}

// meanUS returns the mean span duration in microseconds.
func meanUS(ss []span) float64 {
	if len(ss) == 0 {
		return 0
	}
	return float64(sumDur(ss)) / float64(len(ss)) / float64(time.Microsecond)
}
