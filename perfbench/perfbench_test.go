package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// inTempDir runs the test from a fresh directory, so the temporary files a run
// writes under .bench_build stay out of the source tree.
func inTempDir(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	})
}

func TestSupportedPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		got  float64
	}{
		{10_000, 99.9, 99.9},
		{9_999, 99.9, 99},
		{1_000, 99, 99},
		{999, 99, 95},
		{100, 90, 90},
		{99, 90, 75},
		{100, 99, 90},
		{40, 90, 75},
		{20, 99, 50},
		{5, 99, 50},
	}
	for _, c := range cases {
		if got := supportedPercentile(c.n, c.want); got != c.got {
			t.Errorf("supportedPercentile(%d, %g) = %g, want %g", c.n, c.want, got, c.got)
		}
	}
	// Nearest rank: the p99 of 1..1000 leaves exactly ten values above it.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i)
	}
	if got := tail(xs, 99); got != 990 {
		t.Errorf("tail(1..1000, 99) = %g, want 990", got)
	}
	if got := tail(xs[:500], 99); got != percentile(xs[:500], 95) {
		t.Errorf("tail of 500 samples = %g, want their p95", got)
	}
}

// fakeClock moves only when a send advances it, so which goroutine runs
// first cannot change a reading. SleepUntil does not move it: in the test
// every due time after the stall has already passed when it is awaited.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(time.Time) {}

func (c *fakeClock) advanceTo(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.After(c.now) {
		c.now = t
	}
}

func TestOpenLoopCountsLateSend(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	const gap = 10 * time.Millisecond // 100 requests per second
	// Request 0 stalls the only worker for three gaps, so requests 1 and 2
	// go out late; request 3 is due when the stall ends.
	res := openLoop(clk, start, 100, 4, 1, func(i int) error {
		if i == 0 {
			clk.advanceTo(start.Add(3 * gap))
		}
		return nil
	})
	wantLate := []time.Duration{0, 2 * gap, gap, 0}
	wantLat := []time.Duration{3 * gap, 2 * gap, gap, 0}
	for i := range wantLate {
		if res.late[i] != wantLate[i] || res.latency[i] != wantLat[i] {
			t.Errorf("request %d: late %v latency %v, want %v and %v", i, res.late[i], res.latency[i], wantLate[i], wantLat[i])
		}
	}
}

func TestDecoratorsAreObservationOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the cycle engine")
	}
	tr := newTracer()

	s := makeScenario(7, fleetShort)
	plain, err := replayPlain(s)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := replayTraced(s, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.csv, traced.csv) {
		t.Error("traced fleet replay wrote a different allocation history")
	}
	if len(tr.since(0, "fleet.engine")) == 0 || len(tr.since(0, "fleet.tick")) == 0 {
		t.Error("traced fleet replay recorded no engine or tick spans")
	}

	in := makeReproInputs(7, reproShort)
	pb, err := runReproBatch(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	sc := scope{tr: tr, trace: tr.newID()}
	tb, err := runReproBatch(in, &sc)
	if err != nil {
		t.Fatal(err)
	}
	if pb.fingerprint() != tb.fingerprint() {
		t.Error("decorated repro batch gave different Eval results")
	}
	for _, name := range []string{"workload.alone_get", "core.dase", "baseline.mise", "baseline.asm", "sched.policy"} {
		if len(tr.since(0, name)) == 0 {
			t.Errorf("no %s spans recorded", name)
		}
	}
}

// runShort runs one short-mode benchmark process and returns its parsed
// result line.
func runShort(t *testing.T, args ...string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(append([]string{"--seconds", "1"}, args...), &stdout, &stderr, true)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
	}
	if code != 0 || !res.Correct {
		t.Fatalf("exit %d, correct %v\nstdout:\n%s\nstderr:\n%s", code, res.Correct, stdout.String(), stderr.String())
	}
	return res
}

func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	inTempDir(t)
	for _, w := range []string{"repro", "fleet"} {
		t.Run(w, func(t *testing.T) {
			res := runShort(t, "--workload", w, "--seed", "3")
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("attempted %d failed %d", res.Attempted, res.Failed)
			}
			for _, d := range endToEnd {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || m.Value <= 0 {
					t.Errorf("metric %s = %+v, present %v", d.Name, m, ok)
				}
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics, want %d", len(res.Metrics), len(endToEnd))
			}
		})
	}
	t.Run("traced", func(t *testing.T) {
		res := runShort(t, "--workload", "fleet", "--trace", "1")
		for _, d := range perLayer {
			if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("metric %s = %+v, present %v", d.Name, m, ok)
			}
		}
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%d metrics, want %d", len(res.Metrics), len(perLayer))
		}
	})
}

// TestBenchmarkJSON keeps BENCHMARK.json's metric lists in step with the
// ones this program reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: %d metrics, program reports %d", c.name, len(c.got), len(c.want))
			continue
		}
		for i := range c.want {
			if c.got[i] != c.want[i] {
				t.Errorf("%s[%d] = %+v, program reports %+v", c.name, i, c.got[i], c.want[i])
			}
		}
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("workloads %v, program runs %v", names, want)
	}
}
