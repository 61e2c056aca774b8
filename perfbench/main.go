// Command perfbench is the repository's same-box benchmark. One process runs
// one workload from a seed and prints every metric by name with its unit,
// after checking that the program's outputs are correct.
//
//	bash perfbench/run.sh --workload repro --seed 1 --seconds 40 --trace 0
//
// Workloads: repro (the Figs 5-9 evaluation path) and fleet (multi-GPU
// fair-share replay over the cycle engine). Each run drives both so that
// every metric is reported for every workload: the named workload gets the
// seed and the time budget, the other runs once at a small fixed reference
// size. Every run then drives the serve path (an in-process dased under
// estimate and job traffic) at a fixed size for its correctness checks and
// per-layer figures. With --trace 1 the run reports per-layer metrics
// instead, timed by decorators around each layer's public interface, plus
// the tracing overhead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// bench is one benchmark process's state.
type bench struct {
	workload string
	seed     uint64
	seconds  time.Duration
	short    bool    // smoke-test sizes
	tr       *tracer // nil unless --trace 1
	out      io.Writer

	values    map[string]float64
	attempted int64
	failed    int64
	problems  []string
	pins      map[string]string
}

// set records a metric value; each metric is reported by one path.
func (b *bench) set(name string, v float64) { b.values[name] = v }

// problem records a failed correctness check; any problem makes the run
// incorrect.
func (b *bench) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	b.problems = append(b.problems, msg)
	b.note("CHECK FAILED: %s", msg)
}

// note prints a side line; the result is always the last line of stdout.
func (b *bench) note(format string, args ...any) {
	fmt.Fprintf(b.out, "# "+format+"\n", args...)
}

// count adds operations attempted and failed.
func (b *bench) count(attempted, failed int) {
	b.attempted += int64(attempted)
	b.failed += int64(failed)
}

// checkPin compares a fingerprint against the value pinned for key, when
// one is pinned; the fingerprint is printed either way.
func (b *bench) checkPin(key, fp string) {
	b.note("fingerprint %s %s", key, fp)
	if want, ok := b.pins[key]; ok && want != fp {
		b.problem("fingerprint %s = %s, pinned %s", key, fp, want)
	}
}

// benchWorkload is one measured path; run's full is true when it is the
// named workload, false for its fixed reference-size run.
type benchWorkload struct {
	name string
	run  func(b *bench, full bool) error
}

var workloads = []benchWorkload{
	{"repro", runRepro},
	{"fleet", runFleet},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, false))
}

// run executes one benchmark process and returns its exit code: 0 when every
// check passed, 1 when a check failed (the result line is still printed),
// 2 on bad flags or an error that left no result. short selects smoke-test
// sizes, for the package's own tests.
func run(args []string, stdout, stderr io.Writer, short bool) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "repro", "workload to measure: repro | fleet")
	seed := fs.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 40, "measuring budget of the named workload, in seconds")
	traceFlag := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// The named workload runs first, with the seed and the time budget.
	var order []benchWorkload
	for _, w := range workloads {
		if w.name == *name {
			order = append([]benchWorkload{w}, order...)
		} else {
			order = append(order, w)
		}
	}
	if order[0].name != *name || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: need --workload repro|fleet, --seconds >= 1, --trace 0|1")
		return 2
	}
	pins, err := loadPins()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	b := &bench{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		short:    short,
		out:      stdout,
		values:   map[string]float64{},
		pins:     pins,
	}
	if *traceFlag == 1 {
		b.tr = newTracer()
	}
	st, _ := json.Marshal(currentStamp())
	b.note("stamp %s", st)
	b.note("workload %s seed %d seconds %d trace %d", b.workload, b.seed, *seconds, *traceFlag)

	ticks0, steal0, _ := cpuTicks()
	for i, w := range order {
		if err := w.run(b, i == 0); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 2
		}
	}
	if err := runServe(b); err != nil {
		fmt.Fprintln(stderr, "perfbench: serve:", err)
		return 2
	}
	b.note("host steal %.1f%% of CPU time during the run", 100*stealSince(ticks0, steal0))

	if b.tr != nil {
		path := filepath.Join(buildDir, fmt.Sprintf("spans-%s-%d.json", b.workload, b.seed))
		if err := b.tr.writeFile(path); err != nil {
			fmt.Fprintln(stderr, "perfbench: write spans:", err)
		} else {
			b.note("spans %d written to %s", b.tr.len(), path)
		}
	}

	defs := endToEnd
	if b.tr != nil {
		defs = perLayer
	}
	res := result{Correct: len(b.problems) == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := b.values[d.Name]
		if !ok {
			b.problem("metric %s was not measured", d.Name)
			res.Correct = false
			continue
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if b.attempted < 1 {
		b.problem("no operations attempted")
		res.Correct = false
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintln(stderr, "perfbench: checks failed:", strings.Join(b.problems, "; "))
		return 1
	}
	return 0
}

// buildDir holds build outputs, temporary files and spans; it lives in the
// checkout and is ignored by git.
const buildDir = ".bench_build"
