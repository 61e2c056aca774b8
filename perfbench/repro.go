package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dasesim/internal/baseline"
	"dasesim/internal/config"
	"dasesim/internal/core"
	"dasesim/internal/kernels"
	"dasesim/internal/metrics"
	"dasesim/internal/sched"
	"dasesim/internal/sim"
	"dasesim/internal/workload"
)

// reproSize sizes one repro batch.
type reproSize struct {
	pairs  int    // kernel pairs from the fixed chain through Table III
	quads  int    // four-kernel workloads: consecutive chain kernels, starting at kernel 0, 4, ...
	fair   int    // DASE-Fair runs (sched.Run) on the first pairs fit for the policy study
	cycles uint64 // shared and alone budget; DASE-Fair runs get 3x, as in Fig 9
}

var (
	// reproFull covers all 15 Table III kernels: pair i is kernel i with
	// kernel i+1 (mod 15), so every kernel runs in exactly two pairs and
	// needs one alone baseline.
	reproFull  = reproSize{pairs: 15, quads: 2, fair: 2, cycles: 100_000}
	reproProbe = reproSize{pairs: 1, quads: 0, fair: 1, cycles: 100_000}
	reproShort = reproSize{pairs: 1, quads: 1, fair: 1, cycles: 50_000}
)

// probeSeed fixes the inputs of the reference-size runs, so their figures do
// not vary with --seed.
const probeSeed = 1

// fig9Unfit mirrors the kernels the paper's policy study excludes (too few
// thread blocks for SM draining to matter).
var fig9Unfit = map[string]bool{"SN": true}

// reproInputs is one batch's generated work. The seed is the engine seed of
// every simulation: it drives each warp's address stream and every random
// choice of the engine. The kernel combinations are fixed: which kernels
// meet moves the estimation error far more than the engine seed does (a
// seeded sample of 15 pairs varied dase_err_pct by about 20% between seeds,
// the engine seed by 3%), and a model metric that moved with the seed could
// not be compared across seeds. Their order is fixed too, quads first (the
// longest jobs), since the order decides how the pool's two workers finish.
type reproInputs struct {
	size    reproSize
	seed    uint64
	jobs    []workload.Job
	fair    [][]kernels.Profile
	kernels []kernels.Profile // every kernel the batch uses, in first-use order
}

func makeReproInputs(seed uint64, size reproSize) reproInputs {
	cfg := config.Default()
	all := kernels.All()
	in := reproInputs{size: size, seed: seed}
	used := map[string]bool{}
	use := func(p kernels.Profile) kernels.Profile {
		if !used[p.Abbr] {
			used[p.Abbr] = true
			in.kernels = append(in.kernels, p)
		}
		return p
	}
	for i := 0; i < size.pairs; i++ {
		ps := []kernels.Profile{use(all[i%len(all)]), use(all[(i+1)%len(all)])}
		in.jobs = append(in.jobs, workload.Job{Combo: workload.Combo{Profiles: ps}, Alloc: sim.EvenAllocation(cfg.NumSMs, 2)})
		if len(in.fair) < size.fair && !fig9Unfit[ps[0].Abbr] && !fig9Unfit[ps[1].Abbr] {
			in.fair = append(in.fair, ps)
		}
	}
	var quads []workload.Job
	for q := 0; q < size.quads; q++ {
		var ps []kernels.Profile
		for k := 0; k < 4; k++ {
			ps = append(ps, in.kernels[(4*q+k)%len(in.kernels)])
		}
		quads = append(quads, workload.Job{Combo: workload.Combo{Profiles: ps}, Alloc: sim.EvenAllocation(cfg.NumSMs, 4)})
	}
	in.jobs = append(quads, in.jobs...)
	return in
}

// reproBatch is the outcome of one batch.
type reproBatch struct {
	evalCPU     time.Duration // process CPU over EvaluateAll
	evals       []*workload.Eval
	fairSlow    [][]float64
	fairReallo  []int
	aloneMisses uint64
}

// runReproBatch evaluates the inputs the way cmd/experiments does for Figs
// 5-6 (DASE on the plain run, MISE and ASM on the priority-epoch run, alone
// baselines from a fresh AloneCache) and adds the Fig 9 DASE-Fair runs. With
// sc.tr set, the baseline, the estimators and the policy are decorated.
func runReproBatch(in reproInputs, sc *scope) (*reproBatch, error) {
	cfg := config.Default()
	cache := workload.NewAloneCache(cfg, in.size.cycles, in.seed)
	var base workload.Baseline = cache
	opt := workload.Options{
		Cfg:             cfg,
		SharedCycles:    in.size.cycles,
		Seed:            in.seed,
		WarmupIntervals: 1,
		Estimators:      []core.Estimator{core.New(core.Options{})},
		EpochEstimators: []core.Estimator{baseline.NewMISE(), baseline.NewASM()},
	}
	if sc != nil {
		base = &tracedBaseline{inner: cache, sc: *sc}
		opt.Estimators[0] = &tracedEstimator{inner: opt.Estimators[0], name: "core.dase", sc: *sc}
		opt.EpochEstimators[0] = &tracedEstimator{inner: opt.EpochEstimators[0], name: "baseline.mise", sc: *sc}
		opt.EpochEstimators[1] = &tracedEstimator{inner: opt.EpochEstimators[1], name: "baseline.asm", sc: *sc}
	}
	out := &reproBatch{}
	cpu0 := processCPU()
	evals, err := workload.EvaluateAll(opt, in.jobs, base)
	out.evalCPU = processCPU() - cpu0
	if err != nil {
		return nil, err
	}
	out.evals = evals

	// DASE-Fair runs fan out over a GOMAXPROCS-sized pool, as Fig 9 does.
	out.fairSlow = make([][]float64, len(in.fair))
	out.fairReallo = make([]int, len(in.fair))
	errs := make([]error, len(in.fair))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(runtime.GOMAXPROCS(0), len(in.fair)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out.fairSlow[i], out.fairReallo[i], errs[i] = fairRun(cfg, in.fair[i], in.size.cycles, in.seed, base, sc)
			}
		}()
	}
	for i := range in.fair {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out.aloneMisses = cache.Stats().Misses
	return out, nil
}

// fairRun runs one pair under DASE-Fair and returns the actual slowdowns and
// the number of reallocations.
func fairRun(cfg config.Config, ps []kernels.Profile, cycles, seed uint64, base workload.Baseline, sc *scope) ([]float64, int, error) {
	pol := sched.NewDASEFair()
	var p sched.Policy = pol
	if sc != nil {
		p = &tracedPolicy{inner: pol, sc: *sc}
	}
	res, err := sched.Run(cfg, ps, sim.EvenAllocation(cfg.NumSMs, len(ps)), 3*cycles, seed, p)
	if err != nil {
		return nil, 0, err
	}
	slow := make([]float64, len(ps))
	for i, prof := range ps {
		alone, err := base.Get(prof)
		if err != nil {
			return nil, 0, err
		}
		slow[i] = metrics.Slowdown(alone.Apps[0].IPC, res.Apps[i].IPC)
	}
	return slow, pol.Reallocations, nil
}

// fingerprint hashes every model output of a batch: slowdowns, estimates,
// shared-run counters and the DASE-Fair outcome. A speed-only change leaves
// it unchanged.
func (r *reproBatch) fingerprint() string {
	var sb strings.Builder
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	fs := func(vs []float64) {
		for _, v := range vs {
			sb.WriteString(f(v))
			sb.WriteByte(' ')
		}
		sb.WriteByte('|')
	}
	for _, ev := range r.evals {
		fmt.Fprintf(&sb, "%s %v|", ev.Combo.Name(), ev.Alloc)
		fs(ev.Actual)
		fs(ev.ActualEpoch)
		names := make([]string, 0, len(ev.Estimates))
		for n := range ev.Estimates {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			sb.WriteString(n)
			fs(ev.Estimates[n])
		}
		res := ev.Shared
		fmt.Fprintf(&sb, "%d %d %d %d|", res.Cycles, res.BusCycles, res.BusWasted, res.BusIdle)
		for _, a := range res.Apps {
			fmt.Fprintf(&sb, "%+v|", a)
		}
		for i := range res.Snapshots {
			fmt.Fprintf(&sb, "%+v|", res.Snapshots[i])
		}
		sb.WriteByte('\n')
	}
	for i, s := range r.fairSlow {
		fs(s)
		fmt.Fprintf(&sb, "%d\n", r.fairReallo[i])
	}
	sum := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(sum[:])
}

// daseErrPct is the mean DASE |estimate - actual| / actual over every
// application of every evaluated workload, in percent.
func (r *reproBatch) daseErrPct() float64 {
	var errs []float64
	for _, ev := range r.evals {
		errs = append(errs, ev.Errors["DASE"]...)
	}
	return 100 * mean(errs)
}

// fairUnfairness is the mean over DASE-Fair runs of max/min actual slowdown.
func (r *reproBatch) fairUnfairness() float64 {
	var us []float64
	for _, s := range r.fairSlow {
		us = append(us, metrics.Unfairness(s))
	}
	return mean(us)
}

func runRepro(b *bench, full bool) error {
	size, seed := reproProbe, uint64(probeSeed)
	if full {
		size, seed = reproFull, b.seed
	}
	if b.short {
		size = reproShort
	}
	key := fmt.Sprintf("repro/%s/seed%d", sizeName(full, b.short), seed)

	// Set-up: generate the inputs from the seed and warm the engine with a
	// short run of the first pair. Repeated; the median is reported.
	var in reproInputs
	var setups units
	for i := 0; i < setupRepeats(full); i++ {
		runtime.GC()
		clk := startClock()
		in = makeReproInputs(seed, size)
		cfg := config.Default()
		if _, err := sim.RunShared(cfg, in.jobs[0].Combo.Profiles, in.jobs[0].Alloc, 2_000, seed); err != nil {
			return err
		}
		setups.add(clk.stop())
	}
	if full {
		b.set("setup_s", median(setups.cpu))
		b.note("set-up %s", setups.describe(units{}))
	}

	// Measure: repeat the batch for the time budget (at least twice, so a
	// traced run can alternate plain and traced batches). A probe runs once.
	var batches []*reproBatch
	var plain, tracedUnits units
	var peaks []float64
	var spanFrom int
	var traced []*reproBatch
	rt0 := readRuntime()
	budgetStart := time.Now()
	for i := 0; ; i++ {
		var sc *scope
		// Traced runs alternate: odd batches are traced (and a probe's only
		// batch is).
		if b.tr != nil && (i%2 == 1 || !full) {
			s := scope{tr: b.tr, trace: b.tr.newID()}
			s.parent = s.trace
			sc = &s
			if len(traced) == 0 {
				spanFrom = b.tr.len()
			}
		}
		var start int64
		if sc != nil {
			start = b.tr.now()
		}
		startUnit()
		clk := startClock()
		r, err := runReproBatch(in, sc)
		wall, cpu := clk.stop()
		b.count(len(in.jobs)+len(in.fair), 0)
		if err != nil {
			b.count(0, len(in.jobs)+len(in.fair))
			b.problem("repro batch: %v", err)
			return nil
		}
		if sc != nil {
			b.tr.add(span{Name: "repro.batch", Trace: sc.trace, ID: sc.parent, Start: start, End: b.tr.now()})
			traced = append(traced, r)
			tracedUnits.add(wall, cpu)
		} else {
			plain.add(wall, cpu)
		}
		peaks = append(peaks, peakRSSMB())
		batches = append(batches, r)
		if !full {
			break
		}
		// Stop once another batch would end more than half a batch past
		// the budget.
		elapsed := time.Since(budgetStart)
		next := elapsed / time.Duration(i+1)
		if i >= 1 && elapsed+next/2 > b.seconds {
			break
		}
	}
	rt1 := readRuntime()

	// Checks: every batch of the run gives the same model outputs, and the
	// pinned fingerprint matches when one is pinned for these inputs.
	fp := batches[0].fingerprint()
	for i, r := range batches[1:] {
		if got := r.fingerprint(); got != fp {
			b.problem("repro batch %d fingerprint %s differs from batch 0 %s", i+1, got, fp)
		}
	}
	b.checkPin(key, fp)
	first := batches[0]
	b.set("dase_err_pct", first.daseErrPct())
	b.set("fair_unfairness", first.fairUnfairness())
	counts := engineCountsOf(first.evals)
	b.note("repro %s: %d batches, %s, dase_err_pct %.6g, fair_unfairness %.6g, model %s",
		key, len(batches), plain.describe(tracedUnits), first.daseErrPct(), first.fairUnfairness(), counts.summary())

	if full {
		plain.report(b, tracedUnits)
		b.set("peak_rss_mb", median(peaks))
		gc, alloc := runtimeDelta(rt0, rt1)
		b.set("go.gc_cpu_frac", gc)
		b.set("go.alloc_mb", alloc/float64(len(batches)))
	}
	if b.tr == nil {
		return nil
	}

	// Per-layer figures, from the traced batches.
	counts.report(b)
	nt := float64(len(traced))
	gets := b.tr.since(spanFrom, "workload.alone_get")
	dase := b.tr.since(spanFrom, "core.dase")
	mise := b.tr.since(spanFrom, "baseline.mise")
	asm := b.tr.since(spanFrom, "baseline.asm")
	pol := b.tr.since(spanFrom, "sched.policy")
	var misses uint64
	var cpu time.Duration
	reallocs := 0
	for _, r := range traced {
		misses += r.aloneMisses
		cpu += r.evalCPU
		for _, n := range r.fairReallo {
			reallocs += n
		}
	}
	// The first lookup of each kernel in a batch is the one that simulates;
	// the cache is single-flight, so a later lookup of the same kernel
	// either hits or waits for that one, idle.
	firstGet := map[string]span{}
	for _, s := range gets {
		k := fmt.Sprintf("%d/%s", s.Trace, s.Note)
		if f, ok := firstGet[k]; !ok || s.Start < f.Start {
			firstGet[k] = s
		}
	}
	var missTime time.Duration
	for _, s := range firstGet {
		missTime += s.dur()
	}
	b.set("sim.alone_ns_per_cycle", float64(missTime)/float64(len(firstGet))/float64(size.cycles))
	estBusy := sumDur(dase) + sumDur(mise) + sumDur(asm)
	b.set("sim.shared_cpu_s", (cpu-missTime-estBusy).Seconds()/nt)
	b.set("core.dase_us_per_interval", meanUS(dase))
	b.set("baseline.mise_us_per_interval", meanUS(mise))
	b.set("baseline.asm_us_per_interval", meanUS(asm))
	b.set("sched.policy_us_per_interval", meanUS(pol))
	b.set("sched.repartitions", float64(reallocs)/nt)
	b.set("workload.alone_calls", float64(len(gets))/nt)
	b.set("workload.alone_misses", float64(misses)/nt)
	b.set("workload.alone_busy_s", missTime.Seconds()/nt)
	// The component replays run last, on streams recorded only now, so
	// neither the set-up nor any measured unit carries them.
	streams := recordStreams(in.kernels, seed, replayLinesPerKernel(b.short))
	runReplays(b, streams, in.kernels, seed, b.short)
	return nil
}

// sizeName labels the inputs' size in fingerprint keys.
func sizeName(full, short bool) string {
	switch {
	case short:
		return "short"
	case full:
		return "full"
	}
	return "probe"
}

// setupRepeats is how many times a part repeats its set-up; only the named
// workload's set-up is reported.
func setupRepeats(full bool) int {
	if full {
		return 9
	}
	return 1
}

// engineCounts aggregates the simulated-machine statistics of the plain
// shared runs: a speed-only change must leave every one identical.
type engineCounts struct {
	cycles, insts, served, rowHits, rowMisses uint64
	busCycles, busWasted, busIdle, dataCycles uint64
	ellc, latSum, latW, alpha, occ, l1, nApps float64
}

func engineCountsOf(evals []*workload.Eval) engineCounts {
	var c engineCounts
	for _, ev := range evals {
		res := ev.Shared
		c.cycles += res.Cycles
		c.busCycles += res.BusCycles
		c.busWasted += res.BusWasted
		c.busIdle += res.BusIdle
		for _, a := range res.Apps {
			c.insts += a.Instructions
			c.served += a.Served
			c.dataCycles += a.DataCycles
			c.latSum += a.MeanLatency * float64(a.MemInsts)
			c.latW += float64(a.MemInsts)
			c.alpha += a.Alpha
			c.occ += a.Occupancy
			c.l1 += a.L1HitRate
			c.nApps++
		}
		for i := range res.Snapshots {
			for _, a := range res.Snapshots[i].Apps {
				c.rowHits += a.RowHits
				c.rowMisses += a.RowMisses
				c.ellc += a.ELLCMiss
			}
		}
	}
	return c
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (c engineCounts) values() []struct {
	name string
	v    float64
} {
	return []struct {
		name string
		v    float64
	}{
		{"sim.cycles", float64(c.cycles)},
		{"sim.insts", float64(c.insts)},
		{"sim.load_latency_mean_cycles", ratio(c.latSum, c.latW)},
		{"smcore.ipc", ratio(float64(c.insts), float64(c.cycles))},
		{"smcore.alpha", ratio(c.alpha, c.nApps)},
		{"smcore.occupancy", ratio(c.occ, c.nApps)},
		{"cache.l1_hit_rate", ratio(c.l1, c.nApps)},
		{"cache.l2_extra_misses", c.ellc},
		{"dram.served", float64(c.served)},
		{"dram.row_hit_rate", ratio(float64(c.rowHits), float64(c.rowHits+c.rowMisses))},
		{"dram.bus_util", ratio(float64(c.dataCycles), float64(c.busCycles))},
		{"dram.bus_wasted_frac", ratio(float64(c.busWasted), float64(c.busCycles))},
		{"dram.bus_idle_frac", ratio(float64(c.busIdle), float64(c.busCycles))},
	}
}

func (c engineCounts) report(b *bench) {
	for _, kv := range c.values() {
		b.set(kv.name, kv.v)
	}
}

// summary prints the counts on one line, so untraced runs show them too.
func (c engineCounts) summary() string {
	var parts []string
	for _, kv := range c.values() {
		parts = append(parts, kv.name+"="+strconv.FormatFloat(kv.v, 'g', -1, 64))
	}
	return strings.Join(parts, " ")
}
