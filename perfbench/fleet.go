package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"time"

	"dasesim/internal/config"
	"dasesim/internal/fleet"
	"dasesim/internal/kernels"
)

// fleetSize sizes one fleet scenario.
type fleetSize struct {
	gpus      int
	intervals int       // scheduling intervals replayed
	arrivals  int       // intervals with Poisson arrivals
	rates     []float64 // mean arrivals per interval, per tenant
	cycles    uint64    // cycles per interval
	work      uint64    // instructions per job
}

var (
	// fleetFull keeps every GPU busy in every interval whatever the seed
	// (twice the golden's arrival rates), so a replay's engine work varies
	// little between seeds.
	fleetFull  = fleetSize{gpus: 4, intervals: 12, arrivals: 12, rates: []float64{3.2, 2.2, 1.6}, cycles: 10_000, work: 150_000}
	fleetProbe = fleetSize{gpus: 4, intervals: 5, arrivals: 3, rates: []float64{1.6, 1.1, 0.8}, cycles: 10_000, work: 100_000}
	fleetShort = fleetSize{gpus: 4, intervals: 3, arrivals: 2, rates: []float64{1.6, 1.1, 0.8}, cycles: 5_000, work: 40_000}
)

// fleetProbeSeed is the fixed seed of the reference-size scenario (the fleet
// golden's seed).
const fleetProbeSeed = 42

// fleetKernels are the fleet golden's six Table III kernels.
var fleetKernels = []string{"BS", "CT", "QR", "SP", "SC", "NN"}

// makeScenario builds a seeded Poisson scenario on the real cycle engine:
// the fleet golden's three tenants and six kernels on size.gpus GPUs.
func makeScenario(seed uint64, size fleetSize) fleet.Scenario {
	gpu := config.Default()
	tenants := []fleet.TenantSpec{
		{Name: "astra", QuotaSMs: 24, Weight: 1},
		{Name: "borei", QuotaSMs: 16, Weight: 1},
		{Name: "ceres", QuotaSMs: 8, Weight: 2},
	}
	var profiles []kernels.Profile
	for _, abbr := range fleetKernels {
		p, _ := kernels.ByAbbr(abbr)
		profiles = append(profiles, p)
	}
	return fleet.Scenario{
		Config: fleet.Config{
			GPUs:            size.gpus,
			GPU:             gpu,
			Tenants:         tenants,
			WindowIntervals: 6,
			IntervalCycles:  size.cycles,
			Seed:            seed,
			Engine:          &fleet.SimEngine{Cfg: gpu},
		},
		Arrivals:  fleet.PoissonArrivals(seed, tenants, size.rates, profiles, size.arrivals, 8, size.work),
		Intervals: size.intervals,
	}
}

// fleetReplay is the outcome of one scenario replay.
type fleetReplay struct {
	f        *fleet.Fleet
	csv      []byte
	accepted int
}

// replayPlain replays the scenario with Scenario.Run.
func replayPlain(s fleet.Scenario) (*fleetReplay, error) {
	f, err := s.Run()
	if err != nil {
		return nil, err
	}
	return finishReplay(s, f)
}

// replayTraced replays the scenario with the engine decorated and a span per
// Tick. It submits and ticks exactly as Scenario.Run does, which the
// identical-CSV check holds it to.
func replayTraced(s fleet.Scenario, tr *tracer) (*fleetReplay, error) {
	eng := &tracedEngine{inner: s.Config.Engine, sc: scope{tr: tr, trace: tr.newID()}}
	s.Config.Engine = eng
	root := tr.now()
	f, err := fleet.New(s.Config)
	if err != nil {
		return nil, err
	}
	next := 0
	for iv := 0; iv < s.Intervals; iv++ {
		for next < len(s.Arrivals) && s.Arrivals[next].Interval <= iv {
			if err := f.Submit(s.Arrivals[next].Job); err != nil && !errors.Is(err, fleet.ErrJobTooLarge) {
				return nil, err
			}
			next++
		}
		tick := tr.newID()
		eng.sc.parent = tick
		t0 := tr.now()
		if err := f.Tick(); err != nil {
			return nil, err
		}
		tr.add(span{Name: "fleet.tick", Trace: eng.sc.trace, ID: tick, Parent: eng.sc.trace, Start: t0, End: tr.now()})
	}
	tr.add(span{Name: "fleet.replay", Trace: eng.sc.trace, ID: eng.sc.trace, Start: root, End: tr.now()})
	return finishReplay(s, f)
}

func finishReplay(s fleet.Scenario, f *fleet.Fleet) (*fleetReplay, error) {
	var buf bytes.Buffer
	if err := fleet.WriteCSV(&buf, f.Records()); err != nil {
		return nil, err
	}
	accepted := 0
	for _, a := range s.Arrivals {
		if a.Job.MinSMs <= s.Config.GPU.NumSMs {
			accepted++
		}
	}
	return &fleetReplay{f: f, csv: buf.Bytes(), accepted: accepted}, nil
}

func csvHash(csv []byte) string {
	sum := sha256.Sum256(csv)
	return hex.EncodeToString(sum[:])
}

func runFleet(b *bench, full bool) error {
	size, seed := fleetProbe, uint64(fleetProbeSeed)
	if full {
		size, seed = fleetFull, b.seed
	}
	if b.short {
		size = fleetShort
	}
	key := fmt.Sprintf("fleet/%s/seed%d", sizeName(full, b.short), seed)

	// Set-up: synthesize the arrival trace and warm the engine with one
	// interval of the first kernel alone (the same work for every seed).
	var s fleet.Scenario
	var setups units
	for i := 0; i < setupRepeats(full); i++ {
		runtime.GC()
		clk := startClock()
		s = makeScenario(seed, size)
		if len(s.Arrivals) == 0 {
			return fmt.Errorf("seed %d produced no arrivals", seed)
		}
		warm, _ := kernels.ByAbbr(fleetKernels[0])
		if _, _, err := s.Config.Engine.Interval(0, 0, []kernels.Profile{warm}, []int{s.Config.GPU.NumSMs}, seed, size.cycles); err != nil {
			return err
		}
		setups.add(clk.stop())
	}
	if full {
		b.set("setup_s", median(setups.cpu))
		b.note("set-up %s", setups.describe(units{}))
	}

	capacity := size.gpus * s.Config.GPU.NumSMs
	var replays []*fleetReplay
	var plain, tracedUnits units
	var peaks []float64
	var spanFrom int
	var tracedN int
	rt0 := readRuntime()
	budgetStart := time.Now()
	for i := 0; ; i++ {
		traced := b.tr != nil && (i%2 == 1 || !full)
		if traced && tracedN == 0 {
			spanFrom = b.tr.len()
		}
		var r *fleetReplay
		var err error
		startUnit()
		clk := startClock()
		if traced {
			r, err = replayTraced(s, b.tr)
		} else {
			r, err = replayPlain(s)
		}
		wall, cpu := clk.stop()
		b.count(size.intervals, 0)
		if err != nil {
			b.count(0, size.intervals)
			b.problem("fleet replay: %v", err)
			return nil
		}
		if traced {
			tracedN++
			tracedUnits.add(wall, cpu)
		} else {
			plain.add(wall, cpu)
		}
		peaks = append(peaks, peakRSSMB())
		replays = append(replays, r)
		if !full {
			break
		}
		// Stop once another replay would end more than half a replay past
		// the budget.
		elapsed := time.Since(budgetStart)
		if i >= 1 && elapsed+elapsed/time.Duration(i+1)/2 > b.seconds {
			break
		}
	}
	rt1 := readRuntime()

	// Checks: the fairness invariants hold, every replay (traced or not)
	// writes the same allocation history, and it matches the pin.
	first := replays[0]
	if err := fleet.CheckAll(first.f.Records(), capacity, s.Config.GPU.NumSMs); err != nil {
		b.problem("fleet invariants: %v", err)
	}
	fp := csvHash(first.csv)
	for i, r := range replays[1:] {
		if !bytes.Equal(r.csv, first.csv) {
			b.problem("fleet replay %d CSV %s differs from replay 0 %s", i+1, csvHash(r.csv), fp)
		}
	}
	b.checkPin(key, fp)
	sum := fleet.Summarize(first.f.Records(), capacity)
	b.set("fleet_jain", sum.JainIndex)
	done := first.accepted - first.f.RunningJobs() - first.f.QueuedJobs()
	b.note("fleet %s: %d replays, %s, jain %.6g, jobs done %d of %d", key, len(replays), plain.describe(tracedUnits), sum.JainIndex, done, first.accepted)

	if full {
		plain.report(b, tracedUnits)
		b.set("peak_rss_mb", median(peaks))
		gc, alloc := runtimeDelta(rt0, rt1)
		b.set("go.gc_cpu_frac", gc)
		b.set("go.alloc_mb", alloc/float64(len(replays)))
	}
	if b.tr == nil {
		return nil
	}

	ticks := b.tr.since(spanFrom, "fleet.tick")
	engine := b.tr.since(spanFrom, "fleet.engine")
	n := float64(tracedN)
	var tickMS []float64
	for _, t := range ticks {
		tickMS = append(tickMS, float64(t.dur())/float64(time.Millisecond))
	}
	b.set("fleet.ticks", float64(len(ticks))/n)
	b.set("fleet.tick_ms_p50", percentile(tickMS, 50))
	b.set("fleet.engine_calls", float64(len(engine))/n)
	b.set("fleet.engine_busy_s", sumDur(engine).Seconds()/n)
	b.set("fleet.self_s", (sumDur(ticks)-sumDur(engine)).Seconds()/n)
	b.set("fleet.jobs_done", float64(done))
	b.set("sim.interval_ns_per_cycle", float64(sumDur(engine))/float64(len(engine))/float64(size.cycles))
	return nil
}
