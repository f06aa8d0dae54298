package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/attack"
	"repro/internal/clock"
	"repro/internal/ec2m"
	"repro/internal/evset"
	"repro/internal/experiments"
	"repro/internal/hierarchy"
	"repro/internal/probe"
	"repro/internal/psd"
	"repro/internal/scenario"
	"repro/internal/xrand"
)

// attackWorkload is a closed loop over the trials of one scenario's
// engine run: op i is trial i of `llcattack -scenario <scenario> -seed
// <workload seed> -parallel 1`, timed from outside around the scenario's
// Run.
type attackWorkload struct {
	scenario string
	// ops is the op list's length: trials 0..ops-1. Every set-up replays
	// op 0, untimed.
	ops int
	// goldens are committed scenario reports at the workload seed, as
	// paths from the checkout root. Op i must reproduce outcome i of every
	// report that holds one.
	goldens []string
	// rebuild replays one trial from public calls on a traced run,
	// timing each layer call. A partial rebuild covers a prefix of the
	// scenario's steps; the rest of the op is reported as its tail.
	rebuild func(t *experiments.Trial, cfg hierarchy.Config) (scenario.Outcome, tracedOp)
	partial bool
}

var extractWorkload = attackWorkload{
	scenario: "e2e/extract",
	ops:      4, // four ops, so the op median averages two of them
	goldens:  []string{"perfbench/testdata/extract_trials4_seed2.golden.json"},
	rebuild:  rebuildExtract,
}

var keyRecoveryWorkload = attackWorkload{
	scenario: "e2e/keyrecovery",
	ops:      3, // trial 2 runs 7 lattice attempts; trials 0-1 run 2 and 1
	goldens: []string{
		"cmd/llcattack/testdata/keyrecovery_trials2_seed2.golden.json",
		"perfbench/testdata/keyrecovery_trials3_seed2.golden.json",
	},
	rebuild: rebuildPrefix,
	partial: true,
}

// tracedOp is one traced op: the CPU time of each layer call, and the
// counts and simulated cycles the layers' public results expose.
type tracedOp struct {
	collect, psdTrain, classifyTrain, build, scan, extract, total time.Duration
	// untraced is the same op's CPU time untraced.
	untraced                               time.Duration
	buildSets, scanSets                    int
	buildCycles, scanCycles, extractCycles clock.Cycles
}

func (p *tracedOp) add(q tracedOp) {
	p.collect += q.collect
	p.psdTrain += q.psdTrain
	p.classifyTrain += q.classifyTrain
	p.build += q.build
	p.scan += q.scan
	p.extract += q.extract
	p.total += q.total
	p.untraced += q.untraced
	p.buildSets += q.buildSets
	p.scanSets += q.scanSets
	p.buildCycles += q.buildCycles
	p.scanCycles += q.scanCycles
	p.extractCycles += q.extractCycles
}

func (p tracedOp) phases() map[string]float64 {
	return map[string]float64{
		"attack.collect_s": p.collect.Seconds(), "psd.train_s": p.psdTrain.Seconds(),
		"classify.train_s": p.classifyTrain.Seconds(), "evset.build_s": p.build.Seconds(),
		"attack.scan_s": p.scan.Seconds(), "attack.extract_s": p.extract.Seconds(),
		"total_s": p.total.Seconds(),
	}
}

// accounted is the CPU time the timed layer calls cover.
func (p tracedOp) accounted() time.Duration {
	return p.collect + p.psdTrain + p.classifyTrain + p.build + p.scan + p.extract
}

func runAttack(cfg config, w attackWorkload) ([]opRecord, metricSet, error) {
	sc, ok := scenario.Lookup(w.scenario)
	if !ok {
		return nil, nil, fmt.Errorf("unknown scenario %q", w.scenario)
	}
	hc := sc.Config()
	base := experiments.SubSeed(cfg.wseed, "scenario", sc.ID)
	seeds := make([]uint64, w.ops)
	for i := range seeds {
		seeds[i] = xrand.Stream(base, uint64(i))
	}
	goldens, err := loadGoldens(w, cfg.wseed)
	if err != nil {
		return nil, nil, err
	}
	order := xrand.New(cfg.seed).Perm(w.ops)

	var ops []opRecord
	first := map[int]scenario.Outcome{} // each op's first outcome
	// runOp runs and times one op, checks it, and returns its record's
	// index.
	runOp := func(t *experiments.Trial, op, pass int) int {
		rec := opRecord{Pass: pass, Op: op, Seed: seeds[op]}
		c0 := cpuTime()
		o, d, err := runScenario(sc, hc, t.WithSeed(seeds[op]))
		rec.CPUS, rec.WallS = (cpuTime() - c0).Seconds(), d.Seconds()
		if err != nil {
			rec.fail("%v", err)
		} else {
			rec.Outcome, rec.SimCycles = o, uint64(o.TotalCycles)
			for _, g := range goldens {
				if op < len(g.outcomes) {
					if diff := diffOutcome(g.outcomes[op], o); diff != "" {
						rec.fail("differs from %s: %s", g.path, diff)
					}
				}
			}
			if prev, seen := first[op]; !seen {
				first[op] = o
			} else if diff := diffOutcome(prev, o); diff != "" {
				rec.fail("differs from the op's earlier run: %s", diff)
			}
		}
		ops = append(ops, rec)
		return len(ops) - 1
	}
	var traced []tracedOp
	// traceOp rebuilds op record i from public calls and checks it
	// reproduces the untraced outcome.
	traceOp := func(t *experiments.Trial, i int) {
		rec := &ops[i]
		o, ph, err := runRebuild(w.rebuild, hc, t.WithSeed(rec.Seed))
		if err != nil {
			rec.fail("traced rebuild: %v", err)
			return
		}
		if want, ok := rec.Outcome.(scenario.Outcome); ok {
			diff := ""
			if w.partial {
				diff = diffPrefix(want, o)
			} else {
				diff = diffOutcome(want, o)
			}
			if diff != "" {
				rec.fail("traced rebuild differs: %s", diff)
			}
		}
		rec.Traced = ph.phases()
		ph.untraced = time.Duration(rec.CPUS * float64(time.Second))
		traced = append(traced, ph)
	}

	var gd goDelta
	passJobs := func(pass int) []func(*experiments.Trial) {
		var jobs []func(*experiments.Trial)
		for _, op := range order {
			var i int
			jobs = append(jobs, func(t *experiments.Trial) {
				if !cfg.trace {
					i = runOp(t, op, pass)
					return
				}
				g0 := readGoStats()
				i = runOp(t, op, pass)
				gd.add(g0, readGoStats())
			})
			if cfg.trace {
				jobs = append(jobs, func(t *experiments.Trial) { traceOp(t, i) })
			}
		}
		return jobs
	}

	// Set up setupReps times: each set-up is a fresh engine run (so a
	// fresh pooled host) plus the untimed warm-up op; the first is timed
	// from process start, and the last one's engine run goes on into the
	// timed passes.
	var setups []float64
	loop := passLoop{seconds: cfg.seconds}
	maxJobs := 1 + passCap*2*w.ops
	for r := 0; r < setupReps; r++ {
		var start time.Duration
		if r > 0 {
			start = cpuTime()
		}
		timed := r == setupReps-1
		var queue []func(*experiments.Trial)
		queue = append(queue, func(t *experiments.Trial) {
			runOp(t, 0, -1)
			setups = append(setups, (cpuTime() - start).Seconds())
			if timed {
				loop.begin()
				queue = append(queue, passJobs(0)...)
			}
		})
		err := engineRun(maxJobs, func() func(*experiments.Trial) {
			if len(queue) == 0 {
				if !timed || !loop.endPass() {
					return nil
				}
				queue = passJobs(loop.passes)
			}
			job := queue[0]
			queue = queue[1:]
			return job
		})
		if err != nil {
			return nil, nil, err
		}
	}

	var cpuS []float64
	var cycles uint64
	var bitsRec, bitsTotal, succ int
	for _, o := range ops {
		if o.Pass < 0 {
			continue
		}
		cpuS = append(cpuS, o.CPUS)
		cycles += o.SimCycles
		if out, ok := o.Outcome.(scenario.Outcome); ok {
			bitsRec += out.BitsRecovered
			bitsTotal += out.BitsTotal
			if out.Success {
				succ++
			}
		}
	}
	if !cfg.trace {
		ms, err := endToEnd(cpuS, setups, float64(cycles), cpuS, ratio(float64(succ), float64(len(cpuS))))
		return ops, ms, err
	}

	ms := zeroLayers()
	n := float64(len(traced))
	var p tracedOp
	for _, ph := range traced {
		p.add(ph)
	}
	for name, v := range p.phases() {
		if name != "total_s" {
			ms.set(name, ratio(v, n), "s")
		}
	}
	ms.set("evset.build.sets", ratio(float64(p.buildSets), n), "count")
	ms.set("attack.scan.sets", ratio(float64(p.scanSets), n), "count")
	ms.set("evset.build.host_ns_per_kcycle", nsPerKcycle(p.build, p.buildCycles), "ns/kcycle")
	ms.set("attack.scan.host_ns_per_kcycle", nsPerKcycle(p.scan, p.scanCycles), "ns/kcycle")
	ms.set("attack.extract.host_ns_per_kcycle", nsPerKcycle(p.extract, p.extractCycles), "ns/kcycle")
	ms.set("attack.bits_frac", ratio(float64(bitsRec), float64(bitsTotal)), "ratio")
	ms.set("trace.unaccounted_frac", ratio(float64(p.total-p.accounted()), float64(p.total)), "ratio")
	if w.partial {
		ms.set("scenario.tail_s", ratio((p.untraced-p.total).Seconds(), n), "s")
	} else {
		ms.set("trace.overhead_frac", ratio(p.total.Seconds(), p.untraced.Seconds()), "ratio")
	}
	gd.report(ms)
	return ops, ms, nil
}

// endToEnd computes the end-to-end metrics every workload reports, from
// the timed ops' CPU seconds, the set-up times, and the simulated cycles
// run in simCPUS CPU seconds.
func endToEnd(cpuS, setups []float64, cycles float64, simCPUS []float64, successFrac float64) (metricSet, error) {
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	ms := metricSet{}
	ms.set("ops_per_s", ratio(float64(len(cpuS)), sum(cpuS)), "1/s")
	ms.set("op_s.p50", median(cpuS), "s")
	ms.set("setup_s", median(setups), "s")
	ms.set("peak_rss_mb", rss, "MiB")
	ms.set("sim_mcycles_per_s", ratio(cycles, sum(simCPUS))/1e6, "Mcycles/s")
	ms.set("success_frac", successFrac, "ratio")
	return ms, nil
}

func nsPerKcycle(d time.Duration, c clock.Cycles) float64 {
	return ratio(float64(d.Nanoseconds()), float64(c)/1000)
}

// engineRun drives jobs through one trial-engine run with one worker, so
// consecutive jobs share the worker's pooled host exactly as the trials
// of `llcattack -parallel 1` do. next returns the coming trial's job, or
// nil to end the run.
func engineRun(maxJobs int, next func() func(*experiments.Trial)) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := experiments.RunTrialsObs(ctx, maxJobs, 1, 0, nil, func(t *experiments.Trial) experiments.Sample {
		if job := next(); job != nil {
			job(t)
		} else {
			cancel()
		}
		return experiments.Sample{}
	})
	if errors.Is(err, context.Canceled) {
		return nil
	}
	return err
}

// runScenario runs one scenario trial, turning a panic into an error so
// the op counts as failed and the loop goes on.
func runScenario(sc scenario.Scenario, cfg hierarchy.Config, t *experiments.Trial) (o scenario.Outcome, d time.Duration, err error) {
	t0 := time.Now()
	defer func() {
		d = time.Since(t0)
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return sc.Run(t, cfg), 0, nil
}

func runRebuild(rebuild func(*experiments.Trial, hierarchy.Config) (scenario.Outcome, tracedOp), cfg hierarchy.Config, t *experiments.Trial) (o scenario.Outcome, ph tracedOp, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	o, ph = rebuild(t, cfg)
	return o, ph, nil
}

// golden is one committed report's outcomes.
type golden struct {
	path     string
	outcomes []scenario.Outcome
}

// loadGoldens reads the workload's committed reports. A report for another
// scenario or seed is an error, never a skipped check.
func loadGoldens(w attackWorkload, wseed uint64) ([]golden, error) {
	var out []golden
	for _, path := range w.goldens {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("golden: %w", err)
		}
		var rep scenario.Report
		if err := json.Unmarshal(b, &rep); err != nil {
			return nil, fmt.Errorf("golden %s: %w", path, err)
		}
		if rep.Scenario != w.scenario || rep.Seed != wseed {
			return nil, fmt.Errorf("golden %s pins scenario %q seed %d, not %q seed %d", path, rep.Scenario, rep.Seed, w.scenario, wseed)
		}
		out = append(out, golden{path: path, outcomes: rep.Outcomes})
	}
	return out, nil
}

// diffOutcome compares two outcomes field for field through their JSON
// form (the form the scenario reports commit), returning "" when equal.
func diffOutcome(want, got scenario.Outcome) string {
	w, _ := json.Marshal(want)
	g, _ := json.Marshal(got)
	if string(w) == string(g) {
		return ""
	}
	return fmt.Sprintf("got %s, want %s", g, w)
}

// diffPrefix checks a partial rebuild: its steps must open the full
// outcome's steps, and a rebuild that stopped at a failing step must
// match an outcome that stopped there too.
func diffPrefix(want, got scenario.Outcome) string {
	if len(got.Steps) > len(want.Steps) {
		return fmt.Sprintf("rebuild ran %d steps, the op %d", len(got.Steps), len(want.Steps))
	}
	for i, s := range got.Steps {
		if s != want.Steps[i] {
			return fmt.Sprintf("step %d: got %+v, want %+v", i, s, want.Steps[i])
		}
	}
	if n := len(got.Steps); n > 0 && !got.Steps[n-1].OK && (n != len(want.Steps) || want.Success) {
		return fmt.Sprintf("rebuild stopped at failed step %q, the op went on", got.Steps[n-1].Name)
	}
	return ""
}

// The rebuilds below replay internal/scenario's runExtract and the prefix
// of runKeyRecovery call for call. The Outcome checks catch any drift.
const (
	trainTargetTraces    = 12 // attack.Session.TrainAll's training set sizes
	trainNonTargetTraces = 24
	extractSignings      = 5 // e2e/extract monitors 5 signings
)

// scanTimeout is the scenario package's step-2 budget.
func scanTimeout(cfg hierarchy.Config) clock.Cycles {
	if cfg.Defense != nil {
		return clock.FromMillis(250)
	}
	return clock.FromMillis(60_000)
}

// stepClock stamps steps with simulated cycles as the scenario package's
// step timer does.
type stepClock struct {
	h           *hierarchy.Host
	start, last clock.Cycles
	steps       []scenario.Step
}

func newStepClock(h *hierarchy.Host) *stepClock {
	now := h.Clock().Now()
	return &stepClock{h: h, start: now, last: now}
}

func (c *stepClock) mark(name string, ok bool) {
	now := c.h.Clock().Now()
	c.steps = append(c.steps, scenario.Step{Name: name, OK: ok, Cycles: now - c.last})
	c.last = now
}

func (c *stepClock) span(name string, ok bool, d clock.Cycles) {
	c.steps = append(c.steps, scenario.Step{Name: name, OK: ok, Cycles: d})
	c.last += d
}

func (c *stepClock) outcome(ok bool) scenario.Outcome {
	return scenario.Outcome{Success: ok, Steps: c.steps, TotalCycles: c.h.Clock().Now() - c.start}
}

// timeIt adds f's CPU time to d.
func timeIt(d *time.Duration, f func()) {
	c0 := cpuTime()
	f()
	*d += cpuTime() - c0
}

// train replays attack.Session.TrainAll on the trial's session: collect
// the labelled traces, then train the PSD scanner and the boundary
// classifier on one rng, in that order.
func train(t *experiments.Trial, cfg hierarchy.Config, ph *tracedOp) (*attack.Session, *stepClock, *psd.Scanner, *attack.Extractor) {
	s := attack.NewSessionOn(t.Host(cfg, t.Seed), ec2m.Sect163(), t.Seed)
	c := newStepClock(s.H)
	p := psd.DefaultParams(s.V.ExpectedAccessPeriod())
	rng := xrand.New(t.Seed ^ 0x7a1)
	var td attack.TrainingData
	timeIt(&ph.collect, func() { td = s.CollectTrainingData(p, trainTargetTraces, trainNonTargetTraces) })
	if len(td.Target) == 0 || len(td.NonTarget) == 0 {
		c.mark("train", false)
		return s, c, nil, nil
	}
	var scanner *psd.Scanner
	timeIt(&ph.psdTrain, func() { scanner, _ = psd.TrainScanner(p, td.Target, td.NonTarget, rng) })
	var ex *attack.Extractor
	timeIt(&ph.classifyTrain, func() { ex = attack.TrainExtractor(s.V.IterCycles, td.Traces, td.Truth, rng) })
	c.mark("train", true)
	return s, c, scanner, ex
}

// buildAndScan replays steps 1 and 2, returning the scan (Found is false
// when either step failed).
func buildAndScan(s *attack.Session, c *stepClock, scanner *psd.Scanner, cfg hierarchy.Config, ph *tracedOp) attack.ScanResult {
	var bulk evset.BulkResult
	timeIt(&ph.build, func() { bulk = s.BuildEvictionSets(attack.DefaultE2EOptions().Bulk) })
	ph.buildSets, ph.buildCycles = len(bulk.Sets), bulk.Duration
	c.span("build", len(bulk.Sets) > 0, bulk.Duration)
	if len(bulk.Sets) == 0 {
		return attack.ScanResult{}
	}
	var scan attack.ScanResult
	timeIt(&ph.scan, func() {
		scan = s.ScanForTarget(bulk.Sets, scanner, attack.ScanOptions{Timeout: scanTimeout(cfg)})
	})
	ph.scanSets, ph.scanCycles = scan.Scanned, scan.Duration
	c.span("scan", scan.Found, scan.Duration)
	return scan
}

// rebuildExtract replays one e2e/extract trial: train, then
// attack.Session.RunEndToEnd's build, scan and per-signing capture and
// extraction.
func rebuildExtract(t *experiments.Trial, cfg hierarchy.Config) (o scenario.Outcome, ph tracedOp) {
	c0 := cpuTime()
	defer func() { ph.total = cpuTime() - c0 }()
	s, c, scanner, ex := train(t, cfg, &ph)
	if scanner == nil {
		return c.outcome(false), ph
	}
	e2eStart := s.H.Clock().Now()
	scan := buildAndScan(s, c, scanner, cfg, &ph)
	if !scan.Found {
		return c.outcome(false), ph
	}
	var recovered, total, wrong int
	timeIt(&ph.extract, func() {
		m := probe.NewMonitor(s.Env, probe.Parallel, scan.Set.Lines)
		for i := 0; i < extractSignings; i++ {
			rec := s.TriggerOneSigning()
			tr := m.Capture(rec.End - s.H.Clock().Now() + 50_000)
			sc := attack.ScoreExtraction(ex.Extract(tr), rec, ex.IterCycles)
			recovered += sc.Recovered
			total += sc.Total
			wrong += sc.Wrong
		}
	})
	ph.extractCycles = s.H.Clock().Now() - e2eStart - ph.buildCycles - ph.scanCycles
	c.span("extract", recovered > 0, ph.extractCycles)
	o = c.outcome(recovered > 0)
	o.BitsRecovered, o.BitsTotal, o.BitsWrong = recovered, total, wrong
	return o, ph
}

// rebuildPrefix replays the public prefix of an e2e/keyrecovery trial:
// train, build, scan. Leak capture and the lattice sit behind unexported
// code, so they are timed only as the op's tail.
func rebuildPrefix(t *experiments.Trial, cfg hierarchy.Config) (o scenario.Outcome, ph tracedOp) {
	c0 := cpuTime()
	defer func() { ph.total = cpuTime() - c0 }()
	s, c, scanner, _ := train(t, cfg, &ph)
	if scanner == nil {
		return c.outcome(false), ph
	}
	scan := buildAndScan(s, c, scanner, cfg, &ph)
	return c.outcome(scan.Found), ph
}
