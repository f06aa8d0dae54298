package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/artifact"
	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/sweep"
	"repro/internal/xrand"
)

// gridWorkload is one resumable campaign over a fixed grid, one cell in
// flight: an op is one cell. Each pass writes a fresh checkpoint log,
// reopens it, and resumes the campaign over it; the resume must skip
// every cell and reproduce the pass's Result byte for byte.
type gridWorkload struct {
	// spec lists the axes in canonical order; its Seed is the workload
	// seed. A run permutes every axis by --seed, which reorders the cells
	// but not their seeds (cell seeds derive from coordinates alone).
	spec sweep.Spec
	// warmup is the canonical index of the cell every set-up runs.
	warmup int
	// pin, when set, is a committed `llccells -trials` dump of the grid at
	// the workload seed, as a path from the checkout root: every cell's
	// samples must equal its pinned ones.
	pin string
	// damage, when set, runs on each pass's closed log before it is
	// reopened; tests use it to force a mismatch.
	damage func(logPath string) error
}

var defaultGrid = gridWorkload{
	spec: sweep.Spec{
		Experiments:  []string{"evset/bins", "probe/detect"},
		Policies:     []string{"LRU", "Tree-PLRU", "SRRIP", "QLRU", "Random"},
		NoiseRates:   []float64{0.29, 11.5},
		TenantModels: []string{"poisson", "burst", "stream"},
		Trials:       1,
	},
	warmup: 12, // evset/bins SRRIP 0.29 poisson, a mid-cost cell
	pin:    "perfbench/testdata/grid_trials1_seed2.ndjson",
}

// pinnedCell is one line of an `llccells -trials` dump.
type pinnedCell struct {
	Key    string `json:"key"`
	Trials []struct {
		OK    bool    `json:"ok"`
		Value float64 `json:"value"`
	} `json:"trials"`
}

// loadPin reads a grid's pinned samples, keyed by cell key. It must hold
// every cell of the grid and no other.
func loadPin(path string, cells []sweep.Cell) (map[string][]experiments.Sample, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("pin: %w", err)
	}
	pin := map[string][]experiments.Sample{}
	dec := json.NewDecoder(bytes.NewReader(b))
	for dec.More() {
		var row pinnedCell
		if err := dec.Decode(&row); err != nil {
			return nil, fmt.Errorf("pin %s: %w", path, err)
		}
		ss := make([]experiments.Sample, len(row.Trials))
		for i, tr := range row.Trials {
			ss[i] = experiments.Sample{OK: tr.OK, Value: tr.Value}
		}
		pin[row.Key] = ss
	}
	for _, c := range cells {
		if _, ok := pin[c.Key]; !ok {
			return nil, fmt.Errorf("pin %s has no cell %s", path, c.Key)
		}
	}
	if len(pin) != len(cells) {
		return nil, fmt.Errorf("pin %s holds %d cells, the grid %d", path, len(pin), len(cells))
	}
	return pin, nil
}

// cellOutcome is a cell's checkpointed samples, as the op record shows it.
type cellOutcome struct {
	Coords  string               `json:"coords"`
	Samples []experiments.Sample `json:"samples"`
}

// gridPass is one pass's timing and checks.
type gridPass struct {
	recs     []opRecord // in the run's cell order
	open     time.Duration
	resume   time.Duration
	logBytes int64
}

func runGrid(cfg config, g gridWorkload) ([]opRecord, metricSet, error) {
	canon := g.spec
	canon.Seed = cfg.wseed
	canon.Normalize()
	if err := canon.Validate(); err != nil {
		return nil, nil, err
	}
	canonIdx := map[string]int{}
	for i, c := range sweep.Expand(canon) {
		canonIdx[c.Key] = i
	}
	spec := permuteAxes(canon, cfg.seed)
	cells := sweep.Expand(spec)
	warmKey := sweep.Expand(canon)[g.warmup].Key
	warmAt := 0
	for i, c := range cells {
		if c.Key == warmKey {
			warmAt = i
		}
	}
	var pin map[string][]experiments.Sample
	if g.pin != "" {
		var err error
		if pin, err = loadPin(g.pin, cells); err != nil {
			return nil, nil, err
		}
	}
	fp := campaign.Fingerprint(spec)
	ctx := context.Background()
	first := map[string][]byte{} // each cell's first checkpoint payload
	// checkCell decodes a cell's checkpoint record into its op record and
	// checks it against the cell's earlier runs.
	checkCell := func(rec *opRecord, c *sweep.Cell, payload []byte) {
		ss, err := campaign.DecodeSamples(payload, spec.Trials)
		if err != nil {
			rec.fail("%v", err)
			return
		}
		rec.Outcome = cellOutcome{Coords: c.Coords(), Samples: ss}
		if c.Exp.Unit == "cycles" {
			for _, s := range ss {
				rec.SimCycles += uint64(s.Value)
			}
		}
		if prev, seen := first[c.Key]; !seen {
			first[c.Key] = payload
		} else if !bytes.Equal(prev, payload) {
			rec.fail("samples differ from the cell's earlier run")
		}
		if want, ok := pin[c.Key]; ok && !bytes.Equal(campaign.EncodeSamples(want), payload) {
			rec.fail("samples differ from %s: got %+v, want %+v", g.pin, ss, want)
		}
	}

	var ops []opRecord
	var setups []float64
	for r := 0; r < setupReps; r++ {
		var start time.Duration // the first set-up is timed from process start
		if r > 0 {
			start = cpuTime()
		}
		c := &cells[warmAt]
		rec := opRecord{Pass: -1, Op: canonIdx[c.Key], Seed: c.Seed}
		lg, err := artifact.Create(filepath.Join(cfg.work, fmt.Sprintf("setup%d.log", r)), fp)
		if err != nil {
			return nil, nil, err
		}
		t0, c0 := time.Now(), cpuTime()
		_, _, err = campaign.Run(ctx, spec, campaign.Options{Workers: 1, Log: lg, CellStart: warmAt, CellEnd: warmAt + 1})
		rec.CPUS, rec.WallS = (cpuTime() - c0).Seconds(), time.Since(t0).Seconds()
		if err != nil {
			rec.fail("%v", err)
		} else if payload, ok := lg.Get(c.Key); !ok {
			rec.fail("no checkpoint record")
		} else {
			checkCell(&rec, c, payload)
		}
		if err := lg.Close(); err != nil {
			return nil, nil, err
		}
		ops = append(ops, rec)
		setups = append(setups, (cpuTime() - start).Seconds())
	}

	var gd goDelta
	var passes []gridPass
	loop := passLoop{seconds: cfg.seconds}
	loop.begin()
	for {
		p, err := runGridPass(ctx, cfg, g, spec, cells, fp, len(passes), canonIdx, checkCell, &gd)
		if err != nil {
			return nil, nil, err
		}
		passes = append(passes, p)
		ops = append(ops, p.recs...)
		if !loop.endPass() {
			break
		}
	}

	var cpuS, simCPUS []float64
	var cycles float64
	var okTrials, trials int
	groups := map[string][]float64{}
	for _, p := range passes {
		for i, rec := range p.recs {
			c := &cells[i]
			cpuS = append(cpuS, rec.CPUS)
			if c.Exp.Unit == "cycles" {
				simCPUS = append(simCPUS, rec.CPUS)
				cycles += float64(rec.SimCycles)
			}
			if out, ok := rec.Outcome.(cellOutcome); ok {
				for _, s := range out.Samples {
					trials++
					if s.OK {
						okTrials++
					}
				}
			}
			for _, grp := range []string{strings.ReplaceAll(c.Exp.ID, "/", "-"), "tenant-" + c.TenantModel, "policy-" + c.PolicyName} {
				groups[grp] = append(groups[grp], rec.CPUS)
			}
		}
	}
	if !cfg.trace {
		ms, err := endToEnd(cpuS, setups, cycles, simCPUS, ratio(float64(okTrials), float64(trials)))
		return ops, ms, err
	}
	ms := zeroLayers()
	for grp, xs := range groups {
		// Only the declared groups: a grid with other axis values reports
		// the declared metrics and no others.
		if name := "campaign.cell_s." + grp; ms[name].Unit != "" {
			ms.set(name, sum(xs)/float64(len(xs)), "s")
		}
	}
	var open, resume []float64
	for _, p := range passes {
		open = append(open, p.open.Seconds())
		resume = append(resume, p.resume.Seconds())
	}
	ms.set("artifact.open_s", median(open), "s")
	ms.set("campaign.resume_s", median(resume), "s")
	ms.set("campaign.log_bytes", float64(passes[len(passes)-1].logBytes), "bytes")
	gd.report(ms)
	return ops, ms, nil
}

// runGridPass runs the whole grid into a fresh log, then reopens the log
// and resumes over it. Every check failure marks the cells it concerns;
// the error return is for the environment (the log cannot be created).
func runGridPass(ctx context.Context, cfg config, g gridWorkload, spec sweep.Spec, cells []sweep.Cell, fp uint64,
	pass int, canonIdx map[string]int, checkCell func(*opRecord, *sweep.Cell, []byte), gd *goDelta) (gridPass, error) {
	path := filepath.Join(cfg.work, fmt.Sprintf("pass%d.log", pass))
	lg, err := artifact.Create(path, fp)
	if err != nil {
		return gridPass{}, err
	}
	p := gridPass{recs: make([]opRecord, len(cells))}
	done := make([]bool, len(cells))
	for i, c := range cells {
		p.recs[i] = opRecord{Pass: pass, Op: canonIdx[c.Key], Seed: c.Seed}
	}
	g0 := readGoStats()
	last, lastCPU := time.Now(), cpuTime()
	res, _, runErr := campaign.Run(ctx, spec, campaign.Options{Workers: 1, Log: lg, OnCell: func(e campaign.Event) {
		now, cpu := time.Now(), cpuTime()
		p.recs[e.Cell].CPUS, p.recs[e.Cell].WallS = (cpu - lastCPU).Seconds(), now.Sub(last).Seconds()
		done[e.Cell] = true
		last, lastCPU = now, cpu
		if cfg.trace {
			g1 := readGoStats()
			gd.add(g0, g1)
			g0 = g1
		}
	}})
	if err := lg.Close(); err != nil {
		return gridPass{}, err
	}
	failAll := func(format string, args ...any) {
		for i := range p.recs {
			p.recs[i].fail(format, args...)
		}
	}
	for i := range cells {
		if !done[i] {
			p.recs[i].fail("not completed: %v", runErr)
		}
	}
	if g.damage != nil {
		if err := g.damage(path); err != nil {
			return gridPass{}, err
		}
	}

	c0 := cpuTime()
	lg2, err := artifact.Open(path, fp)
	p.open = cpuTime() - c0
	if err != nil {
		failAll("reopen: %v", err)
		return p, nil
	}
	defer lg2.Close()
	recorded := 0
	for i := range cells {
		c := &cells[i]
		payload, ok := lg2.Get(c.Key)
		if !ok {
			if done[i] {
				p.recs[i].fail("record lost at reopen (dropped tail %d, duplicates %d)", lg2.DroppedTail, lg2.DroppedDuplicates)
			}
			continue
		}
		recorded++
		checkCell(&p.recs[i], c, payload)
	}

	c1 := cpuTime()
	res2, st, err := campaign.Run(ctx, spec, campaign.Options{Workers: 1, Log: lg2})
	p.resume = cpuTime() - c1
	if fi, statErr := os.Stat(path); statErr == nil {
		p.logBytes = fi.Size()
	}
	switch {
	case err != nil:
		failAll("resume: %v", err)
	case runErr != nil:
		// The pass already failed its unfinished cells; there is no first
		// Result to compare with.
	case st.Skipped != recorded:
		failAll("resume skipped %d cells, the log holds %d", st.Skipped, recorded)
	case len(res.Cells) != len(cells) || len(res2.Cells) != len(cells):
		failAll("results hold %d and %d cells, the grid %d", len(res.Cells), len(res2.Cells), len(cells))
	default:
		var b1, b2 bytes.Buffer
		if err := res.WriteJSON(&b1); err != nil {
			return gridPass{}, err
		}
		if err := res2.WriteJSON(&b2); err != nil {
			return gridPass{}, err
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			marked := false
			for i := range res.Cells {
				c1, _ := json.Marshal(res.Cells[i])
				c2, _ := json.Marshal(res2.Cells[i])
				if !bytes.Equal(c1, c2) {
					p.recs[i].fail("resumed result differs: got %s, want %s", c2, c1)
					marked = true
				}
			}
			if !marked {
				failAll("resumed result JSON differs")
			}
		}
	}
	return p, nil
}

// permuteAxes returns spec with every axis's values in a seeded order.
func permuteAxes(spec sweep.Spec, seed uint64) sweep.Spec {
	r := xrand.New(seed)
	spec.Experiments = permute(r, spec.Experiments)
	spec.Policies = permute(r, spec.Policies)
	spec.SFAssocs = permute(r, spec.SFAssocs)
	spec.Slices = permute(r, spec.Slices)
	spec.NoiseRates = permute(r, spec.NoiseRates)
	spec.TenantModels = permute(r, spec.TenantModels)
	spec.Defenses = permute(r, spec.Defenses)
	return spec
}

func permute[T any](r *xrand.Rand, xs []T) []T {
	out := make([]T, len(xs))
	for i, j := range r.Perm(len(xs)) {
		out[i] = xs[j]
	}
	return out
}
