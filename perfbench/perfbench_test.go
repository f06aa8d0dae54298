package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/hierarchy"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// A covert-channel scenario runs in milliseconds, so these tests drive the
// attack loop end to end on it against its committed golden.
const covertGolden = "../cmd/llcattack/testdata/covertquiesce_trials4_seed5.golden.json"

func covertWorkload(goldens ...string) attackWorkload {
	return attackWorkload{scenario: "covert/channel/quiesce", ops: 4, goldens: goldens}
}

func covertConfig(t *testing.T, trace bool) config {
	return config{workload: "test", seed: 3, wseed: 5, seconds: 1e-9, trace: trace, work: t.TempDir()}
}

func failedOps(ops []opRecord) []opRecord {
	var out []opRecord
	for _, o := range ops {
		if o.Failed != "" {
			out = append(out, o)
		}
	}
	return out
}

// declared returns the metrics BENCHMARK.json declares under key
// ("end_to_end" or "per_layer"), name to unit.
func declared(t *testing.T, key string) map[string]string {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var bench struct {
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	ms := bench.EndToEnd
	if key == "per_layer" {
		ms = bench.PerLayer
	}
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

// checkReported fails unless ms holds exactly the declared metrics with
// their declared units.
func checkReported(t *testing.T, ms metricSet, want map[string]string) {
	t.Helper()
	if len(ms) != len(want) {
		t.Errorf("reported %d metrics, BENCHMARK.json declares %d", len(ms), len(want))
	}
	for name, unit := range want {
		if got, ok := ms[name]; !ok || got.Unit != unit {
			t.Errorf("metric %s: got %+v, want unit %q", name, got, unit)
		}
	}
}

func TestAttackLoopMatchesGolden(t *testing.T) {
	ops, ms, err := runAttack(covertConfig(t, false), covertWorkload(covertGolden))
	if err != nil {
		t.Fatal(err)
	}
	// Three set-up warm-ups, then one whole pass of the four ops.
	if len(ops) != setupReps+4 {
		t.Fatalf("got %d ops, want %d", len(ops), setupReps+4)
	}
	if f := failedOps(ops); len(f) > 0 {
		t.Fatalf("clean run failed ops: %+v", f)
	}
	res := tally(ops, ms)
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("result %+v", res)
	}
	checkReported(t, ms, declared(t, "end_to_end"))
}

func TestGoldenMismatchFailsOp(t *testing.T) {
	b, err := os.ReadFile(covertGolden)
	if err != nil {
		t.Fatal(err)
	}
	var rep map[string]any
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	// Flip op 1's success: the replayed op can no longer match it.
	o1 := rep["outcomes"].([]any)[1].(map[string]any)
	o1["success"] = !o1["success"].(bool)
	tampered := filepath.Join(t.TempDir(), "golden.json")
	b, _ = json.Marshal(rep)
	if err := os.WriteFile(tampered, b, 0o644); err != nil {
		t.Fatal(err)
	}

	// The clean golden comes first: every golden is checked, not only
	// the first that holds the op.
	ops, ms, err := runAttack(covertConfig(t, false), covertWorkload(covertGolden, tampered))
	if err != nil {
		t.Fatal(err)
	}
	f := failedOps(ops)
	if len(f) != 1 || f[0].Op != 1 || !strings.Contains(f[0].Failed, "differs from "+tampered) {
		t.Fatalf("want exactly op 1 failed against the tampered golden, got %+v", f)
	}
	if res := tally(ops, ms); res.Correct || res.Failed != 1 {
		t.Fatalf("result %+v, want correct=false failed=1", res)
	}
}

func TestGoldenForAnotherSeedIsAnError(t *testing.T) {
	cfg := covertConfig(t, false)
	cfg.wseed++
	if _, _, err := runAttack(cfg, covertWorkload(covertGolden)); err == nil || !strings.Contains(err.Error(), "seed") {
		t.Fatalf("golden at another workload seed: got err %v, want a seed mismatch", err)
	}
}

// TestWorkloadPinsCoverEveryOp checks that at the default workload seed
// every op of every workload has a committed outcome to match.
func TestWorkloadPinsCoverEveryOp(t *testing.T) {
	t.Chdir("..") // the workloads name their pins from the checkout root
	for _, w := range []attackWorkload{extractWorkload, keyRecoveryWorkload} {
		gs, err := loadGoldens(w, defaultWorkloadSeed)
		if err != nil {
			t.Fatal(err)
		}
		covered := 0
		for _, g := range gs {
			covered = max(covered, len(g.outcomes))
			// Goldens that share an op must agree on it.
			for i, o := range g.outcomes[:min(len(g.outcomes), len(gs[0].outcomes))] {
				if d := diffOutcome(gs[0].outcomes[i], o); d != "" {
					t.Errorf("%s and %s disagree on op %d: %s", gs[0].path, g.path, i, d)
				}
			}
		}
		if covered < w.ops {
			t.Errorf("%s: goldens pin %d of %d ops", w.scenario, covered, w.ops)
		}
	}
	spec := defaultGrid.spec
	spec.Seed = defaultWorkloadSeed
	spec.Normalize()
	if _, err := loadPin(defaultGrid.pin, sweep.Expand(spec)); err != nil {
		t.Fatal(err)
	}
}

func TestTracedRebuildMismatchFailsOp(t *testing.T) {
	sc, _ := scenario.Lookup("covert/channel/quiesce")
	w := covertWorkload(covertGolden)
	w.rebuild = func(tr *experiments.Trial, cfg hierarchy.Config) (scenario.Outcome, tracedOp) {
		return sc.Run(tr, cfg), tracedOp{}
	}
	ops, _, err := runAttack(covertConfig(t, true), w)
	if err != nil {
		t.Fatal(err)
	}
	if f := failedOps(ops); len(f) > 0 {
		t.Fatalf("faithful rebuild failed ops: %+v", f)
	}

	w.rebuild = func(tr *experiments.Trial, cfg hierarchy.Config) (scenario.Outcome, tracedOp) {
		o := sc.Run(tr, cfg)
		o.TotalCycles++
		return o, tracedOp{}
	}
	ops, ms, err := runAttack(covertConfig(t, true), w)
	if err != nil {
		t.Fatal(err)
	}
	f := failedOps(ops)
	if len(f) != 4 {
		t.Fatalf("want the 4 traced ops failed, got %d: %+v", len(f), f)
	}
	for _, o := range f {
		if !strings.Contains(o.Failed, "traced rebuild differs") {
			t.Errorf("op %d failed for another reason: %s", o.Op, o.Failed)
		}
	}
	if res := tally(ops, ms); res.Correct || res.Failed != 4 {
		t.Fatalf("result %+v", res)
	}
	checkReported(t, ms, declared(t, "per_layer"))
}

func TestDiffPrefix(t *testing.T) {
	full := scenario.Outcome{Success: true, Steps: []scenario.Step{
		{Name: "train", OK: true, Cycles: 10}, {Name: "build", OK: true, Cycles: 5}, {Name: "scan", OK: true, Cycles: 7},
		{Name: "extract", OK: true, Cycles: 9}}}
	if d := diffPrefix(full, scenario.Outcome{Steps: full.Steps[:3]}); d != "" {
		t.Errorf("matching prefix: %s", d)
	}
	bad := append([]scenario.Step(nil), full.Steps[:3]...)
	bad[1].Cycles++
	if d := diffPrefix(full, scenario.Outcome{Steps: bad}); d == "" {
		t.Error("changed step cycles not reported")
	}
	stopped := append([]scenario.Step(nil), full.Steps[:3]...)
	stopped[2].OK = false
	full.Steps[2].OK = false
	if d := diffPrefix(full, scenario.Outcome{Steps: stopped}); d == "" {
		t.Error("rebuild stopped at a failed scan but the op went on: not reported")
	}
}

// tinyGrid is a grid of millisecond cells.
func tinyGrid() gridWorkload {
	return gridWorkload{spec: sweep.Spec{
		Experiments: []string{"probe/parallel"},
		Policies:    []string{"LRU", "SRRIP", "Random"},
		NoiseRates:  []float64{0.29, 11.5},
		Trials:      2,
	}}
}

func TestGridPassResumesByteIdentically(t *testing.T) {
	cfg := covertConfig(t, true)
	ops, ms, err := runGrid(cfg, tinyGrid())
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != setupReps+6 {
		t.Fatalf("got %d ops, want %d", len(ops), setupReps+6)
	}
	if f := failedOps(ops); len(f) > 0 {
		t.Fatalf("clean grid failed ops: %+v", f)
	}
	checkReported(t, ms, declared(t, "per_layer"))
	if ms["campaign.log_bytes"].Value <= 0 || ms["campaign.cell_s.policy-SRRIP"].Value <= 0 {
		t.Errorf("campaign metrics not measured: %+v", ms)
	}
}

func TestGridTornLogFailsCell(t *testing.T) {
	g := tinyGrid()
	// Tear the last record: the reopened log drops it, so the resume
	// recomputes that cell instead of reading it back.
	g.damage = func(path string) error {
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		return os.Truncate(path, fi.Size()-3)
	}
	ops, ms, err := runGrid(covertConfig(t, false), g)
	if err != nil {
		t.Fatal(err)
	}
	f := failedOps(ops)
	if len(f) != 1 || !strings.Contains(f[0].Failed, "record lost at reopen") {
		t.Fatalf("want exactly the torn cell failed, got %+v", f)
	}
	if res := tally(ops, ms); res.Correct || res.Failed != 1 {
		t.Fatalf("result %+v", res)
	}
}

// writePin writes a clean run's cell samples as an `llccells -trials`
// dump, with setTrial applied to the cell at canonical index op.
func writePin(t *testing.T, g gridWorkload, ops []opRecord, op int, setTrial func(map[string]any)) string {
	t.Helper()
	spec := g.spec
	spec.Seed = covertConfig(t, false).wseed
	spec.Normalize()
	cells := sweep.Expand(spec)
	rows := map[int]map[string]any{}
	for _, o := range ops {
		out := o.Outcome.(cellOutcome)
		var trials []map[string]any
		for _, s := range out.Samples {
			trials = append(trials, map[string]any{"ok": s.OK, "value": s.Value})
		}
		if o.Op == op {
			setTrial(trials[0])
		}
		rows[o.Op] = map[string]any{"key": cells[o.Op].Key, "coords": out.Coords, "trials": trials}
	}
	var b []byte
	for i := range cells {
		line, _ := json.Marshal(rows[i])
		b = append(append(b, line...), '\n')
	}
	path := filepath.Join(t.TempDir(), "pin.ndjson")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGridPinMismatchFailsCell(t *testing.T) {
	g := tinyGrid()
	ops, _, err := runGrid(covertConfig(t, false), g)
	if err != nil {
		t.Fatal(err)
	}
	g.pin = writePin(t, g, ops, 0, func(map[string]any) {})
	ops, _, err = runGrid(covertConfig(t, false), g)
	if err != nil {
		t.Fatal(err)
	}
	if f := failedOps(ops); len(f) > 0 {
		t.Fatalf("grid against its own pin failed ops: %+v", f)
	}

	// Cell 3 is not the warm-up cell, so it runs once, in the pass.
	g.pin = writePin(t, g, ops, 3, func(tr map[string]any) { tr["value"] = tr["value"].(float64) + 1 })
	ops, ms, err := runGrid(covertConfig(t, false), g)
	if err != nil {
		t.Fatal(err)
	}
	f := failedOps(ops)
	if len(f) != 1 || f[0].Op != 3 || !strings.Contains(f[0].Failed, "differ from "+g.pin) {
		t.Fatalf("want exactly cell 3 failed against the pin, got %+v", f)
	}
	if res := tally(ops, ms); res.Correct || res.Failed != 1 {
		t.Fatalf("result %+v", res)
	}

	b, err := os.ReadFile(g.pin)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(b), "\n"), "\n")
	if err := os.WriteFile(g.pin, []byte(strings.Join(lines[:len(lines)-1], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := runGrid(covertConfig(t, false), g); err == nil || !strings.Contains(err.Error(), "has no cell") {
		t.Fatalf("pin missing a cell: got err %v", err)
	}
}

func TestPermuteAxesKeepsCells(t *testing.T) {
	spec := defaultGrid.spec
	spec.Seed = defaultWorkloadSeed
	spec.Normalize()
	seeds := map[string]uint64{}
	for _, c := range sweep.Expand(spec) {
		seeds[c.Key] = c.Seed
	}
	for s := uint64(1); s <= 5; s++ {
		cells := sweep.Expand(permuteAxes(spec, s))
		if len(cells) != len(seeds) {
			t.Fatalf("seed %d: %d cells, want %d", s, len(cells), len(seeds))
		}
		for _, c := range cells {
			if seeds[c.Key] != c.Seed {
				t.Fatalf("seed %d: cell %s moved to another seed", s, c.Key)
			}
		}
	}
}
