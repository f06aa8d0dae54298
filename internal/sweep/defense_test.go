package sweep

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/experiments"
	"repro/internal/hierarchy"
	"repro/internal/scenario"
	"repro/internal/xrand"
)

// TestDefenseAxis sweeps LLC countermeasures: the same experiment across
// defenses, with "none" first so it is the baseline the defended cells
// are compared against.
func TestDefenseAxis(t *testing.T) {
	s := tinySpec()
	s.Policies = []string{"LRU"}
	s.SFAssocs = []int{8}
	s.Defenses = []string{"none", "partition:ways=4", "quiesce"}
	res, err := Run(context.Background(), s, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 3 {
		t.Fatalf("got %d cells, want 3", len(res.Cells))
	}
	want := []string{"none", "partition:ways=4", "quiesce:quantum=512,jitter=0"}
	for i, c := range res.Cells {
		if c.Defense != want[i] {
			t.Errorf("cell %d defense = %q, want canonical %q", i, c.Defense, want[i])
		}
		if (i == 0) != c.Baseline {
			t.Errorf("cell %d baseline = %v; the undefended cell must be the baseline", i, c.Baseline)
		}
	}
	// The partitioned host halves the attacker's effective associativity,
	// so the BinS construction cell must behave differently from the
	// undefended baseline in at least one number.
	a, b := res.Cells[0], res.Cells[1]
	if a.SuccessRate == b.SuccessRate && a.Mean == b.Mean && a.Median == b.Median {
		t.Error("partition cell is numerically identical to the undefended baseline — the defense is not reaching the host")
	}
}

// TestDefenseAxisPreservesUndefendedCells pins the seed-label back-compat
// rule: growing the Defenses axis must not move a single number in the
// "none" cells, which carry the same coordinates as before the axis
// existed — the property that keeps SWEEP_seed.json stable.
func TestDefenseAxisPreservesUndefendedCells(t *testing.T) {
	base := tinySpec()
	withAxis := tinySpec()
	withAxis.Defenses = []string{"none", "quiesce"}
	a, err := Run(context.Background(), base, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), withAxis, 4)
	if err != nil {
		t.Fatal(err)
	}
	var undefended []CellResult
	for _, c := range b.Cells {
		if c.Defense == "none" {
			undefended = append(undefended, c)
		}
	}
	if len(undefended) != len(a.Cells) {
		t.Fatalf("%d undefended cells vs %d baseline cells", len(undefended), len(a.Cells))
	}
	deref := func(p *float64) (float64, bool) {
		if p == nil {
			return 0, false
		}
		return *p, true
	}
	for i := range undefended {
		p, q := undefended[i], a.Cells[i]
		pd, pk := deref(p.DeltaSuccess)
		qd, qk := deref(q.DeltaSuccess)
		pm, pmk := deref(p.DeltaMean)
		qm, qmk := deref(q.DeltaMean)
		p.DeltaSuccess, p.DeltaMean, q.DeltaSuccess, q.DeltaMean = nil, nil, nil, nil
		if p != q || pd != qd || pk != qk || pm != qm || pmk != qmk {
			t.Errorf("undefended cell %d moved when the defense axis grew:\n%+v\nvs\n%+v",
				i, undefended[i], a.Cells[i])
		}
	}
}

// TestScenarioCellCarriesVariantDefense: a defended scenario VARIANT
// mirrored as a sweep cell must measure a defended host even when the
// grid's defenses axis is the default "none" — the variant's baked
// countermeasure is what the cell's name promises.
func TestScenarioCellCarriesVariantDefense(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario pipelines are slow")
	}
	spec := Spec{
		Experiments: []string{"scenario/covert/channel", "scenario/covert/channel/quiesce"},
		Policies:    []string{"LRU"},
		SFAssocs:    []int{8},
		Slices:      []int{4},
		NoiseRates:  []float64{11.5},
		Trials:      2,
		Seed:        7,
	}
	res, err := Run(context.Background(), spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(res.Cells))
	}
	base, quiesced := res.Cells[0], res.Cells[1]
	if base.SuccessRate == 0 {
		t.Fatal("undefended covert channel should work in a sweep cell")
	}
	if quiesced.SuccessRate != 0 {
		t.Fatalf("covert/channel/quiesce cell succeeded at %.2f — the variant's baked defense did not reach the host",
			quiesced.SuccessRate)
	}
}

// TestScenarioCellCarriesVariantTenants: a structured-tenant scenario
// VARIANT mirrored as a sweep cell must run on the variant's baked
// background even in a default grid, whose tenant axis puts the single
// poisson tenant of every preset on each cell — the stream cell's
// samples are the stream variant's own, not those of the grid's
// poisson host. A scenario whose background is itself one poisson
// tenant (covert/channel at the Cloud Run rate, e2e/extract/noisy at
// 34.5/ms) differs only in rate, so its cell keeps the grid's swept
// rate.
func TestScenarioCellCarriesVariantTenants(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario pipelines are slow")
	}
	for _, tc := range []struct {
		id    string
		carry bool
	}{
		{"covert/channel/stream", true},
		{"covert/channel", false},
	} {
		spec := Spec{
			Experiments: []string{"scenario/" + tc.id},
			Policies:    []string{"LRU"},
			SFAssocs:    []int{8},
			Slices:      []int{4},
			Trials:      2,
			Seed:        7,
		}
		spec.Normalize()
		if err := spec.Validate(); err != nil {
			t.Fatal(err)
		}
		cls := Expand(spec)
		if len(cls) != 1 || cls[0].TenantModel != "poisson" {
			t.Fatalf("%s: want one default poisson cell, got %+v", tc.id, cls)
		}
		c := cls[0]
		sc, ok := scenario.Lookup(tc.id)
		if !ok {
			t.Fatalf("%s not registered", tc.id)
		}
		// Each trial runs on the cell's own seed stream, as Run does.
		samples := func(run func(*experiments.Trial) experiments.Sample) []experiments.Sample {
			return experiments.RunTrials(spec.Trials, 1, spec.Seed, func(t *experiments.Trial) experiments.Sample {
				return run(t.WithSeed(xrand.Stream(c.Seed, uint64(t.Index))))
			})
		}
		scenarioOn := func(cfg hierarchy.Config) []experiments.Sample {
			return samples(func(t *experiments.Trial) experiments.Sample {
				o := sc.Run(t, cfg)
				return experiments.Sample{OK: o.Success, Value: float64(o.TotalCycles)}
			})
		}
		cell := samples(func(t *experiments.Trial) experiments.Sample { return c.Exp.Run(t, c.Config) })
		want, other := scenarioOn(c.Config), scenarioOn(sc.Config())
		if tc.carry {
			want, other = other, want
		}
		if !reflect.DeepEqual(cell, want) || reflect.DeepEqual(cell, other) {
			t.Errorf("%s (carry-over %v): cell samples %+v, want %+v, not %+v", tc.id, tc.carry, cell, want, other)
		}
	}
}

func TestValidateRejectsBadDefense(t *testing.T) {
	s := tinySpec()
	s.Defenses = []string{"moat"}
	if err := s.Validate(); err == nil {
		t.Error("Validate accepted an unknown defense model")
	}
	// A partition too wide for a swept associativity fails up front with
	// the offending coordinates, not mid-grid.
	s = tinySpec()
	s.SFAssocs = []int{8, 6}
	s.Defenses = []string{"partition:ways=5"} // LLC follows at 5 ways for assoc 6
	if err := s.Validate(); err == nil {
		t.Error("Validate accepted a partition wider than the smallest swept LLC")
	}
	s.SFAssocs = []int{8}
	if err := s.Validate(); err != nil {
		t.Errorf("partition:ways=5 at sf_assoc 8 should validate: %v", err)
	}
}
