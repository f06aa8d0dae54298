// Command attackdemo narrates one end-to-end, cross-tenant attack on the
// vulnerable ECDSA victim (paper §7): train the classifiers on a
// controlled host, then on a fresh co-located pair build eviction sets,
// identify the target SF set with the PSD scanner, monitor signings with
// Parallel Probing and extract the nonce bits.
package main

import (
	"flag"
	"fmt"
	"time"

	"repro/internal/attack"
	"repro/internal/ec2m"
	"repro/internal/hierarchy"
	"repro/internal/psd"
	"repro/internal/xrand"
)

func main() {
	var (
		seed   = flag.Uint64("seed", 7, "deterministic seed")
		full   = flag.Bool("full", false, "paper-scale host and sect571r1 victim (slow)")
		traces = flag.Int("traces", 5, "signings to monitor in Step 3")
	)
	flag.Parse()

	cfg := hierarchy.Scaled(4).WithCloudNoise()
	curve := ec2m.Sect163()
	if *full {
		cfg = hierarchy.SkylakeSP(28).WithCloudNoise()
		curve = ec2m.Sect571()
	}
	fmt.Printf("host: %s, %d slices, %d SF sets/slice, Cloud Run noise (%.1f acc/ms/set)\n",
		cfg.Name, cfg.Slices, cfg.LLCSets, cfg.Tenants[0].Rate)
	fmt.Printf("victim: ECDSA Montgomery ladder on %s (%d-bit nonces)\n\n", curve.Name, curve.N.BitLen())

	wall := time.Now()
	fmt.Println("[0] training classifiers on a controlled host (attacker+victim co-resident)...")
	train := attack.NewSession(cfg, curve, *seed^0xaaaa)
	p := psd.DefaultParams(train.V.ExpectedAccessPeriod())
	scanner, ex, ts := train.TrainAll(p, xrand.New(*seed^0x111))
	fmt.Printf("    SVM validation: %.2f%% false negatives, %.2f%% false positives\n\n",
		100*ts.FalseNegative, 100*ts.FalsePositive)

	s := attack.NewSession(cfg, curve, *seed)
	fmt.Println("[1] building SF eviction sets at the victim's page offset (L2 filtering + binary search)...")
	opt := attack.DefaultE2EOptions()
	opt.Traces = *traces
	res := s.RunEndToEnd(scanner, ex, opt)
	fmt.Printf("    %d eviction sets in %.1f ms of victim-visible time\n\n", res.SetsBuilt, res.BuildTime.Millis())

	fmt.Println("[2] scanning for the target SF set with Welch-PSD + SVM while triggering signings...")
	if !res.Scan.Found {
		fmt.Println("    scan timed out — no signal on this pair")
		return
	}
	fmt.Printf("    target identified in %.1f ms after %d set-traces (ground truth: correct=%v)\n\n",
		res.Scan.Duration.Millis(), res.Scan.Scanned, res.Scan.Correct)

	fmt.Printf("[3] monitoring %d signings with Parallel Probing and extracting nonce bits...\n", *traces)
	for i, f := range res.Fractions {
		fmt.Printf("    signing %d: %.1f%% of nonce bits, %.2f%% bit errors\n",
			i+1, 100*f, 100*res.ErrorRates[i])
	}
	fmt.Printf("\nend-to-end: median %.0f%% of secret nonce bits extracted in %.1f s of attack time"+
		" (paper: median 81%% in ~19 s)\n", 100*res.MedianFraction(), res.TotalTime.Seconds())
	fmt.Printf("simulation wall time: %s\n", time.Since(wall).Round(time.Millisecond))
}
