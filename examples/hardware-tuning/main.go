// Hardware-tuning reproduces the §4.6 case study: maximizing
// EfficientNetV2-T inference performance on a Jetson Orin NX under a
// 15 W power budget by tuning the GPU and memory clocks with PRoof's
// roofline guidance.
//
//	go run ./examples/hardware-tuning
package main

import (
	"context"
	"fmt"
	"log"

	"proof"
)

const (
	platform = "orin-nx"
	workload = "efficientnetv2-t"
	batch    = 128
	budgetW  = 15.0
)

func main() {
	ctx := context.Background()

	// Step 1: establish the achieved roofline baseline at candidate
	// clock configurations with the peak-test pseudo model (Table 6).
	fmt.Println("Step 1: achieved roofline peaks at candidate clocks (peak-test pseudo model)")
	fmt.Printf("%10s %10s %12s %12s\n", "GPU(MHz)", "EMC(MHz)", "TFLOP/s", "BW GB/s")
	for _, pair := range [][2]int{{918, 3199}, {918, 2133}, {510, 3199}, {510, 665}} {
		peak, err := proof.MeasurePeakCtx(ctx, platform, proof.Float16,
			proof.Clocks{GPUMHz: pair[0], EMCMHz: pair[1], CPUClusters: 1})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%10d %10d %12.3f %12.1f\n", pair[0], pair[1], peak.FLOPS/1e12, peak.BW/1e9)
	}

	// Step 2+3: run the full tuning workflow — layer-wise roofline
	// analysis picks the memory clock (Figure 8's bandwidth lines),
	// then a binary search finds the best GPU clock under the budget.
	// The session serves every profile below; the workflow's final
	// evaluation repeats its best probe and is answered from the cache.
	sess := proof.NewSession(0)
	res, err := proof.TuneClocks(ctx, platform, workload, batch, proof.Float16, budgetW, 0.45, sess)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nStep 2: memory-clock analysis of %s (layer-wise roofline at max clocks)\n", workload)
	for _, a := range res.EMCAnalyses {
		fmt.Printf("  EMC %4d MHz -> BW line %6.1f GB/s, %5.1f%% of latency above it\n",
			a.EMCMHz, a.BWLine/1e9, a.AffectedShare*100)
	}
	fmt.Printf("  chosen memory clock: %d MHz (lowest clock that only clips a small share)\n", res.ChosenEMCMHz)

	fmt.Printf("\nStep 3: binary search of the GPU clock under %.0f W (%d probes)\n", budgetW, len(res.Evaluations))
	for _, e := range res.Evaluations {
		fmt.Printf("  GPU %4d MHz -> %8s at %.1f W\n",
			e.Profile.Clocks.GPUMHz, e.Latency.Round(1000), e.PowerW)
	}
	fmt.Printf("  chosen GPU clock: %d MHz\n", res.ChosenGPUMHz)

	// Step 4: compare against the stock nvpmodel profiles (Table 7).
	fmt.Println("\nStep 4: comparison with stock power profiles")
	fmt.Printf("%-16s %6s %6s %12s %8s\n", "profile", "GPU", "EMC", "latency", "power")
	for _, p := range proof.StockPowerProfiles() {
		w, err := proof.EvaluatePowerProfile(ctx, platform, workload, batch, proof.Float16, p, sess)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-16s %6d %6d %12s %7.1fW\n",
			p.Name, p.Clocks.GPUMHz, p.Clocks.EMCMHz, w.Latency.Round(1000), w.PowerW)
	}
	fmt.Printf("%-16s %6d %6d %12s %7.1fW   <- ours\n",
		"optimal (ours)", res.ChosenGPUMHz, res.ChosenEMCMHz,
		res.Optimal.Latency.Round(1000), res.Optimal.PowerW)
	fmt.Println("\nThe tuned profile is the fastest configuration within the power budget,")
	fmt.Println("beating the stock profiles (whose \"15W\" mode power-gates part of the GPU).")
}
