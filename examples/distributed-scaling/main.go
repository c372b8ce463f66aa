// Distributed-scaling explores the paper's stated future work (§5):
// adapting PRoof to distributed environments. It simulates data-parallel
// inference serving of a global batch across multiple A100s and shows
// how PRoof's per-device roofline analysis composes with a host-link
// transfer model into cluster-level throughput and scaling efficiency.
//
//	go run ./examples/distributed-scaling
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"proof"
)

func main() {
	var (
		model    = flag.String("model", "resnet-50", "model to serve")
		platform = flag.String("platform", "a100", "device type")
		batch    = flag.Int("global-batch", 512, "global batch size")
	)
	flag.Parse()

	fmt.Printf("Data-parallel inference of %s on %s, global batch %d\n\n", *model, *platform, *batch)
	fmt.Printf("%8s %12s %14s %14s %14s %11s\n",
		"devices", "per-device", "device lat", "transfer", "global img/s", "efficiency")

	// One session serves both passes: the per-point runs below repeat
	// the curve's device profiles and are answered from its cache.
	ctx := context.Background()
	sess := proof.NewSession(0)
	points, err := proof.DistributedScalingCurve(ctx, proof.DistributedOptions{
		Model: *model, Platform: *platform, GlobalBatch: *batch,
	}, []int{1, 2, 4, 8, 16}, sess)
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range points {
		r, err := proof.ProfileDistributed(ctx, proof.DistributedOptions{
			Model: *model, Platform: *platform, GlobalBatch: *batch, Devices: p.Devices,
		}, sess)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%8d %12d %14s %14s %14.0f %10.1f%%\n",
			p.Devices, r.PerDeviceBatch,
			r.DeviceReport.TotalLatency.Round(1000), r.TransferTime.Round(1000),
			p.Throughput, p.Efficiency*100)
	}

	fmt.Println("\nEfficiency falls with device count for a fixed global batch: each device")
	fmt.Println("runs a smaller slice (lower per-device roofline efficiency) and all slices")
	fmt.Println("share the host link. PRoof's per-device layer-wise analysis still applies")
	fmt.Println("unchanged to every worker — the adaptation the paper plans as future work.")
}
