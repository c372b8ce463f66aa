// Quickstart: profile ResNet-50 on the (simulated) NVIDIA A100 with
// TensorRT-style optimization, print the roofline analysis, and write an
// HTML report with SVG charts.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"proof"
)

func main() {
	report, err := proof.ProfileCtx(context.Background(), proof.Options{
		Model:    "resnet-50",
		Platform: "a100",
		Batch:    128,
		// Default mode is analytical prediction: only per-layer
		// latencies come from the runtime's profiler; FLOP and
		// memory are predicted from the mapped model structure.
	})
	if err != nil {
		log.Fatal(err)
	}

	// Text report: end-to-end roofline point, latency shares by
	// category, top layers.
	proof.WriteText(os.Stdout, report, 10)

	// Every backend layer is mapped back to the original model design
	// (§3.3's bidirectional mapping). Show one example.
	for _, l := range report.Layers {
		if len(l.OriginalNodes) > 1 {
			fmt.Printf("\nexample mapping: backend layer %q fuses model layers %v\n",
				l.Name, l.OriginalNodes)
			break
		}
	}

	// HTML report with the layer-wise roofline chart.
	const out = "quickstart_report.html"
	if err := os.WriteFile(out, []byte(proof.RenderHTML(report)), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nHTML report with roofline charts written to %s\n", out)
}
