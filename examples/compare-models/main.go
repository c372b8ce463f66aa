// Compare-models: end-to-end roofline comparison of several models on
// one platform (a Figure-4-style analysis). Shows which models are
// memory-bound vs compute-bound and how efficiently each uses the
// hardware.
//
//	go run ./examples/compare-models
//	go run ./examples/compare-models -platform orin-nx -models resnet-50,efficientnetv2-t
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"proof"
)

func main() {
	var (
		platform = flag.String("platform", "a100", "hardware platform")
		modelArg = flag.String("models", "resnet-50,mobilenetv2-1.0,efficientnet-b4,efficientnetv2-t,vit-b,mlp-mixer", "comma-separated model keys")
		svgOut   = flag.String("svg", "compare_models.svg", "output roofline chart (empty to skip)")
	)
	flag.Parse()

	plat, err := proof.LookupPlatform(*platform)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("End-to-end roofline on %s (%s, batch %d)\n\n",
		plat.Name, plat.DefaultDType, plat.DefaultBatch)
	fmt.Printf("%-22s %10s %12s %12s %10s %8s\n",
		"model", "latency", "AI(F/B)", "TFLOP/s", "GB/s", "bound")

	ctx := context.Background()
	var points []proof.RooflinePoint
	var model proof.RooflineModel
	for _, key := range strings.Split(*modelArg, ",") {
		key = strings.TrimSpace(key)
		r, err := proof.ProfileCtx(ctx, proof.Options{Model: key, Platform: *platform})
		if err != nil {
			log.Fatalf("%s: %v", key, err)
		}
		model = r.Roofline
		p := r.EndToEnd
		p.Name = key
		points = append(points, p)
		fmt.Printf("%-22s %10s %12.1f %12.3f %10.1f %8s\n",
			key, r.TotalLatency.Round(1000), p.AI, p.FLOPS/1e12, p.Bandwidth/1e9, p.Bound)
	}

	fmt.Printf("\nridge AI of this platform: %.1f FLOP/byte — models left of it are\n", model.RidgeAI())
	fmt.Println("bandwidth-limited no matter how fast the math units are (§4.3).")

	if *svgOut != "" {
		svg := proof.RooflineSVG(model, points, "End-to-end roofline: "+*platform)
		if err := os.WriteFile(*svgOut, []byte(svg), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("chart written to %s\n", *svgOut)
	}
}
