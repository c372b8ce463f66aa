// Shufflenet-optimization reproduces the §4.5 model-design case study:
// PRoof's layer-wise roofline analysis reveals that ShuffleNetV2's
// channel-shuffle operations (Transpose and data-copy layers at runtime)
// dominate the latency on a data-center GPU, even though the
// convolutions carry nearly all the FLOP. Trading FLOP for less memory
// movement — removing the shuffle and widening the point-wise
// convolutions (Figure 7) — yields a large real-world speedup despite
// the higher FLOP count.
//
//	go run ./examples/shufflenet-optimization
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"proof"
)

func main() {
	const platform = "a100"
	ctx := context.Background()

	// Step 1: end-to-end profiling shows the original model's low
	// hardware efficiency.
	orig, err := proof.ProfileCtx(ctx, proof.Options{Model: "shufflenetv2-1.0", Platform: platform, Batch: 2048})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Original ShuffleNetV2 x1.0 (batch 2048): %.2f TFLOP/s attained of %.0f TFLOP/s theoretical peak\n",
		orig.EndToEnd.FLOPS/1e12, orig.Roofline.TheoreticalFLOPS/1e12)

	// Step 2: layer-wise roofline analysis attributes the time. The
	// convolutions hold the FLOP; the transpose/copy layers from the
	// Shuffle operation hold the latency.
	shares := map[string]float64{}
	for _, l := range orig.Layers {
		shares[l.Category] += l.Point.Share
	}
	fmt.Printf("\nWhere the time goes (layer mapping -> category):\n")
	fmt.Printf("  convolutions:          %5.1f%% of latency\n",
		(shares["conv"]+shares["pwconv"]+shares["dwconv"])*100)
	fmt.Printf("  transpose (shuffle):   %5.1f%% of latency\n", shares["transpose"]*100)
	fmt.Printf("  data copies (split/concat/reformat): %5.1f%%\n",
		(shares["copy"]+shares["datamove"])*100)

	// Step 3: the modified design (Figure 7) removes the shuffle and
	// doubles the channels of the first/last point-wise convolutions.
	fmt.Printf("\nModified model (shuffle removed, pw-conv channels doubled, residual Add):\n")
	fmt.Printf("%8s %14s %14s %14s %9s\n", "batch", "orig latency", "mod latency", "mod img/s", "speedup")
	for _, batch := range []int{1, 128, 2048} {
		o, err := proof.ProfileCtx(ctx, proof.Options{Model: "shufflenetv2-1.0", Platform: platform, Batch: batch})
		if err != nil {
			log.Fatal(err)
		}
		m, err := proof.ProfileCtx(ctx, proof.Options{Model: "shufflenetv2-1.0-mod", Platform: platform, Batch: batch})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%8d %14s %14s %14.0f %8.2fx\n",
			batch, o.TotalLatency.Round(1000), m.TotalLatency.Round(1000),
			m.Throughput, float64(o.TotalLatency)/float64(m.TotalLatency))
	}

	mod, err := proof.ProfileCtx(ctx, proof.Options{Model: "shufflenetv2-1.0-mod", Platform: platform, Batch: 2048})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nThe modified model has MORE FLOP (%.1f vs %.1f GFLOP per inference at bs=2048)\n",
		float64(mod.EndToEnd.FLOP)/1e9, float64(orig.EndToEnd.FLOP)/1e9)
	fmt.Println("but trades it for less memory traffic — on a GPU with high peak FLOP/s and")
	fmt.Println("limited bandwidth, that is a win (the paper re-trains it to +1.2% accuracy).")

	// Step 4: write the Figure 6 charts.
	for name, r := range map[string]*proof.Report{"original": orig, "modified": mod} {
		pts := make([]proof.RooflinePoint, 0, len(r.Layers))
		for _, l := range r.Layers {
			pts = append(pts, l.Point)
		}
		out := fmt.Sprintf("shufflenet_%s.svg", name)
		svg := proof.RooflineSVG(r.Roofline, pts, "ShuffleNetV2 "+name+" — layer-wise roofline")
		if err := os.WriteFile(out, []byte(svg), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("chart written to %s\n", out)
	}
}
