// Command experiments regenerates every table and figure of the paper's
// evaluation section on the simulated substrate.
//
//	experiments -run all
//	experiments -run table4
//	experiments -run figure6 -outdir charts/
//
// Figures are printed as text summaries; with -outdir, SVG charts are
// also written.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"

	"proof/internal/core"
	"proof/internal/dataviewer"
	"proof/internal/experiments"
)

func main() {
	var (
		run        = flag.String("run", "all", "experiment: table2|table3|table4|table4layers|table5|table6|table7|figure4|figure5|figure6|figure8|all")
		outdir     = flag.String("outdir", "", "directory for SVG chart output (optional)")
		batch      = flag.Int("batch", 0, "override the evaluation batch size where applicable (0 = paper values)")
		cacheStats = flag.Bool("cache-stats", false, "print the shared profiling session's cache counters on exit")
	)
	flag.Parse()

	// Ctrl-C cancels ctx, which every experiment receives: the running
	// experiment stops at its next stage boundary and the command exits
	// with the cancellation error instead of dying mid-chart.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *cacheStats {
		defer func() {
			st := experiments.SessionStats()
			fmt.Fprintf(os.Stderr, "session cache: %d hits, %d misses, %d dedups, %d evictions, %d cached\n",
				st.Hits, st.Misses, st.Dedups, st.Evictions, st.Size)
		}()
	}

	if *outdir != "" {
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			fatal(err)
		}
	}

	want := map[string]bool{}
	for _, k := range strings.Split(*run, ",") {
		want[strings.TrimSpace(k)] = true
	}
	all := want["all"]
	ran := 0

	if all || want["table2"] {
		fmt.Println(experiments.FormatTable2(experiments.Table2()))
		ran++
	}
	if all || want["table3"] {
		rows, err := experiments.Table3()
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.FormatTable3(rows))
		ran++
	}
	if all || want["table4"] {
		b := *batch
		if b == 0 {
			b = 128
		}
		rows, err := experiments.Table4WithBatchCtx(ctx, b)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.FormatTable4(rows))
		ran++
	}
	if all || want["table4layers"] {
		b := *batch
		if b == 0 {
			b = 128
		}
		rows, err := experiments.PerLayerTable4Ctx(ctx, b)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.FormatPerLayerTable4(rows))
		ran++
	}
	if all || want["figure4"] {
		series, err := experiments.Figure4AllCtx(ctx)
		if err != nil {
			fatal(err)
		}
		for _, s := range series {
			fmt.Println(experiments.FormatFigure4(s))
			writeSVG(*outdir, "figure4_"+s.Platform+".svg",
				dataviewer.MultiModelRooflineSVG(s.Model, s.Points,
					fmt.Sprintf("Figure 4: end-to-end roofline on %s", s.Platform)))
		}
		ran++
	}
	if all || want["figure5"] {
		b := *batch
		if b == 0 {
			b = 128
		}
		reports, err := experiments.Figure5(ctx, b)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.FormatFigure5(reports))
		writeFigure5(*outdir, reports)
		ran++
	}
	if all || want["table5"] {
		rows, err := experiments.Table5(ctx, nil)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.FormatTable5(rows))
		ran++
	}
	if all || want["figure6"] {
		b := *batch
		if b == 0 {
			b = 2048
		}
		f, err := experiments.Figure6(ctx, b)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.FormatFigure6(f))
		writeSVG(*outdir, "figure6_original.svg",
			dataviewer.RooflineSVG(f.Original.Roofline, experiments.Figure6Points(f.Original),
				dataviewer.ChartOptions{Title: "Figure 6(a): original ShuffleNetV2 x1.0"}))
		writeSVG(*outdir, "figure6_modified.svg",
			dataviewer.RooflineSVG(f.Modified.Roofline, experiments.Figure6Points(f.Modified),
				dataviewer.ChartOptions{Title: "Figure 6(b): modified ShuffleNetV2 x1.0"}))
		writeSVG(*outdir, "figure6_original_hist_ai.svg",
			dataviewer.LatencyHistogramSVG(experiments.Figure6Points(f.Original), "ai",
				"Figure 6(a): latency vs arithmetic intensity", 0, 0))
		writeSVG(*outdir, "figure6_modified_hist_ai.svg",
			dataviewer.LatencyHistogramSVG(experiments.Figure6Points(f.Modified), "ai",
				"Figure 6(b): latency vs arithmetic intensity", 0, 0))
		ran++
	}
	if all || want["table6"] {
		rows, err := experiments.Table6Ctx(ctx)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.FormatTable6(rows))
		ran++
	}
	if all || want["table7"] {
		b := *batch
		if b == 0 {
			b = 128
		}
		rows, tune, err := experiments.Table7(ctx, b)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.FormatTable7(rows))
		fmt.Printf("tuning chose GPU %d MHz / EMC %d MHz in %d probes\n\n",
			tune.ChosenGPUMHz, tune.ChosenEMCMHz, len(tune.Evaluations))
		ran++
	}
	if all || want["figure8"] {
		b := *batch
		if b == 0 {
			b = 128
		}
		f, err := experiments.Figure8(ctx, b)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.FormatFigure8(f))
		writeSVG(*outdir, "figure8.svg",
			dataviewer.RooflineSVG(f.Report.Roofline, experiments.Figure6Points(f.Report),
				dataviewer.ChartOptions{
					Title:        "Figure 8: EfficientNetV2-T layer-wise roofline (Orin NX)",
					ExtraBWLines: f.BWLines,
				}))
		ran++
	}

	if ran == 0 {
		fmt.Fprintf(os.Stderr, "experiments: nothing selected by -run=%s\n", *run)
		os.Exit(2)
	}
	writeGallery(*outdir)
}

// writeFigure5 writes one layer-wise roofline chart per Figure 5
// model, in experiments.Figure5Models order, as FormatFigure5 lists
// them.
func writeFigure5(dir string, reports map[string]*core.Report) {
	for _, m := range experiments.Figure5Models {
		r := reports[m.Key]
		if r == nil {
			continue
		}
		writeSVG(dir, "figure5_"+m.Key+".svg",
			dataviewer.RooflineSVG(r.Roofline, experiments.Figure6Points(r),
				dataviewer.ChartOptions{Title: "Figure 5: " + m.Key + " layer-wise roofline (A100)"}))
	}
}

// writtenCharts accumulates chart files for the gallery index.
var writtenCharts []string

func writeSVG(dir, name, svg string) {
	if dir == "" {
		return
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
		fatal(err)
	}
	writtenCharts = append(writtenCharts, name)
	fmt.Printf("wrote %s\n", path)
}

// writeGallery emits an index.html embedding every chart written this
// run.
func writeGallery(dir string) {
	if dir == "" || len(writtenCharts) == 0 {
		return
	}
	var sb strings.Builder
	sb.WriteString(`<!DOCTYPE html><html><head><meta charset="utf-8">
<title>PRoof — reproduced figures</title>
<style>body{font-family:sans-serif;margin:24px}figure{margin:24px 0}img{border:1px solid #ddd}</style>
</head><body><h1>PRoof — reproduced figures</h1>
<p>Generated by <code>cmd/experiments</code>; see EXPERIMENTS.md for the paper-vs-measured record.</p>
`)
	for _, name := range writtenCharts {
		fmt.Fprintf(&sb, "<figure><img src=%q alt=%q><figcaption>%s</figcaption></figure>\n",
			name, name, name)
	}
	sb.WriteString("</body></html>\n")
	path := filepath.Join(dir, "index.html")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
