// Command proof is the PRoof CLI: it profiles a DNN model on a simulated
// inference runtime and hardware platform and performs roofline
// analysis, in the analytical prediction mode or the hardware-counter
// measurement mode.
//
// Usage examples:
//
//	proof -list-models
//	proof -list-platforms
//	proof -model resnet-50 -platform a100 -batch 128
//	proof -model vit-b -platform a100 -mode measured -top 25
//	proof -model efficientnetv2-t -platform orin-nx -gpu-clock 612 -emc-clock 2133
//	proof -model-file mymodel.json -platform xeon-6330 -json report.json -html report.html
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"

	"proof"
)

func main() {
	// Subcommands dispatch before the flat-flag CLI parses anything.
	if len(os.Args) > 1 && os.Args[1] == "characterize" {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		runCharacterize(ctx, os.Args[2:])
		return
	}
	var (
		model        = flag.String("model", "", "model zoo key (see -list-models)")
		modelFile    = flag.String("model-file", "", "path to a model file: .onnx protobuf or JSON (overrides -model)")
		saveModel    = flag.String("save-model", "", "export the (possibly optimized) model to this path (.onnx or .json) and exit")
		platform     = flag.String("platform", "a100", "hardware platform key (see -list-platforms)")
		backendName  = flag.String("backend", "", "override the platform's default runtime (trtsim/ovsim/ortsim)")
		batch        = flag.Int("batch", 0, "batch size (0 = platform default)")
		dtype        = flag.String("dtype", "", "inference data type: fp32, fp16, int8 (default: platform)")
		mode         = flag.String("mode", "predicted", "metrics mode: predicted or measured")
		gpuClock     = flag.Int("gpu-clock", 0, "GPU clock in MHz (DVFS platforms)")
		emcClock     = flag.Int("emc-clock", 0, "memory clock in MHz (DVFS platforms)")
		measuredRoof = flag.Bool("measured-roofline", false, "derive roofline ceilings from the peak-test pseudo model")
		topN         = flag.Int("top", 15, "layers to show in the text report")
		jsonOut      = flag.String("json", "", "write the full report as JSON to this path")
		htmlOut      = flag.String("html", "", "write an HTML report with SVG charts to this path")
		csvOut       = flag.String("csv", "", "write the per-layer results as CSV to this path")
		compareWith  = flag.String("compare", "", "also profile this model and print a side-by-side comparison")
		listModels   = flag.Bool("list-models", false, "list the model zoo and exit")
		listPlats    = flag.Bool("list-platforms", false, "list hardware platforms and exit")
		seed         = flag.Uint64("seed", 0, "jitter seed (emulates run-to-run variance)")
		optimize     = flag.Bool("optimize", false, "apply graph cleanup passes (identity elimination, constant folding, DCE) before profiling")
		traceLayers  = flag.Int("trace-layers", 0, "print the full-stack trace (model layer -> backend layer -> kernels) for the first N layers")
		traceOut     = flag.String("trace", "", "record the pipeline's own stage spans and write a Chrome trace-event JSON (Perfetto-loadable) to this path")
		advise       = flag.Bool("advise", false, "print optimization guidance derived from the roofline analysis")
		allPlatforms = flag.Bool("all-platforms", false, "profile the model on every platform and rank by throughput")
		runs         = flag.Int("runs", 1, "profiling runs for latency statistics (best-of-N)")
		cacheStats   = flag.Bool("cache-stats", false, "print the session cache counters (hits/misses/dedups) on exit")
		logLevel     = flag.String("log-level", "warn", "log level: debug, info, warn, error")
	)
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "proof: bad -log-level %q: %v\n", *logLevel, err)
		os.Exit(2)
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level})))

	// Ctrl-C cancels the profiling pipeline and any in-flight sweep
	// fan-out instead of killing the process mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// -trace records the pipeline's own stage spans; everything run
	// through ctx below lands in one Chrome trace written on exit.
	var tracer *proof.Tracer
	if *traceOut != "" {
		tracer = proof.NewTracer("proof")
		ctx = proof.WithTracer(ctx, tracer)
		defer func() {
			f, err := os.Create(*traceOut)
			if err != nil {
				fatal(err)
			}
			if err := tracer.Snapshot().WriteChrome(f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("pipeline trace written to %s (open in Perfetto or chrome://tracing)\n", *traceOut)
		}()
	}

	// All profiling in this invocation goes through one cached session:
	// a -compare or -runs invocation revisiting the same configuration
	// is served from its report store, and -cache-stats shows its
	// counters.
	sess := proof.NewSession(0)
	if *cacheStats {
		defer func() {
			st := sess.Stats()
			fmt.Fprintf(os.Stderr, "session cache: %d hits, %d misses, %d dedups, %d evictions, %d cached\n",
				st.Hits, st.Misses, st.Dedups, st.Evictions, st.Size)
		}()
	}

	if *listModels {
		fmt.Printf("%-4s %-22s %-22s %-6s\n", "#", "key", "name", "type")
		for _, info := range proof.Models() {
			id := "-"
			if info.ID > 0 {
				id = fmt.Sprintf("%d", info.ID)
			}
			fmt.Printf("%-4s %-22s %-22s %-6s\n", id, info.Key, info.Name, info.Type)
		}
		return
	}
	if *listPlats {
		fmt.Printf("%-10s %-36s %-16s %-8s %6s %6s\n", "key", "name", "scenario", "runtime", "dtype", "batch")
		for _, p := range proof.Platforms() {
			fmt.Printf("%-10s %-36s %-16s %-8s %6s %6d\n",
				p.Key, p.Name, p.Scenario, p.Runtime, p.DefaultDType, p.DefaultBatch)
		}
		return
	}
	if *model == "" && *modelFile == "" {
		fmt.Fprintln(os.Stderr, "proof: -model or -model-file is required (try -list-models)")
		os.Exit(2)
	}

	opts := proof.Options{
		Model:            *model,
		Platform:         *platform,
		Backend:          *backendName,
		Batch:            *batch,
		Mode:             proof.Mode(*mode),
		Seed:             *seed,
		MeasuredRoofline: *measuredRoof,
		Clocks:           proof.Clocks{GPUMHz: *gpuClock, EMCMHz: *emcClock},
	}
	if *dtype != "" {
		dt, err := proof.ParseDataType(*dtype)
		if err != nil {
			fatal(err)
		}
		opts.DType = dt
	}
	if *modelFile != "" {
		g, err := proof.LoadModelFile(*modelFile)
		if err != nil {
			fatal(err)
		}
		opts.Graph = g
	}
	if *optimize {
		g := opts.Graph
		if g == nil {
			var err error
			g, err = proof.BuildModel(*model)
			if err != nil {
				fatal(err)
			}
			opts.Graph = g
			opts.Model = *model
		}
		stats, err := proof.OptimizeGraph(g)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("optimized: %d identity nodes removed, %d shape-chain nodes folded, %d dead nodes removed\n\n",
			stats.IdentityRemoved, stats.ConstantsFolded, stats.DeadRemoved)
	}

	if *allPlatforms {
		if *model == "" {
			fatal(fmt.Errorf("-all-platforms requires -model"))
		}
		results, err := proof.PlatformSweepCtx(ctx, *model, proof.Mode(*mode), sess)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s across all platforms (default batch/dtype per platform):\n", *model)
		fmt.Printf("%-12s %6s %6s %12s %14s %12s %8s\n",
			"platform", "dtype", "batch", "latency", "samples/s", "TFLOP/s", "bound")
		for _, r := range results {
			if !r.Supported {
				fmt.Printf("%-12s (skipped: %s)\n", r.Platform, r.Reason)
				continue
			}
			fmt.Printf("%-12s %6s %6d %12s %14.0f %12.3f %8s\n",
				r.Platform, r.DType, r.Batch, r.Latency.Round(1000),
				r.Throughput, r.AttainedFLOPS/1e12, r.Bound)
		}
		return
	}

	if *saveModel != "" {
		g := opts.Graph
		if g == nil {
			var err error
			g, err = proof.BuildModel(*model)
			if err != nil {
				fatal(err)
			}
		}
		if err := proof.SaveModelFile(g, *saveModel); err != nil {
			fatal(err)
		}
		fmt.Printf("model written to %s\n", *saveModel)
		return
	}

	report, err := sess.ProfileCtx(ctx, opts)
	if err != nil {
		fatal(err)
	}
	if *runs > 1 {
		stats, err := proof.ProfileRunsCtx(ctx, opts, *runs, sess)
		if err != nil {
			fatal(err)
		}
		report = stats.Best
		fmt.Printf("latency over %d runs: mean %v, min %v, max %v (CV %.2f%%); reporting best run\n\n",
			stats.Runs, stats.MeanLatency.Round(1000), stats.MinLatency.Round(1000),
			stats.MaxLatency.Round(1000), stats.CV*100)
	}
	proof.WriteText(os.Stdout, report, *topN)
	if *traceLayers > 0 {
		fmt.Println()
		proof.WriteFullStackTrace(os.Stdout, report, *traceLayers)
	}
	if *advise {
		fmt.Println()
		proof.WriteFindings(os.Stdout, proof.Advise(report))
	}

	if *compareWith != "" {
		other := opts
		other.Graph = nil
		other.Model = *compareWith
		rhs, err := sess.ProfileCtx(ctx, other)
		if err != nil {
			fatal(err)
		}
		fmt.Println()
		proof.CompareReports(os.Stdout, report.Model, report, rhs.Model, rhs)
	}
	if *csvOut != "" {
		f, err := os.Create(*csvOut)
		if err != nil {
			fatal(err)
		}
		if err := proof.WriteCSV(f, report); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("\nCSV written to %s\n", *csvOut)
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(report, "", " ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("\nreport JSON written to %s\n", *jsonOut)
	}
	if *htmlOut != "" {
		if err := os.WriteFile(*htmlOut, []byte(proof.RenderHTML(report)), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("HTML report written to %s\n", *htmlOut)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "proof:", err)
	os.Exit(1)
}
