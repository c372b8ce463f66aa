// Package advisor turns a profiling report into optimization guidance —
// automating the kinds of insight the paper derives manually in
// §4.3-§4.6: memory-bound models that need bandwidth rather than FLOP/s,
// depth-wise convolutions stuck on the vector pipeline, data-movement
// layers (shuffles/transposes) dominating latency, under-utilized batch
// sizes, and headroom under the roofline.
package advisor

import (
	"fmt"
	"sort"

	"proof/internal/core"
)

// Severity grades a finding.
type Severity string

// Severities.
const (
	SeverityInfo    Severity = "info"
	SeverityAdvice  Severity = "advice"
	SeverityWarning Severity = "warning"
)

// Finding is one piece of guidance.
type Finding struct {
	// Severity grades the finding.
	Severity Severity `json:"severity"`
	// Rule identifies the check that fired.
	Rule string `json:"rule"`
	// Summary is the one-line statement.
	Summary string `json:"summary"`
	// Detail explains the evidence and the suggested action.
	Detail string `json:"detail"`
	// Layers names the implicated backend layers (when applicable).
	Layers []string `json:"layers,omitempty"`
}

// Analyze inspects a report and returns findings ordered by severity.
func Analyze(r *core.Report) []Finding {
	var out []Finding
	out = append(out, checkModelBound(r)...)
	out = append(out, checkDataMovement(r)...)
	out = append(out, checkDepthwise(r)...)
	out = append(out, checkOverheadBound(r)...)
	out = append(out, checkEfficiencyHeadroom(r)...)
	sort.SliceStable(out, func(i, j int) bool {
		return severityRank(out[i].Severity) > severityRank(out[j].Severity)
	})
	return out
}

func severityRank(s Severity) int {
	switch s {
	case SeverityWarning:
		return 2
	case SeverityAdvice:
		return 1
	}
	return 0
}

// checkModelBound reproduces the §4.3 end-to-end reading: which side of
// the ridge the model sits on and what that implies for hardware
// selection.
func checkModelBound(r *core.Report) []Finding {
	p := r.EndToEnd
	ridge := r.Roofline.RidgeAI()
	switch p.Bound {
	case "memory":
		return []Finding{{
			Severity: SeverityAdvice,
			Rule:     "model-memory-bound",
			Summary: fmt.Sprintf("model is memory-bound (AI %.1f < ridge %.1f): bandwidth, not FLOP/s, limits it",
				p.AI, ridge),
			Detail: "Higher peak-FLOP/s hardware will not help; prefer platforms with more " +
				"bandwidth, larger batches, lower-precision activations, or model changes " +
				"that raise arithmetic intensity (e.g. trading extra FLOP for less data " +
				"movement, as in the paper's ShuffleNetV2 modification).",
		}}
	case "compute":
		return []Finding{{
			Severity: SeverityInfo,
			Rule:     "model-compute-bound",
			Summary:  fmt.Sprintf("model is compute-bound (AI %.1f > ridge %.1f)", p.AI, ridge),
			Detail: "The math units limit throughput: lower-precision data types or platforms " +
				"with more matrix-unit FLOP/s raise performance; extra bandwidth will not.",
		}}
	}
	return nil
}

// checkDataMovement flags the §4.5 pattern: zero-FLOP data-movement
// layers holding a large share of the latency.
func checkDataMovement(r *core.Report) []Finding {
	var share float64
	var names []string
	for _, l := range r.Layers {
		switch l.Category {
		case "transpose", "copy", "datamove":
			share += l.Point.Share
			if l.Point.Share > 0.01 && len(names) < 8 {
				names = append(names, l.Name)
			}
		}
	}
	if share < 0.25 {
		return nil
	}
	return []Finding{{
		Severity: SeverityWarning,
		Rule:     "data-movement-dominates",
		Summary:  fmt.Sprintf("transpose/copy layers take %.0f%% of latency while computing nothing", share*100),
		Detail: "These layers come from layout shuffles (e.g. channel shuffle, window " +
			"partitioning) in the model design. Consider redesigning the blocks to avoid " +
			"them — the paper removes ShuffleNetV2's shuffle and doubles the point-wise " +
			"convolution channels for a 1.6x speedup despite more FLOP.",
		Layers: names,
	}}
}

// checkDepthwise flags the §4.4 pattern: depth-wise convolutions that
// cannot use the matrix units.
func checkDepthwise(r *core.Report) []Finding {
	var share float64
	var names []string
	for _, l := range r.Layers {
		if l.Category == "dwconv" {
			share += l.Point.Share
			if l.Point.Share > 0.01 && len(names) < 8 {
				names = append(names, l.Name)
			}
		}
	}
	if share < 0.20 {
		return nil
	}
	return []Finding{{
		Severity: SeverityAdvice,
		Rule:     "depthwise-conv-heavy",
		Summary:  fmt.Sprintf("depth-wise convolutions take %.0f%% of latency at vector-pipeline rates", share*100),
		Detail: "Depth-wise convolutions cannot use tensor cores, so their attainable " +
			"FLOP/s is an order of magnitude below the platform peak. EfficientNetV2's " +
			"Fused-MBConv replaces depth-wise+point-wise pairs with ordinary convolutions " +
			"and reaches much higher hardware efficiency (§4.4).",
		Layers: names,
	}}
}

// checkOverheadBound flags models whose layers are too small for the
// platform (launch overhead dominates) — raise the batch size.
func checkOverheadBound(r *core.Report) []Finding {
	overheadish := 0
	for _, l := range r.Layers {
		if l.ExecutionBound == "overhead" {
			overheadish++
		}
	}
	if len(r.Layers) == 0 || float64(overheadish)/float64(len(r.Layers)) < 0.5 {
		return nil
	}
	return []Finding{{
		Severity: SeverityAdvice,
		Rule:     "launch-overhead-bound",
		Summary:  fmt.Sprintf("%d of %d layers are dominated by launch overhead", overheadish, len(r.Layers)),
		Detail: "Per-layer work is too small for this platform at the profiled batch size. " +
			"Raise the batch size (see the OptimalBatchCtx sweep) or deploy on a smaller device.",
	}}
}

// checkEfficiencyHeadroom reports the distance between attained FLOP/s
// and the roofline ceiling at the model's arithmetic intensity.
func checkEfficiencyHeadroom(r *core.Report) []Finding {
	eff := r.Roofline.Efficiency(r.EndToEnd)
	if eff <= 0 {
		return nil
	}
	switch {
	case eff < 0.35:
		return []Finding{{
			Severity: SeverityWarning,
			Rule:     "large-roofline-headroom",
			Summary:  fmt.Sprintf("model attains only %.0f%% of its roofline ceiling", eff*100),
			Detail: "Large gap between attained FLOP/s and the ceiling at this arithmetic " +
				"intensity: look at the layer-wise chart for low-efficiency layer classes " +
				"(data movement, depth-wise convolution, small launches).",
		}}
	case eff > 0.75:
		return []Finding{{
			Severity: SeverityInfo,
			Rule:     "near-roofline",
			Summary:  fmt.Sprintf("model attains %.0f%% of its roofline ceiling", eff*100),
			Detail:   "Little headroom remains on this platform; further gains need model or precision changes.",
		}}
	}
	return nil
}

// WriteFindings renders findings as text.
func WriteFindings(w interface{ Write([]byte) (int, error) }, findings []Finding) {
	if len(findings) == 0 {
		fmt.Fprintln(w, "advisor: no findings")
		return
	}
	for _, f := range findings {
		fmt.Fprintf(w, "[%s] %s: %s\n", f.Severity, f.Rule, f.Summary)
		fmt.Fprintf(w, "        %s\n", f.Detail)
		if len(f.Layers) > 0 {
			fmt.Fprintf(w, "        layers: %v\n", f.Layers)
		}
	}
}
