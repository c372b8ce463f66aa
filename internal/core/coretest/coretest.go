// Package coretest holds helpers for tests of code that hands out
// core.Report values.
package coretest

import (
	"proof/internal/core"
	"proof/internal/roofline"
)

// WriteEverySlice writes every slice a report holds, as a caller that
// owns the report may: it overwrites each entry of the extra roofline
// ceilings and of every layer's original nodes, op types and kernels,
// renames each layer, and appends to every list. A report that changes
// when another one is written this way shares memory with it.
func WriteEverySlice(r *core.Report) {
	for i := range r.Roofline.ExtraBWLines {
		r.Roofline.ExtraBWLines[i].Label = "corrupted"
	}
	r.Roofline.ExtraBWLines = append(r.Roofline.ExtraBWLines, roofline.BWLine{Label: "junk"})
	for i := range r.Layers {
		l := &r.Layers[i]
		l.Name = "corrupted"
		for j := range l.OriginalNodes {
			l.OriginalNodes[j] = "corrupted"
		}
		for j := range l.OpTypes {
			l.OpTypes[j] = "corrupted"
		}
		for j := range l.Kernels {
			l.Kernels[j] = core.KernelReport{Name: "corrupted", Latency: -1}
		}
		l.OriginalNodes = append(l.OriginalNodes, "junk")
		l.OpTypes = append(l.OpTypes, "junk")
		l.Kernels = append(l.Kernels, core.KernelReport{Name: "junk"})
	}
}
