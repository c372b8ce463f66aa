package core

import (
	"fmt"
	"strconv"

	"proof/internal/jsonwrite"
)

// AppendJSON appends the report's JSON encoding to b: exactly the bytes
// json.Marshal(r) writes, in one pass, with no reflection and no
// re-compaction of the points, so appending into a buffer with room
// for the report allocates nothing. It follows the struct tags: the
// same field order, omitempty where a tag has it (a -0.0 power_w is
// empty, as encoding/json's zero test has it), and a nil layers slice
// as null but an empty one as [].
//
// It fails exactly where encoding/json fails: on a non-finite
// throughput, util_compute, util_mem, power_w, params_m, roofline
// ceiling or bandwidth line, or a point's non-finite flops, bandwidth
// or share. A non-finite point ai encodes as null (roofline.Point). On
// failure it returns b unchanged.
//
// Report has no MarshalJSON on purpose: encoding/json re-compacts the
// output of every Marshaler, which would make json.Marshal(report)
// twice as slow as its reflective form. The reflective form is the
// reference this encoder is tested against.
func (r *Report) AppendJSON(b []byte) ([]byte, error) {
	if !jsonwrite.Finite(r.Throughput) || !jsonwrite.Finite(r.UtilCompute) || !jsonwrite.Finite(r.UtilMem) ||
		!jsonwrite.Finite(r.PowerW) || !jsonwrite.Finite(r.ParamsM) {
		return b, fmt.Errorf("core: report %s/%s: non-finite throughput %v, util_compute %v, util_mem %v, power_w %v or params_m %v",
			r.Model, r.Platform, r.Throughput, r.UtilCompute, r.UtilMem, r.PowerW, r.ParamsM)
	}
	n := len(b)
	b = append(b, `{"model":`...)
	b = jsonwrite.String(b, r.Model)
	b = append(b, `,"platform":`...)
	b = jsonwrite.String(b, r.Platform)
	b = append(b, `,"backend":`...)
	b = jsonwrite.String(b, r.Backend)
	b = append(b, `,"batch":`...)
	b = strconv.AppendInt(b, int64(r.Batch), 10)
	b = append(b, `,"dtype":`...)
	b = jsonwrite.String(b, r.DType)
	b = append(b, `,"mode":`...)
	b = jsonwrite.String(b, string(r.Mode))
	b = append(b, `,"roofline":`...)
	b, err := r.Roofline.AppendJSON(b)
	if err != nil {
		return b[:n], err
	}
	b = append(b, `,"end_to_end":`...)
	if b, err = r.EndToEnd.AppendJSON(b); err != nil {
		return b[:n], err
	}
	b = append(b, `,"layers":`...)
	if r.Layers == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range r.Layers {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = r.Layers[i].appendJSON(b); err != nil {
				return b[:n], err
			}
		}
		b = append(b, ']')
	}
	b = append(b, `,"total_latency_ns":`...)
	b = strconv.AppendInt(b, int64(r.TotalLatency), 10)
	b = append(b, `,"throughput":`...)
	b = jsonwrite.Float(b, r.Throughput)
	if r.ProfilingOverhead != 0 {
		b = append(b, `,"profiling_overhead_ns":`...)
		b = strconv.AppendInt(b, int64(r.ProfilingOverhead), 10)
	}
	b = append(b, `,"util_compute":`...)
	b = jsonwrite.Float(b, r.UtilCompute)
	b = append(b, `,"util_mem":`...)
	b = jsonwrite.Float(b, r.UtilMem)
	if r.PowerW != 0 {
		b = append(b, `,"power_w":`...)
		b = jsonwrite.Float(b, r.PowerW)
	}
	b = append(b, `,"node_count":`...)
	b = strconv.AppendInt(b, int64(r.NodeCount), 10)
	b = append(b, `,"params_m":`...)
	b = jsonwrite.Float(b, r.ParamsM)
	return append(b, '}'), nil
}

// appendJSON appends the layer as encoding/json writes the struct. It
// fails only on its point, leaving a partial layer for AppendJSON to
// cut off.
func (l *LayerReport) appendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"name":`...)
	b = jsonwrite.String(b, l.Name)
	if l.IsReformat {
		b = append(b, `,"is_reformat":true`...)
	}
	if len(l.OriginalNodes) > 0 {
		b = append(b, `,"original_nodes":`...)
		b = appendStrings(b, l.OriginalNodes)
	}
	if len(l.OpTypes) > 0 {
		b = append(b, `,"op_types":`...)
		b = appendStrings(b, l.OpTypes)
	}
	b = append(b, `,"category":`...)
	b = jsonwrite.String(b, l.Category)
	b = append(b, `,"point":`...)
	b, err := l.Point.AppendJSON(b)
	if err != nil {
		return b, err
	}
	if l.ExecutionBound != "" {
		b = append(b, `,"execution_bound":`...)
		b = jsonwrite.String(b, l.ExecutionBound)
	}
	if len(l.Kernels) > 0 {
		b = append(b, `,"kernels":[`...)
		for i, k := range l.Kernels {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"name":`...)
			b = jsonwrite.String(b, k.Name)
			b = append(b, `,"latency_ns":`...)
			b = strconv.AppendInt(b, int64(k.Latency), 10)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

// appendStrings appends ss as a JSON array of strings.
func appendStrings(b []byte, ss []string) []byte {
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = jsonwrite.String(b, s)
	}
	return append(b, ']')
}
