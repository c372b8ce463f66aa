package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"proof/internal/roofline"
)

// A session stores each report in the binary form AppendBinary writes:
// one pointer-free string, which the garbage collector never scans,
// where a *Report holds hundreds of pointers per layer. DecodeReport
// turns it back into a report whose strings alias the stored string.
//
// The form follows Report's fields in JSON order. Integers and
// durations are varints, floats their IEEE bits (8 bytes, little
// endian), and a slice is its length plus one, or 0 for nil, followed
// by its elements. A header gives the number of name strings (every
// layer's original nodes and op types) and kernels, so a decode makes
// one array for each.
//
// Every string is a uvarint v followed by any bytes: v == 0 repeats the
// string's reference (a layer's name for the strings of that layer, or
// the report's model for the end-to-end point's name), 1 <= v <=
// len(binaryStrings) names a common string, and a larger v is a literal
// of v-1-len(binaryStrings) bytes.

// binaryStrings are the strings pipeline reports repeat most: bounds,
// categories, data types, modes and operator types. Each is coded in
// one byte.
var binaryStrings = [...]string{
	"memory", "compute", "ridge", "overhead",
	"copy", "conv", "pwconv", "dwconv", "matmul", "transpose", "elementwise", "gemm", "norm", "softmax",
	"reduction", "datamove", "embedding", "memcopy", "meta",
	"fp32", "fp16", "int8", "predicted", "measured",
	"Constant", "Add", "Reshape", "Conv", "MatMul", "Mul", "Transpose", "Sigmoid", "Slice",
	"LayerNormalization", "Concat", "Relu", "Div", "Erf", "Softmax", "GlobalAveragePool", "Split", "Clip",
	"GroupNormalization", "Gemm", "Gather", "Shape", "Flatten", "MaxPool", "ReduceMean", "Expand", "Cast", "Resize",
}

// binaryCodes maps each of binaryStrings to its v.
var binaryCodes = func() map[string]uint64 {
	m := make(map[string]uint64, len(binaryStrings))
	for i, s := range binaryStrings {
		m[s] = uint64(i + 1)
	}
	return m
}()

// AppendBinary appends the report's binary encoding to b (see above).
// Every report encodes, non-finite floats included, and DecodeReport
// gives back a report deep-equal to it, nil and empty slices apart and
// floats bit for bit.
func (r *Report) AppendBinary(b []byte) []byte {
	var nNames, nKernels int
	for i := range r.Layers {
		l := &r.Layers[i]
		nNames += len(l.OriginalNodes) + len(l.OpTypes)
		nKernels += len(l.Kernels)
	}
	b = binary.AppendUvarint(b, uint64(nNames))
	b = binary.AppendUvarint(b, uint64(nKernels))
	b = appendBinaryString(b, r.Model, "")
	b = appendBinaryString(b, r.Platform, "")
	b = appendBinaryString(b, r.Backend, "")
	b = binary.AppendVarint(b, int64(r.Batch))
	b = appendBinaryCoded(b, r.DType, "")
	b = appendBinaryCoded(b, string(r.Mode), "")
	m := &r.Roofline
	b = appendBinaryString(b, m.Platform, r.Platform)
	b = appendBinaryCoded(b, m.DType, r.DType)
	b = appendBinaryFloat(b, m.PeakFLOPS)
	b = appendBinaryFloat(b, m.PeakBW)
	b = appendBinaryFloat(b, m.TheoreticalFLOPS)
	b = appendBinaryFloat(b, m.TheoreticalBW)
	b = appendBinaryLen(b, m.ExtraBWLines == nil, len(m.ExtraBWLines))
	for _, l := range m.ExtraBWLines {
		b = appendBinaryString(b, l.Label, "")
		b = appendBinaryFloat(b, l.BW)
	}
	b = appendBinaryPoint(b, &r.EndToEnd, r.Model)
	b = appendBinaryLen(b, r.Layers == nil, len(r.Layers))
	for i := range r.Layers {
		l := &r.Layers[i]
		b = appendBinaryString(b, l.Name, "")
		if l.IsReformat {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = appendBinaryLen(b, l.OriginalNodes == nil, len(l.OriginalNodes))
		for _, n := range l.OriginalNodes {
			b = appendBinaryString(b, n, l.Name)
		}
		b = appendBinaryLen(b, l.OpTypes == nil, len(l.OpTypes))
		for _, op := range l.OpTypes {
			b = appendBinaryCoded(b, op, l.Name)
		}
		b = appendBinaryCoded(b, l.Category, l.Name)
		b = appendBinaryPoint(b, &l.Point, l.Name)
		b = appendBinaryCoded(b, l.ExecutionBound, l.Name)
		b = appendBinaryLen(b, l.Kernels == nil, len(l.Kernels))
		for _, k := range l.Kernels {
			b = appendBinaryString(b, k.Name, l.Name)
			b = binary.AppendVarint(b, int64(k.Latency))
		}
	}
	b = binary.AppendVarint(b, int64(r.TotalLatency))
	b = appendBinaryFloat(b, r.Throughput)
	b = binary.AppendVarint(b, int64(r.ProfilingOverhead))
	b = appendBinaryFloat(b, r.UtilCompute)
	b = appendBinaryFloat(b, r.UtilMem)
	b = appendBinaryFloat(b, r.PowerW)
	b = binary.AppendVarint(b, int64(r.NodeCount))
	return appendBinaryFloat(b, r.ParamsM)
}

func appendBinaryPoint(b []byte, p *roofline.Point, ref string) []byte {
	b = appendBinaryString(b, p.Name, ref)
	b = appendBinaryFloat(b, p.AI)
	b = appendBinaryFloat(b, p.FLOPS)
	b = appendBinaryFloat(b, p.Bandwidth)
	b = binary.AppendVarint(b, int64(p.Latency))
	b = appendBinaryFloat(b, p.Share)
	b = binary.AppendVarint(b, p.FLOP)
	b = binary.AppendVarint(b, p.Bytes)
	b = appendBinaryCoded(b, p.Category, ref)
	return appendBinaryCoded(b, p.Bound, ref)
}

// appendBinaryString appends s as its reference or as a literal.
func appendBinaryString(b []byte, s, ref string) []byte {
	if s == ref {
		return append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(s))+1+uint64(len(binaryStrings)))
	return append(b, s...)
}

// appendBinaryCoded appends s as its reference, its code or a literal.
// It serves the fields that hold binaryStrings; names and the other
// strings skip the lookup, since the decoder reads any string in any
// of the three forms.
func appendBinaryCoded(b []byte, s, ref string) []byte {
	if v, ok := binaryCodes[s]; ok && s != ref {
		return binary.AppendUvarint(b, v)
	}
	return appendBinaryString(b, s, ref)
}

func appendBinaryLen(b []byte, isNil bool, n int) []byte {
	if isNil {
		return append(b, 0)
	}
	return binary.AppendUvarint(b, uint64(n)+1)
}

func appendBinaryFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// DecodeReport decodes a report AppendBinary encoded. The report is
// the caller's: its strings alias s, which strings never let anyone
// write, and it shares no slice with any other report. Decoding
// allocates the report, its layers, one array for every layer's names
// and one for every kernel (and the extra bandwidth lines, which
// pipeline reports leave nil), whatever the layer count. Input that
// does not decode as one whole report, with no bytes left over, is an
// error; no input makes it panic.
func DecodeReport(s string) (*Report, error) {
	d := binReader{s: s}
	// Each name takes at least one byte, and each kernel two.
	nNames := d.bound(d.uvarint(), 1)
	nKernels := d.bound(d.uvarint(), 2)
	if d.err != nil {
		return nil, d.err
	}
	names := make([]string, nNames)
	kernels := make([]KernelReport, nKernels)
	r := &Report{}
	r.Model = d.str("")
	r.Platform = d.str("")
	r.Backend = d.str("")
	r.Batch = int(d.varint())
	r.DType = d.str("")
	r.Mode = Mode(d.str(""))
	m := &r.Roofline
	m.Platform = d.str(r.Platform)
	m.DType = d.str(r.DType)
	m.PeakFLOPS = d.float()
	m.PeakBW = d.float()
	m.TheoreticalFLOPS = d.float()
	m.TheoreticalBW = d.float()
	// A line takes at least its label's byte and its bandwidth.
	if n := d.count(9); n >= 0 {
		m.ExtraBWLines = make([]roofline.BWLine, n)
		for i := range m.ExtraBWLines {
			m.ExtraBWLines[i] = roofline.BWLine{Label: d.str(""), BW: d.float()}
		}
	}
	d.point(&r.EndToEnd, r.Model)
	// A layer takes at least its point's four floats.
	if n := d.count(32); n >= 0 {
		r.Layers = make([]LayerReport, n)
		for i := range r.Layers {
			l := &r.Layers[i]
			l.Name = d.str("")
			switch d.byte() {
			case 0:
			case 1:
				l.IsReformat = true
			default:
				d.fail("a reformat flag other than 0 or 1")
			}
			l.OriginalNodes = d.strings(&names, l.Name)
			l.OpTypes = d.strings(&names, l.Name)
			l.Category = d.str(l.Name)
			d.point(&l.Point, l.Name)
			l.ExecutionBound = d.str(l.Name)
			l.Kernels = d.kernels(&kernels, l.Name)
		}
	}
	r.TotalLatency = time.Duration(d.varint())
	r.Throughput = d.float()
	r.ProfilingOverhead = time.Duration(d.varint())
	r.UtilCompute = d.float()
	r.UtilMem = d.float()
	r.PowerW = d.float()
	r.NodeCount = int(d.varint())
	r.ParamsM = d.float()
	switch {
	case d.err != nil:
	case len(names) != 0 || len(kernels) != 0:
		d.fail("fewer names or kernels than the header counts")
	case d.off != len(s):
		d.fail("trailing bytes")
	}
	if d.err != nil {
		return nil, d.err
	}
	return r, nil
}

// binReader reads a binary report from the string it aliases. Its
// first failure sticks: it moves to the end of the input, so every
// later read fails too and returns zero values.
type binReader struct {
	s   string
	off int
	err error
}

func (d *binReader) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("core: binary report: %s at byte %d", what, d.off)
	}
	d.off = len(d.s)
}

func (d *binReader) byte() byte {
	if d.off >= len(d.s) {
		d.fail("truncated input")
		return 0
	}
	c := d.s[d.off]
	d.off++
	return c
}

// uvarint reads a uvarint. Most lengths and codes take one byte, which
// it reads before falling back to the general loop.
func (d *binReader) uvarint() uint64 {
	if off := d.off; off < len(d.s) && d.s[off] < 0x80 {
		d.off = off + 1
		return uint64(d.s[off])
	}
	return d.uvarintLong()
}

func (d *binReader) uvarintLong() uint64 {
	var x uint64
	for i, shift := d.off, uint(0); i < len(d.s) && shift < 64; i, shift = i+1, shift+7 {
		c := d.s[i]
		if c < 0x80 {
			if shift == 63 && c > 1 {
				break
			}
			d.off = i + 1
			return x | uint64(c)<<shift
		}
		x |= uint64(c&0x7f) << shift
	}
	d.fail("a truncated varint, or one over 64 bits")
	return 0
}

func (d *binReader) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (d *binReader) float() float64 {
	if len(d.s)-d.off < 8 {
		d.fail("truncated float")
		return 0
	}
	s := d.s[d.off : d.off+8]
	d.off += 8
	return math.Float64frombits(uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56)
}

// bound returns n as a length, or fails when n elements of at least
// size bytes each cannot fit in the rest of the input: no input makes
// a decode allocate more than a small multiple of its own size.
func (d *binReader) bound(n uint64, size int) int {
	// n*size cannot overflow once n is at most the input's length.
	if rest := len(d.s) - d.off; n > uint64(rest) || int(n)*size > rest {
		d.fail("a length longer than the input")
		return 0
	}
	return int(n)
}

// count reads a slice length whose elements take at least size bytes
// each: -1 for a nil slice.
func (d *binReader) count(size int) int {
	v := d.uvarint()
	if v == 0 {
		return -1
	}
	n := d.bound(v-1, size)
	if d.err != nil {
		return -1
	}
	return n
}

func (d *binReader) str(ref string) string {
	var v uint64
	if off := d.off; off < len(d.s) && d.s[off] < 0x80 {
		// A one-byte v, read here rather than through uvarint: strings
		// are most of a report, and the call cost ~8% of a decode.
		v, d.off = uint64(d.s[off]), off+1
	} else {
		v = d.uvarintLong()
	}
	switch {
	case v == 0:
		return ref
	case v <= uint64(len(binaryStrings)):
		return binaryStrings[v-1]
	}
	n := v - 1 - uint64(len(binaryStrings))
	if n > uint64(len(d.s)-d.off) {
		d.fail("a string longer than the input")
		return ""
	}
	s := d.s[d.off : d.off+int(n)]
	d.off += int(n)
	return s
}

// strings reads a list of strings into the front of *names, which it
// then advances past them.
func (d *binReader) strings(names *[]string, ref string) []string {
	n := d.count(1)
	if n < 0 {
		return nil
	}
	if n > len(*names) {
		d.fail("more names than the header counts")
		return nil
	}
	ss := (*names)[:n:n]
	*names = (*names)[n:]
	for i := range ss {
		ss[i] = d.str(ref)
	}
	return ss
}

// kernels reads a layer's kernels into the front of *kernels, which it
// then advances past them.
func (d *binReader) kernels(kernels *[]KernelReport, ref string) []KernelReport {
	n := d.count(2)
	if n < 0 {
		return nil
	}
	if n > len(*kernels) {
		d.fail("more kernels than the header counts")
		return nil
	}
	ks := (*kernels)[:n:n]
	*kernels = (*kernels)[n:]
	for i := range ks {
		ks[i] = KernelReport{Name: d.str(ref), Latency: time.Duration(d.varint())}
	}
	return ks
}

func (d *binReader) point(p *roofline.Point, ref string) {
	p.Name = d.str(ref)
	p.AI = d.float()
	p.FLOPS = d.float()
	p.Bandwidth = d.float()
	p.Latency = time.Duration(d.varint())
	p.Share = d.float()
	p.FLOP = d.varint()
	p.Bytes = d.varint()
	p.Category = d.str(ref)
	p.Bound = d.str(ref)
}
