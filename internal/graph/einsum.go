package graph

import (
	"fmt"
	"strings"
)

// einsumSpec is a parsed einsum equation (two-operand, no ellipsis).
type einsumSpec struct {
	lhs [2]string
	out string
}

// parseEinsum parses equations like "bhid,bhjd->bhij". Only the
// explicit two-operand form without ellipsis is supported — the form
// PyTorch attention exports use.
func parseEinsum(eq string) (einsumSpec, error) {
	eq = strings.ReplaceAll(eq, " ", "")
	parts := strings.Split(eq, "->")
	if len(parts) != 2 {
		return einsumSpec{}, fmt.Errorf("einsum equation %q needs an explicit output", eq)
	}
	ins := strings.Split(parts[0], ",")
	if len(ins) != 2 {
		return einsumSpec{}, fmt.Errorf("einsum equation %q: only two operands supported", eq)
	}
	if strings.Contains(eq, ".") {
		return einsumSpec{}, fmt.Errorf("einsum equation %q: ellipsis not supported", eq)
	}
	return einsumSpec{lhs: [2]string{ins[0], ins[1]}, out: parts[1]}, nil
}

// EinsumDims resolves each index letter's dimension from the operand
// shapes and checks consistency.
func EinsumDims(eq string, a, b Shape) (map[byte]int, Shape, error) {
	spec, err := parseEinsum(eq)
	if err != nil {
		return nil, nil, err
	}
	dims := map[byte]int{}
	bind := func(sub string, s Shape) error {
		if len(sub) != s.Rank() {
			return fmt.Errorf("einsum %q: subscript %q rank %d != shape %v", eq, sub, len(sub), s)
		}
		for i := 0; i < len(sub); i++ {
			l := sub[i]
			if d, ok := dims[l]; ok {
				if d != s[i] {
					return fmt.Errorf("einsum %q: index %c bound to both %d and %d", eq, l, d, s[i])
				}
				continue
			}
			dims[l] = s[i]
		}
		return nil
	}
	if err := bind(spec.lhs[0], a); err != nil {
		return nil, nil, err
	}
	if err := bind(spec.lhs[1], b); err != nil {
		return nil, nil, err
	}
	out := make(Shape, len(spec.out))
	for i := 0; i < len(spec.out); i++ {
		d, ok := dims[spec.out[i]]
		if !ok {
			return nil, nil, fmt.Errorf("einsum %q: output index %c unbound", eq, spec.out[i])
		}
		out[i] = d
	}
	return dims, out, nil
}

// EinsumMACs returns the multiply-accumulate count of the contraction:
// the product of every distinct index dimension (batch x output x
// contracted), the standard einsum cost; -1 when it overflows int64
// (see MulCount).
func EinsumMACs(eq string, a, b Shape) (int64, error) {
	dims, _, err := EinsumDims(eq, a, b)
	if err != nil {
		return 0, err
	}
	macs := int64(1)
	for _, d := range dims {
		macs = MulCount(macs, int64(d))
	}
	return macs, nil
}

func (c *inferCtx) inferEinsum(n *Node) error {
	a, err := c.in(n, 0)
	if err != nil {
		return err
	}
	b, err := c.in(n, 1)
	if err != nil {
		return err
	}
	eq := n.Attrs.String("equation", "")
	_, out, err := EinsumDims(eq, a.Shape, b.Shape)
	if err != nil {
		return err
	}
	return c.setOut(n, 0, out, a.DType)
}
