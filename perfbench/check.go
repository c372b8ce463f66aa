package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"proof/internal/core"
	"proof/internal/graph"
)

// decodeGraph strictly decodes an inline graph the way proofd's
// handler does, defaults included.
func decodeGraph(raw []byte) (*graph.Graph, error) {
	g := &graph.Graph{}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(g); err != nil {
		return nil, fmt.Errorf("decoding inline graph: %w", err)
	}
	if g.Tensors == nil {
		g.Tensors = map[string]*graph.Tensor{}
	}
	if g.Name == "" {
		g.Name = "inline"
	}
	return g, nil
}

// reference profiles r in process, with no cache and no memo store,
// and returns the bytes proofd must answer: the report's JSON and a
// newline.
func reference(ctx context.Context, l *requestList, r *request) ([]byte, error) {
	var g *graph.Graph
	if r.graph >= 0 {
		var err error
		if g, err = decodeGraph(l.graphs[r.graph]); err != nil {
			return nil, err
		}
	}
	rep, err := core.ProfileCtx(ctx, r.options(g))
	if err != nil {
		return nil, fmt.Errorf("reference profile of %s on %s: %w", r.name, r.platform, err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		return nil, fmt.Errorf("encoding reference report: %w", err)
	}
	return append(data, '\n'), nil
}

// checkSamples compares each kept response with its in-process
// reference, counting every mismatch as a failed operation.
func checkSamples(ctx context.Context, l *requestList, bodies map[int32][]byte, t *tally) error {
	for key, body := range bodies {
		r := &l.keys[key]
		want, err := reference(ctx, l, r)
		if err != nil {
			return err
		}
		fail := ""
		if !bytes.Equal(body, want) {
			fail = "reference"
		}
		t.add(reply{}, fail, r)
	}
	return nil
}
