package core

import (
	"context"
	"fmt"

	"proof/internal/cache"
	"proof/internal/graph"
	"proof/internal/models"
	"proof/internal/obs"
)

// zooGraphs holds every zoo model's admitted graph. A model is built
// and verified on its first run in the process, and every later run of
// it, at any batch, data type or platform, profiles a view of the same
// graph. Admission is lazy so that a process pays only for the models
// it serves, and the cache holds the whole zoo, so nothing is evicted.
var zooGraphs = cache.New[string, *graph.Graph](len(models.List()))

// admittedGraph returns the admitted graph a run profiles: the shared
// admission of zoo model opts.Model, opts.Graph itself when it was
// admitted already (proofd admits inline graphs at its edge), or a
// fresh admission of a raw opts.Graph, which verifies it. Every
// admission the run performs itself is recorded as an "admit" span.
func admittedGraph(ctx context.Context, opts Options) (*graph.Graph, error) {
	if opts.Graph != nil {
		if opts.Graph.Admitted() {
			return opts.Graph, nil
		}
		// Admission stamps the nodes it takes, and the caller's graph may
		// be profiled by other goroutines at once: admit a copy.
		return admit(ctx, opts.Graph.Name, func() (*graph.Graph, error) { return opts.Graph.Clone(), nil })
	}
	g, _, err := zooGraphs.Do(ctx, opts.Model, func() (*graph.Graph, error) {
		info, err := lookupModel(opts.Model)
		if err != nil {
			return nil, err
		}
		return admit(ctx, opts.Model, info.Build)
	})
	return g, err
}

// admit builds a graph and admits it under an "admit" span. Static
// verification gates the rest of the pipeline: every backend and cost
// pass may assume the IR is structurally sound (references resolve,
// one producer per tensor, acyclic, shapes consistent). The typed
// *graph.ValidationError survives the wrap, so proofd can answer 400
// invalid_model instead of a 500.
func admit(ctx context.Context, name string, build func() (*graph.Graph, error)) (*graph.Graph, error) {
	_, sp := obs.Start(ctx, "admit")
	sp.SetAttr("model", name)
	raw, err := build()
	if err != nil {
		sp.EndErr(err)
		return nil, err
	}
	g, errs := graph.Admit(raw)
	if len(errs) > 0 {
		err := fmt.Errorf("core: invalid model graph: %w", errs[0])
		sp.EndErr(err)
		return nil, err
	}
	sp.SetAttrInt("nodes", int64(len(g.Nodes)))
	sp.End()
	return g, nil
}
