package memo_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"proof/internal/analysis"
	"proof/internal/backend"
	_ "proof/internal/backend/ortsim" // register runtimes
	_ "proof/internal/backend/ovsim"
	_ "proof/internal/backend/trtsim"
	"proof/internal/graph"
	"proof/internal/hardware"
	"proof/internal/memo"
	"proof/internal/models"
)

// TestKeysUnchangedOnViews: for every zoo model, data type and batch,
// every backend builds its layers' keys on a run's view of the admitted
// graph with the bytes it builds on a raw copy of the same run, and
// each group's ContentKey equals the map-numbered ContentKeyByMap. The
// keys seed the simulator's jitter, so a changed byte would move every
// report. The view and the copy also agree on what the slot tables
// feed besides keys: each layer's fusion group, its fused boundary
// tensors, and every node's Rep.Cost, which must equal NodeCost
// resolved by name on an unadmitted copy.
func TestKeysUnchangedOnViews(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every zoo model on every backend")
	}
	ctx := context.Background()
	// Keys do not depend on the platform; Build only needs one.
	plat, err := hardware.Get("a100")
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range models.List() {
		built, err := info.Build()
		if err != nil {
			t.Fatal(err)
		}
		adm, errs := graph.Admit(built)
		if len(errs) > 0 {
			t.Fatal(errs[0])
		}
		for _, dt := range []graph.DataType{graph.Float32, graph.Float16, graph.Int8} {
			for _, batch := range []int{1, 8, 32} {
				view := adm.View()
				view.ConvertFloatTensors(dt)
				rep, err := analysis.NewRepWithBatch(view, batch)
				if err != nil {
					t.Fatal(err)
				}
				rawRep, err := analysis.NewRep(rep.Graph.Clone())
				if err != nil {
					t.Fatal(err)
				}
				point := fmt.Sprintf("%s/%v/bs%d", info.Key, dt, batch)
				checkCostsByName(t, point, rep)
				for _, name := range backend.List() {
					be, err := backend.Get(name)
					if err != nil {
						t.Fatal(err)
					}
					cfg := backend.Config{Platform: plat, DType: dt, Batch: batch}
					eng, err := be.Build(ctx, rep, cfg)
					if err != nil {
						t.Fatal(err)
					}
					rawEng, err := be.Build(ctx, rawRep, cfg)
					if err != nil {
						t.Fatal(err)
					}
					point := point + " on " + name
					works, rawWorks := eng.Works(), rawEng.Works()
					if len(works) != len(rawWorks) {
						t.Fatalf("%s: %d layers on the view, %d on a raw copy", point, len(works), len(rawWorks))
					}
					for i, l := range eng.Layers() {
						if works[i].Key != rawWorks[i].Key {
							t.Fatalf("%s layer %q: key %x on the view, %x on a raw copy", point, l.Name, works[i].Key, rawWorks[i].Key)
						}
						truth, rawTruth := eng.GroundTruth(i), rawEng.GroundTruth(i)
						if (truth == nil) != (rawTruth == nil) {
							t.Fatalf("%s layer %q: a reformat on one side only", point, l.Name)
						}
						if truth == nil {
							continue // a reformat
						}
						if got, want := nodeNames(truth.OriginalNodes()), nodeNames(rawTruth.OriginalNodes()); !slices.Equal(got, want) {
							t.Fatalf("%s layer %q: group %v on the view, %v on a raw copy", point, l.Name, got, want)
						}
						if raw := rawEng.Layers()[i]; !slices.Equal(l.InputTensors, raw.InputTensors) ||
							!slices.Equal(l.OutputTensors, raw.OutputTensors) {
							t.Fatalf("%s layer %q: boundary %v -> %v on the view, %v -> %v on a raw copy", point, l.Name,
								l.InputTensors, l.OutputTensors, raw.InputTensors, raw.OutputTensors)
						}
						kind := "normal"
						if l.Opaque {
							kind = "myelin"
						}
						if want := memo.ContentKeyByMap(rep.Graph, truth.OriginalNodes(), kind); works[i].Key != want {
							t.Fatalf("%s layer %q: ContentKey %x, map-numbered %x", point, l.Name, works[i].Key, want)
						}
					}
				}
			}
		}
	}
}

// checkCostsByName holds every node's Rep.Cost, which the operator
// defines computed reading tensors by slot, to NodeCost over an
// unadmitted copy of the run's graph, which resolves every tensor by
// name.
func checkCostsByName(t *testing.T, point string, rep *analysis.Rep) {
	t.Helper()
	raw := rep.Graph.Clone()
	byName := make(map[string]*graph.Node, len(raw.Nodes))
	for _, n := range raw.Nodes {
		byName[n.Name] = n
	}
	for _, n := range rep.Nodes() {
		got, ok := rep.Cost(n)
		want, err := analysis.NodeCost(byName[n.Name], raw)
		if !ok || err != nil || got != want {
			t.Fatalf("%s node %q: Rep.Cost %+v (ok %v), by name %+v (%v)", point, n.Name, got, ok, want, err)
		}
	}
}

func nodeNames(nodes []*graph.Node) []string {
	names := make([]string, len(nodes))
	for i, n := range nodes {
		names[i] = n.Name
	}
	return names
}
