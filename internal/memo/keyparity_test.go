package memo_test

import (
	"context"
	"fmt"
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
// report.
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
					point := fmt.Sprintf("%s/%v/bs%d on %s", info.Key, dt, batch, name)
					works, rawWorks := eng.Works(), rawEng.Works()
					for i, l := range eng.Layers() {
						if works[i].Key != rawWorks[i].Key {
							t.Fatalf("%s layer %q: key %s on the view, %s on a raw copy", point, l.Name, works[i].Key, rawWorks[i].Key)
						}
						truth := eng.GroundTruth(l.Name)
						if truth == nil {
							continue // a reformat
						}
						kind := "normal"
						if l.Opaque {
							kind = "myelin"
						}
						if want := memo.ContentKeyByMap(rep.Graph, truth.OriginalNodes(), kind); works[i].Key != want {
							t.Fatalf("%s layer %q: ContentKey %s, map-numbered %s", point, l.Name, works[i].Key, want)
						}
					}
				}
			}
		}
	}
}
