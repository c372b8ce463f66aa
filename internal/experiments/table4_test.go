package experiments

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// update regenerates the Table 4 golden:
//
//	go test ./internal/experiments -run TestTable4Golden -update
var update = flag.Bool("update", false, "rewrite the Table 4 golden")

// TestTable4Golden pins Table 4 and its per-layer extension at batch 16
// byte for byte, so a change to how either table is computed cannot
// shift a printed number unnoticed.
func TestTable4Golden(t *testing.T) {
	ctx := context.Background()
	rows, err := Table4WithBatchCtx(ctx, 16)
	if err != nil {
		t.Fatal(err)
	}
	layers, err := PerLayerTable4Ctx(ctx, 16)
	if err != nil {
		t.Fatal(err)
	}
	got := FormatTable4(rows) + "\n" + FormatPerLayerTable4(layers)
	path := filepath.Join("testdata", "table4_b16.txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Fatalf("Table 4 drifted from %s:\ngot:\n%s\nwant:\n%s\nIf the change is intentional, regenerate with:\n  go test ./internal/experiments -run TestTable4Golden -update",
			path, got, want)
	}
}

// TestPerLayerTable4ServedBySession: both tables read the same session
// reports, so the per-layer extension right after Table 4 runs no
// pipeline: the session serves its five models' two reports each.
func TestPerLayerTable4ServedBySession(t *testing.T) {
	ctx := context.Background()
	ResetSession()
	if _, err := Table4WithBatchCtx(ctx, 8); err != nil {
		t.Fatal(err)
	}
	before := SessionStats()
	if _, err := PerLayerTable4Ctx(ctx, 8); err != nil {
		t.Fatal(err)
	}
	after := SessionStats()
	if n := after.Misses - before.Misses; n != 0 {
		t.Errorf("the per-layer table executed %d pipelines, want 0", n)
	}
	if n, want := after.Hits-before.Hits, int64(2*len(table4Models)); n != want {
		t.Errorf("the session served %d of the per-layer table's reports, want %d", n, want)
	}
}
