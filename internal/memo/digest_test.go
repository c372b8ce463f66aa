package memo_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"proof/internal/core"
	"proof/internal/models"
)

// update regenerates the report digest fixture:
//
//	go test ./internal/memo -run 'TestDifferentialFullMatrix|TestReportDigestsMeasured' -update
var update = flag.Bool("update", false, "rewrite the report digest fixture")

// reportDigests pins the sha256 of each report's JSON, keyed by the
// subtest that produced it. A stored report is the bytes a fresh run
// wrote, so comparing the two cannot catch a change to the pipeline
// tail's arithmetic; this fixed digest can.
var reportDigests = digestFixture{path: filepath.Join("testdata", "report_digests.json")}

type digestFixture struct {
	path string
	once sync.Once
	mu   sync.Mutex
	want map[string]string
	err  error
}

// digestOf is the fixture value of one configuration: the report
// JSON's sha256, or the error text for a configuration that fails.
func digestOf(raw []byte, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

func (f *digestFixture) load() {
	f.want = map[string]string{}
	raw, err := os.ReadFile(f.path)
	if err != nil {
		f.err = err
		return
	}
	f.err = json.Unmarshal(raw, &f.want)
}

// check compares one configuration against the fixture. Under -update
// it records the configuration instead and rewrites the file, keeping
// entries the current run did not reach.
func (f *digestFixture) check(t *testing.T, key string, raw []byte, runErr error) {
	t.Helper()
	f.once.Do(f.load)
	got := digestOf(raw, runErr)
	f.mu.Lock()
	defer f.mu.Unlock()
	if *update {
		f.want[key] = got
		if err := f.write(); err != nil {
			t.Fatal(err)
		}
		return
	}
	if f.err != nil {
		t.Fatalf("%s: %v (run with -update to regenerate)", f.path, f.err)
	}
	want, ok := f.want[key]
	if !ok {
		t.Fatalf("%s has no entry for %s (run with -update to regenerate)", f.path, key)
	}
	if got != want {
		t.Fatalf("report digest drifted from %s:\n  want %s\n  got  %s\nIf the change is intentional, regenerate with -update.", f.path, want, got)
	}
}

// write saves the fixture; encoding/json sorts the map keys, so the
// file is stable across runs.
func (f *digestFixture) write() error {
	raw, err := json.MarshalIndent(f.want, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(f.path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(f.path, append(raw, '\n'), 0o644)
}

// TestReportDigestsMeasured pins the paths the full matrix does not
// reach — measured mode (counter-derived FLOP and bytes) and the
// peak-test roofline — for every zoo model on a GPU, a CPU and an NPU.
func TestReportDigestsMeasured(t *testing.T) {
	for _, info := range models.List() {
		for _, plat := range []string{"a100", "xeon-6330", "npu3720"} {
			for _, c := range []struct {
				label string
				opts  core.Options
			}{
				{"measured", core.Options{Mode: core.ModeMeasured}},
				{"measured-roofline", core.Options{MeasuredRoofline: true}},
			} {
				opts := c.opts
				opts.Model, opts.Platform, opts.Batch = info.Key, plat, 1
				name := fmt.Sprintf("%s/%s/%s", info.Key, plat, c.label)
				t.Run(name, func(t *testing.T) {
					raw, err := reportJSON(t, core.ProfileCtx, opts)
					reportDigests.check(t, "TestReportDigestsMeasured/"+name, raw, err)
				})
			}
		}
	}
}
