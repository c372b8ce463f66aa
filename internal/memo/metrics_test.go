package memo

import (
	"errors"
	"strings"
	"testing"

	"proof/internal/obs"
)

func TestRegisterMetrics(t *testing.T) {
	s := NewStore(StoreConfig{})
	reg := obs.NewRegistry()
	if err := RegisterMetrics(reg, "proofd", s); err != nil {
		t.Fatal(err)
	}
	// A second registration of the same family names must conflict.
	if err := RegisterMetrics(reg, "proofd", s); !errors.Is(err, obs.ErrMetricConflict) {
		t.Fatalf("double registration: %v", err)
	}
	// Nil registry/store are no-ops, not panics.
	if err := RegisterMetrics(nil, "proofd", s); err != nil {
		t.Fatal(err)
	}
	if err := RegisterMetrics(reg, "x", nil); err != nil {
		t.Fatal(err)
	}

	s.Put("k", "report:k", 2)
	s.Get("k")

	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"proofd_memo_hits_total 2",
		"proofd_memo_misses_total 2",
		"proofd_memo_units 2",
		"proofd_memo_reports 1",
		"proofd_memo_hit_ratio 0.5",
		"proofd_memo_plan_hits_total 1",
		"proofd_memo_plan_misses_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	for _, gone := range []string{"proofd_memo_dedups_total", "proofd_memo_failures_total", "proofd_memo_plans "} {
		if strings.Contains(out, gone) {
			t.Errorf("exposition still carries %q:\n%s", gone, out)
		}
	}
}
