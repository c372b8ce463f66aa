package server

import (
	"context"
	"testing"

	"proof/internal/core"
	"proof/internal/profsession"
	"proof/internal/workload"
)

// TestWorkloadSmokeAgainstProofd runs the builtin closed-loop smoke
// scenario against a healthy in-process proofd over HTTP and grades
// the SLO verdict: every request must succeed (the smoke SLO declares
// a zero error budget), the contract must hold, and the
// same seed must always pin the same schedule. This is the CI gate
// that keeps the workload engine and the serving stack compatible.
func TestWorkloadSmokeAgainstProofd(t *testing.T) {
	sess := profsession.NewWithConfig(profsession.Config{
		Capacity: 64,
		Profile: func(ctx context.Context, opts core.Options) (*core.Report, error) {
			return stubReport(opts), nil
		},
	})
	s, ts := newTestServer(t, Config{
		Session:     sess,
		MaxInflight: 8,
		MaxQueue:    64,
	})

	sc, ok := workload.Builtin("smoke")
	if !ok {
		t.Fatal("smoke builtin scenario missing")
	}
	plan, err := workload.BuildPlan(sc, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := workload.Run(context.Background(), plan,
		workload.NewHTTPTarget(ts.URL), workload.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	verdict := workload.Grade(res, sc.SLO)
	if !verdict.Pass {
		t.Errorf("smoke verdict failed against a healthy server:\n%s", verdict.Table())
	}
	if res.Requests != int64(plan.Requests()) {
		t.Errorf("issued %d of %d planned requests", res.Requests, plan.Requests())
	}
	if res.OK != res.Requests {
		t.Errorf("healthy server produced non-ok outcomes: %+v", res)
	}

	// Same seed, same schedule — over the real HTTP path too.
	again, err := workload.BuildPlan(sc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if again.Digest() != res.ScheduleDigest {
		t.Error("rebuilt plan digest differs from the executed run's")
	}

	assertNoLeakedSlots(t, s)
}
