GO ?= go

.PHONY: build test lint lint-sarif lint-baseline bench-serving bench-sweep bench-roofline

build:
	$(GO) build ./...

test:
	$(GO) test ./...

lint:
	$(GO) vet ./...
	$(GO) run ./cmd/prooflint -baseline=lint.baseline ./...

# lint-sarif renders the same findings as SARIF 2.1.0 (what CI uploads
# for code-scanning UIs); it does not fail the build by itself.
lint-sarif:
	$(GO) run ./cmd/prooflint -format=sarif -baseline=lint.baseline ./... > prooflint.sarif || true

# lint-baseline regenerates lint.baseline from the current findings.
# Only do this to adopt intentionally accepted findings; annotate each
# new entry with a justification comment.
lint-baseline:
	$(GO) run ./cmd/prooflint -write-baseline -baseline=lint.baseline ./...

# bench-serving regenerates BENCH_serving.json: the pinned-seed
# closed-loop smoke of the serving path (cache-hit heavy, fixed request
# count). Schedules are deterministic (seed 1), so the request stream —
# and the schedule_digest in the artifact — are identical across runs;
# only measured latencies move with the host.
bench-serving:
	$(GO) run ./cmd/proofload -name bench-serving -seed 1 -json -out BENCH_serving.json

# bench-sweep regenerates BENCH_sweep.json: the pinned-seed 20-model ×
# all-platform × batch-grid sweep, plain vs through a session whose
# report store holds the grid (cold pass, which executes every point,
# and warm pass, which hits). Five rounds alternate whether the plain
# or the cold pass goes first, each on a fresh session, and the
# artifact pins each pass's median. Grid, seed, point count and warm
# hits are deterministic; only wall times move with the host. The
# writer fails if any warm pass misses a point or the median warm pass
# is less than 5x faster than the median plain one.
bench-sweep:
	$(GO) test ./internal/core -run TestWriteSweepBenchArtifact -bench-out=$(CURDIR)/BENCH_sweep.json

# bench-roofline regenerates BENCH_roofline.json: ns/op and allocs/op
# for the roofline hot path (point construction, bound classification)
# and the pipeline's tail on a held resnet-18 engine. The writer fails
# if the point math allocates or the tail allocates other than its
# pinned count; ns/op moves with the host.
bench-roofline:
	$(GO) test ./internal/core -run TestWriteRooflineBenchArtifact -roofline-bench-out=$(CURDIR)/BENCH_roofline.json
