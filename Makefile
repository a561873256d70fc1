# Developer entry points. CI (.github/workflows/ci.yml) runs exactly
# these targets so local and CI checking are identical.

GO ?= go

.PHONY: all build test lint vet fmt race fuzz-smoke check-smoke chaos-smoke crash-smoke link-smoke serve-smoke tenant-smoke migrate-smoke golden-compare ladderbench-build cutover-bench bench-baseline bench-record bench-compare ci

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint runs the standard toolchain checks plus the project's custom
# analyzers — the per-package suite (address domains, lock discipline,
# dropped errors, counter widths) and the interprocedural suite
# (plaintext taint flow, lock-order cycles, sim-clock determinism) over
# one shared type-checked load. gofmt -l prints offending files; the
# subshell turns any output into a failure.
# SALUS_LINT_FLAGS lets CI pass -gha (inline PR annotations) without a
# second target.
lint: vet fmt
	$(GO) run ./cmd/salus-lint $(SALUS_LINT_FLAGS) ./...

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# race covers the concurrency-sensitive packages. The experiments
# package is excluded: its campaigns are minutes-long under the race
# detector without exercising any extra locking.
race:
	$(GO) test -race ./internal/securemem ./internal/sim ./internal/pagecache \
		./internal/metrics ./internal/trace ./internal/serve ./internal/tenant \
		./internal/migrate

# fuzz-smoke gives the untrusted-input fuzzers a short budget each on top
# of any checked-in corpora: the trace parser, the two persistence
# decoders (suspend images and checkpoint journals + marshalled roots),
# and the link flap-plan parser. Go fuzzing takes exactly one target per
# invocation.
fuzz-smoke:
	$(GO) test ./internal/trace -run '^FuzzReadTrace$$' -fuzz '^FuzzReadTrace$$' -fuzztime 10s
	$(GO) test ./internal/securemem -run '^FuzzResume$$' -fuzz '^FuzzResume$$' -fuzztime 10s
	$(GO) test ./internal/securemem -run '^FuzzRecover$$' -fuzz '^FuzzRecover$$' -fuzztime 10s
	$(GO) test ./internal/link -run '^FuzzLinkPlan$$' -fuzz '^FuzzLinkPlan$$' -fuzztime 10s
	$(GO) test ./internal/tenant -run '^FuzzTenantConfig$$' -fuzz '^FuzzTenantConfig$$' -fuzztime 10s
	$(GO) test ./internal/migrate -run '^FuzzMigrationFrame$$' -fuzz '^FuzzMigrationFrame$$' -fuzztime 10s

# check-smoke runs the differential model-equivalence checker under the
# race detector with the CI budget: 25 seeds × 200 randomized ops against
# all three protection models plus the plain oracle.
check-smoke:
	$(GO) run -race ./cmd/salus-check -seeds 25 -ops 200

# chaos-smoke replays the same budget with fault injection armed, under
# both plans: recoverable (transient link faults must leave plaintext
# byte-identical) and unrecoverable (every media error must surface as a
# typed error or quarantine — never a silent divergence).
chaos-smoke:
	$(GO) run -race ./cmd/salus-check -seeds 25 -ops 200 -chaos recoverable
	$(GO) run -race ./cmd/salus-check -seeds 25 -ops 200 -chaos unrecoverable

# crash-smoke runs power-loss injection on the checkpoint journal under
# the race detector: every seed's journal tape is cut at every write/sync
# boundary under every damage mode, and each cut must recover the last
# committed epoch byte-identically or fail with a typed torn/rollback
# error. The deeper acceptance campaign is the same command with
# -seeds 50.
crash-smoke:
	$(GO) run -race ./cmd/salus-check -crash -seeds 8 -ops 72 -pages 8 -devpages 2

# link-smoke runs CXL link-chaos verification under the race detector:
# every seed replays under scripted flap windows, a long outage, a
# brownout, and a rate-driven plan, asserting that device hits keep
# serving, refused ops fail typed, parked writebacks all drain on
# recovery byte-identically, and a home rollback staged during an outage
# is detected on drain. The deeper acceptance campaign is the same
# command with -seeds 50.
link-smoke:
	$(GO) run -race ./cmd/salus-check -link -seeds 12 -ops 120

# serve-smoke runs the combined-chaos traffic campaign under the race
# detector: concurrent client streams through the admission/deadline/
# retry pipeline while transient faults, link outages, quiesced
# checkpoints, and crash/recover cycles fire mid-traffic. Asserts zero
# silent divergences after quiesce, every rejection typed, and the
# interactive-class availability SLO on the aggregate. The deeper
# acceptance campaign is the same command with -seeds 50.
serve-smoke:
	$(GO) run -race ./cmd/salus-check -serve -seeds 6

# tenant-smoke runs the hostile-tenant containment campaign under the
# race detector: victim, bystander, and attacker tenants share one CXL
# pool with per-tenant key domains while chaos (faults, link outages,
# crash/recover, replayed-ciphertext splices) fires on the attacker
# only. Asserts every cross-tenant probe is refused typed, every replay
# is rejected, and the healthy tenants' bytes and availability are
# untouched. The deeper acceptance campaign is the same command with
# -seeds 50.
tenant-smoke:
	$(GO) run -race ./cmd/salus-check -tenant -seeds 6

# migrate-smoke runs the attested live-migration campaign under the
# race detector: differential-oracle migrations between pools, a cutover
# under live serve traffic, man-in-the-middle stream attacks at every
# record boundary, endpoint crashes at every stream boundary, link-loss
# park/resume, and source-identity retirement — with bystander tenants
# on every pool asserted zero-blast-radius. The deeper acceptance
# campaign is the same command with -seeds 50.
migrate-smoke:
	$(GO) run -race ./cmd/salus-check -migrate -seeds 6

# golden-compare runs every salus-check campaign at a fixed-seed budget
# and compares its output with cmd/salus-check/testdata/*.golden: the
# replay modes byte for byte, the concurrent modes (serve, tenant,
# migrate) on their summary line with the interleaving-dependent counters
# masked. After an intended output change, regenerate the files with
# `go test ./cmd/salus-check -run TestGolden -update` and review the diff.
# It also renders every `salus-bench -quick -all` paper figure and study
# as JSON and compares it byte for byte with BENCH_seed.json; regenerate
# that file with `make bench-baseline`. Finally it compares salus-sim's
# full measurement record for each model and one trace replay with
# cmd/salus-sim/testdata/*.golden (`go test ./cmd/salus-sim -run
# TestGolden -update` regenerates them).
golden-compare:
	$(GO) test ./cmd/salus-check -run '^TestGolden$$' -count=1
	$(GO) test ./cmd/salus-sim -run '^TestGolden$$' -count=1
	$(GO) test ./internal/experiments -run '^TestQuickCampaignGolden$$' -count=1

# ladderbench-build vets and tests the benchmark harness in _ladderbench/.
# It is a module of its own, so the root `go build ./...` skips it; this
# target makes a refactor that breaks the harness's build fail here rather
# than only in the benchmark pipeline.
ladderbench-build:
	$(GO) -C _ladderbench vet ./... && $(GO) -C _ladderbench test ./...

# cutover-bench runs BenchmarkMigrateCutover once: a migration of a
# 1024-page tenant whose quiesced cutover time it reports as pause-ms
# and whose bootstrap full checkpoint it reports as bootstrap-ms.
# One iteration keeps it compiling and running; it gates nothing.
cutover-bench:
	$(GO) test ./internal/migrate -run '^$$' -bench '^BenchmarkMigrateCutover$$' -benchtime 1x

# bench-baseline regenerates the paper-figure golden: every result of
# the quick salus-bench campaign, in JSON, written to BENCH_seed.json.
# Simulated results do not depend on the host, so golden-compare checks
# the file byte for byte; regenerate only after an intended change to a
# simulated result, and review the diff.
bench-baseline:
	$(GO) run ./cmd/salus-bench -quick -all -format json > BENCH_seed.json

# bench-record refreshes the checked-in wall-clock perf snapshot
# (BENCH_perf.json): sharded-vs-global Concurrent throughput and the
# crypto hot-path timings and allocation counts, measured by
# internal/perfbench. Distinct from BENCH_seed.json, which records
# simulated-time workload results — this one is about the library's own
# wall-clock hot paths. Regenerate when the measured design changes on
# purpose or the CI machine class changes.
bench-record:
	$(GO) run ./cmd/salus-bench -perf > BENCH_perf.json

# bench-compare is the perf-trajectory gate: re-measures the same cases
# and fails against the recorded snapshot on a lost sharding speedup, a
# new allocation on a crypto hot path, a dropped case, or ns/op drift
# beyond a generous budget (raw wall-clock moves with the machine; the
# within-run ratios are the real gates). The fresh measurement lands in
# bench-current.json (not checked in) so a failed gate can be diffed
# offline; CI uploads both files as an artifact.
bench-compare:
	$(GO) run ./cmd/salus-bench -perf -perf-compare BENCH_perf.json > bench-current.json

ci: build lint test race fuzz-smoke check-smoke chaos-smoke crash-smoke link-smoke serve-smoke tenant-smoke migrate-smoke golden-compare ladderbench-build cutover-bench bench-compare
