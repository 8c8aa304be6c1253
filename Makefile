# Targets by kind. Gates: check (vet, fmt-check, build, race), test,
# fingerprint, bench-guard. Smokes, one CI job each, none in tier-1:
# resume-smoke, fleet-smoke, async-smoke, scale-smoke, shard-smoke and
# fuzz-smoke — the home of every native fuzz target: the wire frame, the
# shard hop's Report decode, the sketch index's Restore, its hinted
# representative search against the linear scan, a stored snapshot's
# decode, the direct convolution against its reference and the blocked
# FedAvg against the per-result loop today, ROADMAP 5(d)'s exposition
# target when it lands, one `go test -fuzz` line each.
# Measurement: loc, deadcode, bench, scale-results. Test quality:
# mutants, the committed mutation corpus (its own CI job).
GO ?= go

.PHONY: check vet fmt-check build test race fingerprint loc deadcode mutants bench-guard bench resume-smoke fleet-smoke async-smoke scale-smoke shard-smoke fuzz-smoke scale-results

## check: the tier-1 gate — vet, gofmt, build, and the full test suite under -race.
check: vet fmt-check build race

vet:
	$(GO) vet ./...

## fmt-check: fail if any file needs gofmt (same gate CI runs).
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The experiments suite is training-heavy; under -race it runs ~30
# minutes, past go test's default 10-minute per-package timeout.
race:
	$(GO) test -race -timeout 60m ./...

## fingerprint: behaviour check that needs no parent checkout (~4 s, no
## timing involved). The benchmark's exact outputs — virtual time and
## the FNV of the global model and of the selection stream, for each of
## the four workloads — at -short -seed 1 must equal the committed
## golden. A PR that changes one on purpose re-records the golden and
## says so.
fingerprint:
	$(GO) run ./benchmark -short -seed 1 | grep '^exact ' | diff tests/golden/benchmark_short_seed1.txt -

## loc: the size of the system — non-test Go lines outside benchmark/.
## A simplicity PR states its net delta with this one number, the way
## `make fingerprint` states its behaviour.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' | xargs cat | wc -l

## deadcode: the dead-surface census — top-level funcs, methods and
## types that no non-test identifier resolves to, type-checked with
## go/types (a method is also live when it implements an interface
## method in use), diffed against the committed tests/deadcode/dead.txt.
## A new dead name fails, and so does a listed name that is live again
## (delete its line), so the count only goes down. It logs its wall
## time; run it after `go build ./...` so the standard library's export
## data is cached. The same test runs inside `go test ./...`.
deadcode:
	$(GO) test -count=1 -v -run TestDeadCode ./tests/deadcode

## mutants: the mutation corpus (≈ 50 s on a 2-vCPU host). Each row of
## tests/mutants/mutants.txt swaps one source edit in with
## `go test -overlay` (the checkout is never written) and names the tests
## that must fail; a surviving mutant, an old text that no longer matches
## exactly once, or a mutant that does not compile fails the target. A
## row's tests get two minutes; one that hangs is reported as killed by
## timeout, with its output. The `mutants` build tag keeps the runner
## out of `go test ./...`.
mutants:
	$(GO) test -tags mutants -count=1 -timeout 30m ./tests/mutants

## bench-guard: compile and run every benchmark exactly once so a broken
## benchmark fails CI without paying full measurement time.
bench-guard:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

## resume-smoke: end-to-end crash-recovery check. Leg 1 runs 5 rounds
## with per-round checkpointing and exits (the "crash"); leg 2 resumes
## from the newest snapshot and finishes a 10-round budget; the
## reference runs all 10 rounds uninterrupted. The summary JSONs must
## be byte-identical — resume is bit-exact or this target fails.
SMOKE := $(or $(TMPDIR),/tmp)/haccs-resume-smoke
SMOKE_FLAGS := -strategy haccs-py -clients 12 -k 4 -size 8 -seed 7
resume-smoke:
	rm -rf $(SMOKE) && mkdir -p $(SMOKE)
	$(GO) build -o $(SMOKE)/haccs-sim ./cmd/haccs-sim
	$(SMOKE)/haccs-sim $(SMOKE_FLAGS) -rounds 5 \
		-checkpoint-dir $(SMOKE)/ckpt -checkpoint-retain 12
	$(SMOKE)/haccs-sim $(SMOKE_FLAGS) -rounds 10 -resume \
		-checkpoint-dir $(SMOKE)/ckpt -checkpoint-retain 12 \
		-json $(SMOKE)/resumed.json
	$(SMOKE)/haccs-sim $(SMOKE_FLAGS) -rounds 10 -json $(SMOKE)/reference.json
	diff $(SMOKE)/resumed.json $(SMOKE)/reference.json
	@echo "resume-smoke: resumed summary matches the uninterrupted reference"

## fleet-smoke: end-to-end fleet health check through the real binary.
## A short HACCS run with a tight deadline (2s virtual — tight enough
## that cuts must occur on the 12-client roster) and dropout, then the
## binary self-scrapes /debug/fleet and fails unless every round was
## recorded, Jain fairness is in (0,1], and at least one straggler cut
## landed in the registry.
FLEETSMOKE := $(or $(TMPDIR),/tmp)/haccs-fleet-smoke
fleet-smoke:
	rm -rf $(FLEETSMOKE) && mkdir -p $(FLEETSMOKE)
	$(GO) build -o $(FLEETSMOKE)/haccs-sim ./cmd/haccs-sim
	$(FLEETSMOKE)/haccs-sim -strategy haccs-py -clients 12 -k 4 -size 8 \
		-rounds 10 -deadline 2 -dropout 0.1 -seed 7 \
		-metrics-addr 127.0.0.1:0 -fleet-check

## async-smoke: end-to-end async-mode check through the real binary. A
## short FedBuff-style run with a staleness bound, then the binary
## self-scrapes /metrics (staleness histogram present) and
## /debug/selection (buffer state exposed) via -async-check; the second
## leg drives the async driver over the TCP transport.
ASYNCSMOKE := $(or $(TMPDIR),/tmp)/haccs-async-smoke
async-smoke:
	rm -rf $(ASYNCSMOKE) && mkdir -p $(ASYNCSMOKE)
	$(GO) build -o $(ASYNCSMOKE)/haccs-sim ./cmd/haccs-sim
	$(ASYNCSMOKE)/haccs-sim -mode async -strategy haccs-py -clients 12 -k 4 \
		-size 8 -rounds 12 -buffer-k 2 -max-staleness 6 -seed 7 \
		-metrics-addr 127.0.0.1:0 -async-check
	$(GO) test -run TestAsyncFederatedTrainingOverTCP -count=1 ./internal/experiments

## scale-smoke: small but complete scale-harness pass through the real
## haccs-load binary — a 200-client TCP fleet over every leg of the
## scenario matrix (sync with straggler deadline, async heavy-tail,
## reconnect storm, coordinator crash + checkpoint resume under load).
## haccs-load exits nonzero if the results file cannot be produced, any
## /metrics scrape fails its exposition lint, the storm does not fully
## reconnect, or the crash leg does not resume.
SCALESMOKE := $(or $(TMPDIR),/tmp)/haccs-scale-smoke
scale-smoke:
	rm -rf $(SCALESMOKE) && mkdir -p $(SCALESMOKE)
	$(GO) build -o $(SCALESMOKE)/haccs-load ./cmd/haccs-load
	$(SCALESMOKE)/haccs-load -clients 200 -k 16 -rounds 12 -scrape-every 3 \
		-out $(SCALESMOKE)/results -rev smoke
	test -s $(SCALESMOKE)/results/smoke.md
	@echo "scale-smoke: all legs passed; results at $(SCALESMOKE)/results/smoke.md"

## shard-smoke: end-to-end hierarchical-coordination check through the
## real haccs-root binary. Leg 1 runs 2 shard coordinators + root over
## loopback TCP (self-contained -local-clients mode) for 6 rounds with
## per-round root snapshots, then exits (the "crash"); leg 2 restarts
## the root process with -resume, the shards re-register, and the run
## continues from round 6 to 12 — cross-process root recovery through
## the real wire protocol. Leg 3 runs the same hierarchy in async mode
## for 6 cycles against a fresh checkpoint directory, so the shard-local
## async driver's Report goes through the binary too. Leg 4 drives the
## sharded scenario-matrix leg via haccs-load (shard-wide storm +
## in-process root crash under load); haccs-load exits nonzero if the
## leg fails.
SHARDSMOKE := $(or $(TMPDIR),/tmp)/haccs-shard-smoke
SHARD_FLAGS := -shards 2 -local-clients 80 -k 8 -param-dim 64 -seed 7
shard-smoke:
	rm -rf $(SHARDSMOKE) && mkdir -p $(SHARDSMOKE)
	$(GO) build -o $(SHARDSMOKE)/haccs-root ./cmd/haccs-root
	$(GO) build -o $(SHARDSMOKE)/haccs-load ./cmd/haccs-load
	$(SHARDSMOKE)/haccs-root $(SHARD_FLAGS) -checkpoint-dir $(SHARDSMOKE)/ckpt -rounds 6
	$(SHARDSMOKE)/haccs-root $(SHARD_FLAGS) -checkpoint-dir $(SHARDSMOKE)/ckpt -rounds 12 -resume \
		| tee $(SHARDSMOKE)/resumed.log
	grep -q "resumed from checkpoint at round 6" $(SHARDSMOKE)/resumed.log
	$(SHARDSMOKE)/haccs-root $(SHARD_FLAGS) -checkpoint-dir $(SHARDSMOKE)/async-ckpt -mode async -rounds 6
	$(SHARDSMOKE)/haccs-load -clients 120 -k 12 -rounds 12 -scrape-every 3 \
		-legs sharded -shards 2 -out $(SHARDSMOKE)/results -rev shard-smoke
	test -s $(SHARDSMOKE)/results/shard-smoke.md
	@echo "shard-smoke: root resume + async hierarchy + sharded leg passed"

## fuzz-smoke: five seconds of coverage-guided fuzzing per native fuzz
## target (go test -fuzz takes one target and one package per run). The
## committed seed corpora under testdata/fuzz already run as unit tests
## in tier-1; this target is what looks for new inputs. A failure writes
## its input under the package's testdata/fuzz — commit it with the fix.
## A Report's or a snapshot's seeds carry whole gob type descriptors
## (≈ 2 KB), and minimizing one new input would otherwise take the
## default 60 s, so those lines bound minimization to 1 s.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzFrameDecode -fuzztime 5s ./internal/session
	$(GO) test -run '^$$' -fuzz FuzzReportDecode -fuzztime 5s -fuzzminimizetime 1s ./internal/shard
	$(GO) test -run '^$$' -fuzz FuzzIndexRestore -fuzztime 5s ./internal/sketch
	$(GO) test -run '^$$' -fuzz FuzzNearestMatchesLinearScan -fuzztime 5s ./internal/sketch
	$(GO) test -run '^$$' -fuzz FuzzSnapshotDecode -fuzztime 5s -fuzzminimizetime 1s ./internal/checkpoint
	$(GO) test -run '^$$' -fuzz FuzzConv2DMatchesRef -fuzztime 5s ./internal/nn
	$(GO) test -run '^$$' -fuzz FuzzFedAvgMatchesNaive -fuzztime 5s ./internal/rounds

## scale-results: the committed-results run — a 2000-client fleet over
## the full matrix, writing tests/results/scale/<rev>.md for the
## current revision (commit the file).
scale-results:
	$(GO) run ./cmd/haccs-load -clients 2000 -k 64 -rounds 40 \
		-rev $$(git rev-parse --short HEAD)

## bench: full benchmark pass (slow; for local measurement only).
bench:
	$(GO) test -run '^$$' -bench . ./...
