#!/usr/bin/env sh
# Tier-1 gate plus the race gate: everything a PR must pass locally.
# The -race run matters because the pipeline fans out across goroutines
# (compare.Diff constructs concurrently; shaping and the lockstep walk
# shard per root edge; CrossCompare bounds a worker pool) and several
# tests raise GOMAXPROCS to force those paths even on 1-CPU machines.
set -eu
cd "$(dirname "$0")/.."

# Formatting is part of the gate: gofmt -l prints nothing when clean.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files are not gofmt-formatted:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...
go build ./...
go test -race ./...

# The served-request benchmark is a module of its own (bench/go.mod), so
# the commands above never compile it. It calls engine, compare, fdd,
# jobs and api exports directly; vetting and short-testing it here makes
# renaming one of them fail this gate rather than the benchmark run.
(cd bench && go vet . && go test -short .)

# The observability primitives are the layer every request path shares,
# so their concurrency tests rerun uncached: a flaky span buffer or
# histogram race must not hide behind a stale test-cache entry.
GOFLAGS=-count=1 go vet ./internal/trace/...
GOFLAGS=-count=1 go test -race ./internal/trace/... ./internal/metrics/...

# The chaos stress storm also reruns uncached: it drives randomized
# fault injection (latency, budget exhaustion, cache-insert failures,
# client hangups) through a real HTTP server and asserts the system
# degrades without leaks or cache poisoning — exactly the kind of test
# whose cached "ok" means nothing.
go test -race -count=1 -run 'TestChaosStress' ./internal/api/

# The async-job lifecycle storm likewise reruns uncached: concurrent
# /v1/jobs submissions with faults firing inside pair workers and
# random mid-flight cancellations, asserting every job lands in a
# terminal state, failed pairs coexist with completed siblings, and
# the worker pool leaks no goroutines after shutdown.
go test -race -count=1 -run 'TestJobsChaos' ./internal/api/

# One-iteration fuzz passes over the policy frontends: the parsers face
# arbitrary config text from the network (nftables rulesets, cloud
# security-group JSON, iptables dumps), so each corpus entry re-runs
# through the no-panic/round-trip properties on every gate.
go test -run=NONE -fuzz=FuzzNftables -fuzztime=1x ./internal/frontend/
go test -run=NONE -fuzz=FuzzSecgroup -fuzztime=1x ./internal/frontend/
go test -run=NONE -fuzz=FuzzImport -fuzztime=1x ./internal/iptables/

# The journal replayer faces arbitrary bytes after a crash (torn tails,
# bit rot, garbage), so its corpus — seeded with the testdata/journal
# corruption fixtures — re-runs through the never-panic/always-report
# property on every gate too.
go test -run=NONE -fuzz=FuzzJournalReplay -fuzztime=1x ./internal/jobs/

# The crash-restart test SIGKILLs a journaled server mid-job and
# asserts the restarted process resumes without recomputing or
# double-settling pairs. It reruns uncached under the race detector:
# it is the end-to-end proof of the durable store and a cached "ok"
# from a previous binary proves nothing about this one.
go test -race -count=1 -run 'TestCrashRestartResumesWithoutDuplicateSettles' ./cmd/fwserved/

# The incremental-recompilation differential also reruns uncached under
# the race detector: hundreds of randomized policy/edit-script pairs
# asserting that resuming a checkpointed builder is graph-isomorphic to
# scratch construction — the correctness proof for the edits fast path.
go test -race -count=1 -run 'TestIncrementalDifferential' ./internal/impact/

# Performance gate: the pipeline must stay within 12% of the last
# committed snapshot on the gated phases, after rescaling the baseline
# by the machine-calibration ratio both snapshots record (this box's
# absolute timings drift by tens of percent between sessions on
# byte-identical workloads; BENCH_4 was the first calibrated snapshot).
# The envelope is set just above this box's measured same-binary noise:
# back-to-back runs of one unchanged binary swing +/-10-12% per phase
# even after calibration (see the BENCH_7 note in EXPERIMENTS.md), so a
# 5% gate fails on noise alone, while the regressions the gate exists
# to catch (a resume path quietly rebuilding from scratch, a cache
# stopping to coalesce) overshoot any sane envelope by multiples.
# impact_incremental_tail is gated so the edit-to-diff fast path cannot
# silently rot back toward from-scratch cost, and
# crosscompare_16x_sharded_4_workers so the async-job coordinator's
# scheduling and compile-cache coalescing cannot either. Skippable for
# doc-only loops (SKIP_BENCH_GATE=1) — CI always runs it.
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

if [ "${SKIP_BENCH_GATE:-}" != "1" ]; then
    go run ./cmd/fwbench -json -out "$tmpdir/bench" \
        -baseline results/BENCH_8.json -gate 12 \
        -gatephases construct,compare,impact_incremental_tail,crosscompare_16x_sharded_4_workers
fi

# Scenario-matrix gate: the seeded scenario matrix (overload, cache-cold
# storm, adversarial policies, chaos fault flake, drain under load) runs
# in fast mode — 1 rerun at 0.4 load scale — with per-run SLO assertions.
# The full matrix (3 reruns, full load, cross-run variance gate) is the
# release-candidate run; see EXPERIMENTS.md. Provenance (commit, Go
# version, calibration ratio) lands next to the committed benchmark
# snapshots so a red gate is attributable to a machine, not a mystery.
# Skippable for doc-only loops (SKIP_SCEN_GATE=1) — CI always runs it.
if [ "${SKIP_SCEN_GATE:-}" != "1" ]; then
    go run ./cmd/fwscen -fast -out "$tmpdir/scen" \
        -baseline results/BENCH_8.json
    cp "$tmpdir/scen/provenance.json" results/provenance.json
fi
