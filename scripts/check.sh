#!/usr/bin/env sh
# Tier-1 gate plus the race gate: everything a PR must pass locally.
# The -race run matters because the pipeline fans out across goroutines
# (compare.Diff constructs concurrently; shaping and the lockstep walk
# shard per root edge and CrossCompare runs pairs, all on guard.FanOut's
# bounded workers) and several
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

# Benchmarks compile only under -bench, so the content-address one runs
# a single iteration here: an engine or synth API change that breaks it
# fails this gate instead of the next person who profiles hashing.
go test -run '^$' -bench PolicyHash -benchtime 1x ./internal/engine/

# The construction benchmarks likewise run once (Construct, a build
# that takes checkpoints, and ConstructCold, one trimmed at birth as a
# cold compile's is), so the bytes/op and allocs/op figures that locate
# construction garbage stay measurable, and so does the resident one,
# whose B/storenode figure is what a cached builder costs per node of
# its family store.
go test -run '^$' -bench 'Construct(Cold)?$' -benchtime 1x ./internal/fdd/
go test -run '^$' -bench BuilderResident -benchtime 1x ./internal/fdd/

# So does the served-base resume benchmark: one resume against a base
# whose family store has grown through 2,000 edits, so a per-resume cost
# that grows with the edits a base has served stays measurable.
go test -run '^$' -bench ResumeServedBase -benchtime 1x ./internal/fdd/

# The rows benchmark likewise runs once, so the allocs/op of turning a
# diff-cold difference diagram into report rows (one pass, and the
# reference enumerate-filter-merge) stay measurable.
go test -run '^$' -bench PairRows -benchtime 1x ./internal/compare/

# So does the native-parse benchmark: its allocs/op figure is the one
# TestNativeParseAllocsFlat pins per policy.
go test -run '^$' -bench ParseNative -benchtime 1x ./internal/frontend/

# And the request-decode benchmark, which decodes a 661-rule pair body
# with the one-pass decoder and with the json.Decoder reference kept in
# the tests, so both MB/s and allocs/op figures stay measurable.
go test -run '^$' -bench DecodeRequest -benchtime 1x ./internal/api/

# So does the crosscompare-body benchmark: 15 pairs of 40-rule reports
# encoded through the reference (ConvertDiscrepancy and encoding/json)
# and through the direct writer, so both figures stay measurable.
go test -run '^$' -bench EncodeCrossCompare -benchtime 1x ./internal/api/

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

# The abort tests of the five metered walks (construction, simplify,
# shaping, the lockstep walk and the product walk) also rerun uncached
# under -race: parallel shards stop each other through no shared flag,
# only through the budget's own latch and the ctx every shard polls, so
# a racy or late stop must fail here rather than hide behind a cached
# "ok". So do the Parallel tests: the one bounded fan-out (guard.FanOut)
# that shaping, the lockstep walk and CrossCompare share, held to its
# single-worker result and raced on shaping.
go test -race -count=1 -run 'Cancel|Budget|Abort|Meter|Parallel' ./internal/guard/ ./internal/fdd/ ./internal/shape/ ./internal/compare/ ./internal/synth/

# Fuzz targets. Each package with fuzz targets below gets one corpus
# line, `go test -count=1 -run '^(FuzzA|FuzzB)$' ./pkg/`, which runs,
# uncached, every f.Add seed and every testdata/fuzz entry of the
# package's listed targets, so a seed that fails fails this gate. Each
# target also keeps a one-input line, `go test -run=NONE -fuzz=<target>
# -fuzztime=1x`, which runs the fuzzing engine for one execution: the
# first input of the target's seed corpus, under the fuzzer's coverage
# instrumentation. It shows the target still starts under -fuzz, not
# that its corpus passes.

# The policy frontends: the parsers face arbitrary config text from the
# network (nftables rulesets, cloud security-group JSON, iptables
# dumps), so each seed runs through the no-panic/round-trip properties.
go test -count=1 -run '^(FuzzNftables|FuzzSecgroup|FuzzImport)$' ./internal/frontend/
go test -run=NONE -fuzz=FuzzNftables -fuzztime=1x ./internal/frontend/
go test -run=NONE -fuzz=FuzzSecgroup -fuzztime=1x ./internal/frontend/
go test -run=NONE -fuzz=FuzzImport -fuzztime=1x ./internal/frontend/

# The native rule text gets the same treatment: the no-panic/round-trip
# targets, and the differential ones that hold the arena lexer (and the
# prefix byte walk) to the reference parser kept in the tests, and the
# one-pass policy-string unquoting to encoding/json, byte for byte, and
# the one-pass request-body decoder to the json.Decoder one it replaced:
# the same accept or reject, status and code, and the same request.
# (The api package's corpus line follows its last one-input line.)
go test -count=1 -run '^(FuzzParseRule|FuzzParsePolicy|FuzzParseRuleMatchesReference)$' ./internal/rule/
go test -count=1 -run '^(FuzzParseMatchesReference)$' ./internal/prefix/
go test -run=NONE -fuzz='^FuzzParseRule$' -fuzztime=1x ./internal/rule/
go test -run=NONE -fuzz='^FuzzParsePolicy$' -fuzztime=1x ./internal/rule/
go test -run=NONE -fuzz='^FuzzParseRuleMatchesReference$' -fuzztime=1x ./internal/rule/
go test -run=NONE -fuzz='^FuzzParseMatchesReference$' -fuzztime=1x ./internal/prefix/
go test -run=NONE -fuzz='^FuzzPolicyInputString$' -fuzztime=1x ./internal/api/
go test -run=NONE -fuzz='^FuzzDecodeMatchesReference$' -fuzztime=1x ./internal/api/

# /v1/diff and /v1/impact validate a top-level policy token only when an
# answer needs it, and not at all when it hits the text alias; the
# differential serves each body to a primed server and to the eager
# walk's handler on a twin, and holds every status, code, message and
# body to the eager one's.
go test -run=NONE -fuzz='^FuzzDeferredDecodeMatchesEager$' -fuzztime=1x ./internal/api/

# A bare-string policy token is validated by bounding it (stringEnd) and
# unquoting the bounded token; the differential holds that pass to the
# walk's in-place unquoting: the same accept or reject, end offset and
# text, over every escape class, control bytes and invalid UTF-8 at
# every offset of an eight-byte word.
go test -run=NONE -fuzz='^FuzzScanMatchesUnquote$' -fuzztime=1x ./internal/api/

# The crosscompare, job status and diff bodies are written without
# encoding/json; the differential holds every writer to encoding/json of
# its reference struct, byte for byte, over random reports, names with
# HTML characters, U+2028 and invalid UTF-8, and job snapshots in every
# pair status.
go test -run=NONE -fuzz='^FuzzWireMatchesReference$' -fuzztime=1x ./internal/api/

# /v1/diff resolves a policy's source to its content address through the
# engine's text alias instead of parsing it; the differential holds every
# alias to what parse + PolicyHash give, over the frontend corpus,
# synthetic policies and their respellings, and holds sources that fail
# to parse or compile to the same answer on every repeat and no alias.
go test -run=NONE -fuzz='^FuzzTextAliasMatchesParse$' -fuzztime=1x ./internal/api/

# The corpus line of the api package's six targets above.
go test -count=1 -run '^(FuzzPolicyInputString|FuzzDecodeMatchesReference|FuzzDeferredDecodeMatchesEager|FuzzScanMatchesUnquote|FuzzWireMatchesReference|FuzzTextAliasMatchesParse)$' ./internal/api/

# /v1/impact reaches its before policy through the same alias, and the
# edit path hands the resume the prefix its script left in place; the
# alias and impact tests of the server and the engine rerun uncached
# under the race detector, since a cached "ok" says nothing about a
# lookup that concurrent requests share.
go test -race -count=1 -run 'Alias|Impact' ./internal/api/ ./internal/engine/

# Request bodies are read into pooled buffers and policy tokens stay
# views into them until the handler returns; the api tests overwrite
# every released buffer (TestMain), so a view that outlived its request
# reads garbage. The alias, decode and job tests rerun uncached under
# the race detector with that on, where concurrent requests share the
# pool.
go test -race -count=1 -run 'Alias|Decode|Respelled|Jobs' ./internal/api/

# Construction builds in a pointer-free node store (fdd.Store) and
# publishes each diagram by materializing it; the differential holds it
# to the Fig. 7 reference kept in the tests, over the adversarial family,
# perturbed real-life policies and the frontend corpus (the same
# diagram, no node the reference lacks, the same effective bits, and a
# Resume after random edits landing on scratch construction), and the
# resume fuzz target holds randomized edit sequences to scratch builds.
go test -count=1 -run '^(FuzzConstructMatchesReference|FuzzBuilderResume)$' ./internal/fdd/
go test -run=NONE -fuzz='^FuzzConstructMatchesReference$' -fuzztime=1x ./internal/fdd/
go test -run=NONE -fuzz='^FuzzBuilderResume$' -fuzztime=1x ./internal/fdd/

# Resolution Method 1 generates from the compiled diagram of the resolved
# semantics instead of shaping; the differential holds it to the paper's
# shaped, terminal-corrected diagram kept in the tests, byte for byte,
# over random real-life pairs, perturbation rates and decision mixes.
go test -count=1 -run '^(FuzzMethod1MatchesShaped)$' ./internal/resolve/
go test -run=NONE -fuzz='^FuzzMethod1MatchesShaped$' -fuzztime=1x ./internal/resolve/

# Query strings come from the network (/v1/query) and the command line
# (fwquery): the query parser's no-panic/round-trip target runs over its
# seeds on every gate too.
go test -count=1 -run '^(FuzzQueryParse)$' ./internal/query/
go test -run=NONE -fuzz='^FuzzQueryParse$' -fuzztime=1x ./internal/query/

# Pair and N-way discrepancy rows merge in one function; its
# differential holds it, with real and with colliding group keys, to
# the byte-key merge, the string-key pair merge and the N-way merge it
# replaced, all kept in the tests, over random row sets.
go test -count=1 -run '^(FuzzMergeRowsMatchesReference)$' ./internal/compare/
go test -run=NONE -fuzz='^FuzzMergeRowsMatchesReference$' -fuzztime=1x ./internal/compare/

# The journal replayer faces arbitrary bytes after a crash (torn tails,
# bit rot, garbage), so its seeds — the testdata/journal corruption
# fixtures among them — run through the never-panic/always-report
# property on every gate too.
go test -count=1 -run '^(FuzzJournalReplay)$' ./internal/jobs/
go test -run=NONE -fuzz=FuzzJournalReplay -fuzztime=1x ./internal/jobs/

# The coordinator owns its job table and calls the journal directly
# (lock order: a job's mutex, then the journal's, then its file lock),
# so the journal, retention-purge, Close and Run tests rerun uncached
# under the race detector: a lock taken out of order or a record
# appended after Close must fail here rather than hide behind a cached
# "ok". The batch flusher hands its written buffer back as the next
# batch's; TestJournalBatchAppendsRaceFlusher races appends against it.
go test -race -count=1 -run 'Journal|Retention|Close|Run' ./internal/jobs/

# The crash-restart test SIGKILLs a journaled server mid-job and
# asserts the restarted process resumes without recomputing or
# double-settling pairs. It reruns uncached under the race detector:
# it is the end-to-end proof of the durable store and a cached "ok"
# from a previous binary proves nothing about this one.
go test -race -count=1 -run 'TestCrashRestartResumesWithoutDuplicateSettles' ./cmd/fwserved/

# One builder family under concurrent use also reruns uncached under
# the race detector: Resumes grow the family store and publish new
# nodes through its id->node table under the family lock while direct
# diffs read the published nodes without it, so a published node that
# shared memory with what a build writes would show here and nowhere
# else.
go test -race -count=1 -run 'TestResumeFamilyRace' ./internal/compare/

# A builder cached trimmed keeps no checkpoints until its first Resume
# replays its policy to rebuild them; concurrent Resumes of one trimmed
# builder must replay it exactly once, and every read of its checkpoints
# must take the family lock, which this test proves under the race
# detector, uncached.
go test -race -count=1 -run 'TestTrimmedResumeRace' ./internal/fdd/

# A scratch compile and a resumed compile of one policy share one flight
# keyed by its content address; the coalescing test overlaps the two and
# reruns uncached under the race detector, since a second flight group
# or a racy join would show only when the two really meet.
go test -race -count=1 -run 'TestScratchAndResumedCompileShareOneFlight' ./internal/engine/

# The incremental-recompilation differential also reruns uncached under
# the race detector: hundreds of randomized policy/edit-script pairs
# asserting that resuming a checkpointed builder is graph-isomorphic to
# scratch construction — the correctness proof for the edits fast path.
go test -race -count=1 -run 'TestIncrementalDifferential' ./internal/impact/

# Performance gate: the pipeline must stay within each gated phase's
# envelope of the last committed snapshot, after rescaling the baseline
# by the machine-calibration ratio both snapshots record (this box's
# absolute timings drift by tens of percent between sessions on
# byte-identical workloads; BENCH_4 was the first calibrated snapshot).
# Each envelope is set from this box's measured same-binary noise at the
# scale the phases now run at (4 µs to 60 ms), relative to the baseline
# actually committed: 1.2 times the largest calibrated ratio to
# BENCH_16 seen over six back-to-back runs of one binary and the first
# check.sh gate run, rounded up to ten points (construct 1.33 -> 60%,
# compare 1.20 -> 50%, diff_direct 1.13 -> 40%, the microsecond edit
# tail 1.16 -> 40%, the 16-policy cross-compare 1.38 -> 70%; see the
# BENCH_16 note in EXPERIMENTS.md). The regressions the gate exists to
# catch (a resume path quietly rebuilding from scratch, a cache
# stopping to coalesce, a walk losing its memo) overshoot these
# envelopes by multiples.
# diff_direct is the product walk and its rows, which every served diff
# runs; impact_incremental_tail is gated so the edit-to-diff fast path
# cannot silently rot back toward from-scratch cost, and
# crosscompare_16x_sharded_4_workers so the async-job coordinator's
# scheduling and compile-cache coalescing cannot either. A phase over
# its envelope is re-measured twice and judged on its minimum.
# Skippable for doc-only loops (SKIP_BENCH_GATE=1) — CI always runs it.
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

if [ "${SKIP_BENCH_GATE:-}" != "1" ]; then
    go run ./cmd/fwbench -json -out "$tmpdir/bench" \
        -baseline results/BENCH_16.json -gate 30 \
        -gatephases construct:60,compare:50,diff_direct:40,impact_incremental_tail:40,crosscompare_16x_sharded_4_workers:70
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
        -baseline results/BENCH_16.json
    cp "$tmpdir/scen/provenance.json" results/provenance.json
fi
