#!/usr/bin/env bash
# Fast CI gate: configure, build, run the tier-1 test label (everything
# except the long-running torture/chaos suites — those run in the full
# `ctest` sweep, see scripts/reproduce.sh) and smoke one bench harness on
# the coarse GPBFT_BENCH_QUICK grid so bench regressions surface before a
# full reproduction run.
#
# Knobs:
#   GPBFT_CI_BUILD_DIR=build   build directory (default build)
#   GPBFT_CI_JOBS=N            parallel ctest jobs (default nproc)
#   GPBFT_CI_SANITIZE=1        also run the ASan/UBSan and TSan legs
#                              (scripts/check_sanitizers.sh + check_tsan.sh,
#                              the latter racing the shared KeyRegistry
#                              caches; off by default — each configures and
#                              builds its own tree)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${GPBFT_CI_BUILD_DIR:-build}"
JOBS="${GPBFT_CI_JOBS:-$(nproc)}"

# No -G: reuse whatever generator an existing build directory was
# configured with (fresh checkouts get the platform default).
cmake -B "${BUILD_DIR}"
cmake --build "${BUILD_DIR}" -j "${JOBS}"

ctest --test-dir "${BUILD_DIR}" -L tier1 -j "${JOBS}" --output-on-failure

# Adversarial election gate. `-L tier1` above already matches the compound
# tier1-adversarial label; this leg re-selects it explicitly so a label
# regression (test renamed, label dropped) fails loudly instead of silently
# shrinking the fast gate. The four election-attack scenarios themselves run
# in the tier-1 `cli_run_golden` test, which checks their output bytes and
# exit status (the invariant monitor exits non-zero on any SYBIL-SEATED /
# COMMITTEE-QUALITY / ERA-CONVERGENCE violation, agreement break or
# liveness miss).
ctest --test-dir "${BUILD_DIR}" -L tier1-adversarial -j "${JOBS}" --output-on-failure

# Batched-pipeline gate (same label-regression rationale as above): the
# batch.size=1 golden-equivalence tests, the client-table replay tests and
# the million-device WorkloadPlane determinism tests (docs/protocol.md §11).
ctest --test-dir "${BUILD_DIR}" -L tier1-batch -j "${JOBS}" --output-on-failure

# Wire-tamper gate (docs/protocol.md §12). Label re-selection first (same
# rationale as the legs above), then the pinned MITM storm scenario run
# twice with telemetry exports: the run must finish with zero invariant
# violations AND byte-identical artifacts — the adversary draws from its
# own forked RNG stream, so a seeded storm replays exactly.
ctest --test-dir "${BUILD_DIR}" -L tier1-tamper -j "${JOBS}" --output-on-failure
TAMPER_DIR="${BUILD_DIR}/tamper-ci"
mkdir -p "${TAMPER_DIR}"
for run in 1 2; do
  "${BUILD_DIR}/tools/gpbft_cli" run --scenario scenarios/tamper_storm.scenario \
    --trace-out "${TAMPER_DIR}/trace.${run}.json" \
    --metrics-out "${TAMPER_DIR}/metrics.${run}.jsonl" >/dev/null
done
cmp "${TAMPER_DIR}/trace.1.json" "${TAMPER_DIR}/trace.2.json"
cmp "${TAMPER_DIR}/metrics.1.jsonl" "${TAMPER_DIR}/metrics.2.jsonl"

# Fuzz gate: replay the checked-in malformed corpus and run a seeded
# mutation sweep over every wire-decode target. Each target carries its own
# totality + re-encode fixed-point oracle, so a decoder defect aborts the
# driver; zero crashes is the pass condition. (The coverage-guided
# libFuzzer leg needs Clang — GPBFT_FUZZ=ON — and is not part of this gate.)
"${BUILD_DIR}/tools/gpbft_fuzz" replay fuzz/corpus
"${BUILD_DIR}/tools/gpbft_fuzz" mutate --seed 1 --iters 2000

# Telemetry gate: one seeded scenario exports a Perfetto trace and a
# metrics snapshot, twice; the artifacts must be schema-valid (when python3
# is available) and byte-identical across the two same-seed runs.
OBS_DIR="${BUILD_DIR}/telemetry-ci"
mkdir -p "${OBS_DIR}"
for run in 1 2; do
  "${BUILD_DIR}/tools/gpbft_cli" run --scenario scenarios/telemetry_smoke.scenario \
    --trace-out "${OBS_DIR}/trace.${run}.json" \
    --metrics-out "${OBS_DIR}/metrics.${run}.jsonl" >/dev/null
done
cmp "${OBS_DIR}/trace.1.json" "${OBS_DIR}/trace.2.json"
cmp "${OBS_DIR}/metrics.1.jsonl" "${OBS_DIR}/metrics.2.jsonl"
# Same determinism bar under attack: the Sybil-burst scenario's forked
# attack RNG streams, reputation strikes and quarantine decisions must all
# replay byte-identically from the same seed.
for run in 1 2; do
  "${BUILD_DIR}/tools/gpbft_cli" run --scenario scenarios/election_sybil_burst.scenario \
    --trace-out "${OBS_DIR}/attack-trace.${run}.json" \
    --metrics-out "${OBS_DIR}/attack-metrics.${run}.jsonl" >/dev/null
done
cmp "${OBS_DIR}/attack-trace.1.json" "${OBS_DIR}/attack-trace.2.json"
cmp "${OBS_DIR}/attack-metrics.1.jsonl" "${OBS_DIR}/attack-metrics.2.jsonl"
if command -v python3 >/dev/null 2>&1; then
  python3 scripts/check_trace.py "${OBS_DIR}/trace.1.json" "${OBS_DIR}/metrics.1.jsonl"
else
  echo "ci: python3 not found; skipping telemetry schema check"
fi

# Profiler gate (docs/observability.md "Profiling & perf analytics").
# Label re-selection first (same rationale as the legs above): the probe
# unit tests plus the guard test proving a profiled run's chain tip,
# metrics and trace are byte-identical to an unprofiled run. Then the
# end-to-end check: the same seeded scenario profiled twice must produce
# byte-identical telemetry AND profile exports that agree on every
# deterministic field (tree shape, site names, call counts — wall-clock
# ns are machine noise and excluded by check_trace.py --profile-same).
ctest --test-dir "${BUILD_DIR}" -L tier1-profile -j "${JOBS}" --output-on-failure
PROF_DIR="${BUILD_DIR}/profile-ci"
mkdir -p "${PROF_DIR}"
for run in 1 2; do
  "${BUILD_DIR}/tools/gpbft_cli" profile --scenario scenarios/profile_pbft20.scenario \
    --profile-out "${PROF_DIR}/profile.${run}.json" \
    --collapsed-out "${PROF_DIR}/collapsed.${run}.txt" \
    --trace-out "${PROF_DIR}/trace.${run}.json" \
    --metrics-out "${PROF_DIR}/metrics.${run}.jsonl" >/dev/null
done
cmp "${PROF_DIR}/trace.1.json" "${PROF_DIR}/trace.2.json"
cmp "${PROF_DIR}/metrics.1.jsonl" "${PROF_DIR}/metrics.2.jsonl"
if command -v python3 >/dev/null 2>&1; then
  python3 scripts/check_trace.py "${PROF_DIR}/trace.1.json" "${PROF_DIR}/metrics.1.jsonl" \
    --profile "${PROF_DIR}/profile.1.json" --profile "${PROF_DIR}/profile.2.json" \
    --profile-same "${PROF_DIR}/profile.1.json" "${PROF_DIR}/profile.2.json"
else
  echo "ci: python3 not found; skipping profile schema check"
fi

# One declarative-harness bench end to end: the Fig. 3(b) harness drives
# G-PBFT deployments through the ScenarioSpec factory on the coarse grid,
# single run per point (~7 s).
GPBFT_BENCH_QUICK=1 GPBFT_BENCH_RUNS=1 "${BUILD_DIR}/bench/fig3b_gpbft_latency"

# Perf smoke + regression gate: the message-plane scaling harness at its
# smallest point (n=20, both protocols, ~1 s). The harness itself exits
# nonzero if a seeded run's chain tip drifts from its golden hash; on top
# of that, the fresh events/sec rows are appended (under an ephemeral
# "ci-smoke" label, to a COPY of the checked-in history — the repo file
# only gains rows deliberately, via GPBFT_BENCH_SCALE_LABEL) and
# bench_report.py gates the trajectory: a drop beyond GPBFT_PERF_MAX_DROP
# (default 60% — generous, CI machines differ) vs the last recorded label
# fails the build. The self-test leg proves the gate actually trips on an
# injected slowdown, so a silently-broken gate cannot pass. See
# docs/performance.md.
PERF_DIR="${BUILD_DIR}/perf-ci"
mkdir -p "${PERF_DIR}"
cp BENCH_scale.json "${PERF_DIR}/history.jsonl"
GPBFT_BENCH_SCALE_JSON="${PERF_DIR}/history.jsonl" \
  GPBFT_BENCH_SCALE_LABEL=ci-smoke \
  "${BUILD_DIR}/bench/bench_scale" --smoke
if command -v python3 >/dev/null 2>&1; then
  python3 scripts/bench_report.py self-test
  python3 scripts/bench_report.py gate --json "${PERF_DIR}/history.jsonl" \
    --current-label ci-smoke
else
  echo "ci: python3 not found; skipping perf-regression gate"
fi

# Million-device plane smoke: a 10^6-virtual-device diurnal workload over
# O(regions) concrete endpoints, run twice from the same seed. Gates on
# byte-identical tips, open-loop completeness (every submission commits)
# and the wall budget (GPBFT_PLANE_BUDGET_SECS, default 120 s per run).
"${BUILD_DIR}/bench/bench_scale" --plane

# Opt-in sanitizer legs: a full ASan/UBSan build + test sweep, then a TSan
# build running the crypto tests that share one KeyRegistry across threads
# (the two sanitizers cannot share one binary, so each gets its own build
# directory). Kept off the default path
# so the fast gate stays fast.
if [[ "${GPBFT_CI_SANITIZE:-0}" == "1" ]]; then
  scripts/check_sanitizers.sh
  scripts/check_tsan.sh
fi

echo "ci: OK"
