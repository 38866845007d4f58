#!/usr/bin/env bash
# Byte-compares the CLI's scenario and campaign paths (`run`, `report`,
# `chaos`) against a checked-in golden: the stdout and exit status of each
# command, plus the sha256 of the telemetry exports `report` writes.
#
# usage: tests/cli_run_golden.sh <gpbft_cli> <scenarios dir> [golden.txt]
# Without a golden file the output is printed instead of compared, which is
# how the golden is recorded.
set -euo pipefail
CLI="$1"
SCENARIOS="$2"
GOLDEN="${3:-}"
WORK="$(mktemp -d)"
trap 'rm -rf "${WORK}"' EXIT

# One command: a header naming it, its stdout, then its exit status.
record() {
  echo "== $*"
  local status=0
  "${CLI}" "$@" 2>/dev/null || status=$?
  echo "exit=${status}"
}

emit() {
  local sc
  for sc in election_boundary_oscillation election_churn_long election_sybil_burst \
            election_targeted_crash tamper_storm telemetry_smoke; do
    record run --scenario "${SCENARIOS}/${sc}.scenario"
  done
  for sc in telemetry_smoke tamper_storm; do
    record report --scenario "${SCENARIOS}/${sc}.scenario" \
      --trace-out "${WORK}/trace.json" --metrics-out "${WORK}/metrics.jsonl"
    echo "trace sha256 $(sha256sum < "${WORK}/trace.json" | cut -d' ' -f1)"
    echo "metrics sha256 $(sha256sum < "${WORK}/metrics.jsonl" | cut -d' ' -f1)"
  done
  record chaos --seeds 1 --intensity light
  record chaos --seeds 1 --reject-safe
  record chaos --seeds 1 --attack-election --intensity light
  record chaos --seeds 1 --intensity medium --restarts 0.25 --disk-faults 0.2
  record chaos --seeds 1 --intensity none --tamper
}

# Headers name the scenario by its file name only, so the golden does not
# depend on where the source tree lives.
actual="$(emit | sed "s|${SCENARIOS}/||g; s|${WORK}/||g")"
if [[ -z "${GOLDEN}" ]]; then
  printf '%s\n' "${actual}"
  exit 0
fi
if ! cmp -s <(printf '%s\n' "${actual}") "${GOLDEN}"; then
  echo "cli_run_golden: output differs from ${GOLDEN}" >&2
  diff <(printf '%s\n' "${actual}") "${GOLDEN}" >&2 || true
  exit 1
fi
echo "cli_run_golden: OK"
