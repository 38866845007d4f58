#!/usr/bin/env bash
# Byte-compares the CLI experiment paths (`latency`, `cost`, `sweep`) against
# a checked-in golden, and checks that out-of-range flag values, and flags
# the chosen command does not read, are refused with exit status 2 before
# anything runs.
#
# usage: tests/cli_golden.sh <gpbft_cli> <golden.csv>
set -euo pipefail
CLI="$1"
GOLDEN="$2"

actual="$({
  "${CLI}" latency --protocol dbft --nodes 7 --txs 2 --csv
  "${CLI}" cost --protocol gpbft --nodes 8,16 --csv
  "${CLI}" sweep --protocol pbft --nodes 4,7 --runs 2 --txs 2 --csv
  "${CLI}" latency --protocol pow --nodes 5 --txs 1 --csv
})"
if ! cmp -s <(printf '%s\n' "${actual}") "${GOLDEN}"; then
  echo "cli_golden: output differs from ${GOLDEN}" >&2
  diff <(printf '%s\n' "${actual}") "${GOLDEN}" >&2 || true
  exit 1
fi

for bad in "--rate 0" "--rate -5" "--rate nan" "--txs abc" "--txs 2x" "--max-committee 0" \
           "--nodes 4,x" "--period inf"; do
  status=0
  # shellcheck disable=SC2086 # the flag and its value split on purpose
  "${CLI}" latency --protocol gpbft --nodes 6 ${bad} >/dev/null 2>&1 || status=$?
  if [[ "${status}" -ne 2 ]]; then
    echo "cli_golden: 'latency ${bad}' exited ${status}, expected 2" >&2
    exit 1
  fi
done

# A flag the chosen command never reads is refused the same way, as is a
# chaos chance outside [0, 1].
SCENARIO="$(dirname "$0")/../scenarios/telemetry_smoke.scenario"
for bad in "run --scenario ${SCENARIO} --txs 1" "chaos --seeds 1 --rate 5" \
           "chaos --seeds 1 --period 1" "chaos --seeds 1 --batch 2" \
           "chaos --seeds 1 --era-period 3" "chaos --seeds 1 --nodes 4,10" \
           "latency --nodes 6 --restarts 0.5" "latency --nodes 6 --tamper" \
           "latency --nodes 6 --seeds 3" "chaos --seeds 1 --restarts 2" \
           "chaos --seeds 1 --tamper-chance nan"; do
  status=0
  # shellcheck disable=SC2086
  "${CLI}" ${bad} >/dev/null 2>&1 || status=$?
  if [[ "${status}" -ne 2 ]]; then
    echo "cli_golden: '${bad}' exited ${status}, expected 2" >&2
    exit 1
  fi
done
echo "cli_golden: OK"
