#!/usr/bin/env bash
# Builds the tree with ThreadSanitizer (-DGPBFT_SANITIZE=thread) in a
# separate build directory and runs the crypto tests that hammer one shared
# KeyRegistry's identity/session caches (and the HmacKey contexts they
# hold) from several threads. Any data race aborts the run, so a green exit
# means the registry's locks are race-clean.
#
# Kept separate from check_sanitizers.sh because TSan and ASan cannot be
# combined in one binary; each gets its own tree.
#
# Knobs:
#   GPBFT_TSAN_BUILD_DIR=build-tsan   build directory (default build-tsan)
#   GPBFT_TSAN_JOBS=N                 parallel ctest jobs (default nproc)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${GPBFT_TSAN_BUILD_DIR:-build-tsan}"
JOBS="${GPBFT_TSAN_JOBS:-$(nproc)}"

cmake -B "${BUILD_DIR}" -G Ninja -DGPBFT_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${BUILD_DIR}"

TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
ctest --test-dir "${BUILD_DIR}" -R "Authenticator|HmacKey|Seal\." \
  --output-on-failure -j "${JOBS}"
