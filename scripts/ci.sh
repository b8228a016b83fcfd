#!/usr/bin/env bash
# CI pipeline: tier-1 (plain Release, full suite), then ThreadSanitizer and
# AddressSanitizer+UBSan jobs over the runtime/chaos/algo/check-labelled
# tests (the algo label covers the cross-backend engine-parity suite and
# the DES and virtual-time engine suites, the check label the
# model-checker suite, the net label the socket backend's wire-format
# fuzz + cross-engine parity + fault-path suite), then static analysis.
#
#   scripts/ci.sh            # everything
#   scripts/ci.sh tier1      # just the plain build + full ctest
#   scripts/ci.sh tsan       # just the TSan job
#   scripts/ci.sh asan       # just the ASan+UBSan job
#   scripts/ci.sh ubsan      # UBSan-only build (plus float-divide-by-zero,
#                            # which the combined Asan type doesn't enable)
#                            # over the algo/net/check labels
#   scripts/ci.sh lint       # aiac_lint (project invariants) + clang-tidy
#                            # over compile_commands.json, or a -Werror
#                            # build when clang-tidy is unavailable
#   scripts/ci.sh perfbench-smoke  # traced sim-fig5 run of the end-to-end
#                                  # benchmark; fails if any solve misses
#                                  # the sequential reference
#   scripts/ci.sh bench-smoke  # quick kernel bench vs the checked-in
#                              # BENCH_kernels.json baseline; fails on
#                              # allocation-count or speedup regressions
#                              # (>25%), and on raw-ns regressions when
#                              # AIAC_BENCH_STRICT_NS=1
#
# The sanitizer jobs run a reduced chaos sweep (AIAC_CHAOS_SEEDS): the
# instrumented builds are ~10x slower and the 200-seed property sweep
# already runs at full strength in tier-1.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc)
stage="${1:-all}"

tier1() {
  echo "==> tier-1: Release build + full test suite"
  cmake -B build -S . >/dev/null
  cmake --build build -j"$jobs"
  ctest --test-dir build --output-on-failure -j"$jobs"
}

tsan() {
  echo "==> TSan: runtime + chaos labelled tests"
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=Tsan >/dev/null
  cmake --build build-tsan -j"$jobs"
  # The net label is deliberately absent here: its tests fork worker
  # processes, and TSan's runtime does not support instrumenting across
  # fork+exec-less multiprocess trees (the child inherits a poisoned
  # shadow). The net workers' intra-process threading is the same code
  # TSan already covers via the runtime/algo labels; the cross-process
  # paths get ASan+UBSan below instead.
  AIAC_CHAOS_SEEDS="${AIAC_CHAOS_SEEDS:-25}" \
  AIAC_CHECK_SCHEDULES="${AIAC_CHECK_SCHEDULES:-200}" \
  TSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir build-tsan -L 'chaos|runtime|algo|check|pool' \
      --output-on-failure
}

asan() {
  echo "==> ASan+UBSan: runtime + chaos + net labelled tests"
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Asan >/dev/null
  cmake --build build-asan -j"$jobs"
  AIAC_CHAOS_SEEDS="${AIAC_CHAOS_SEEDS:-25}" \
  AIAC_CHECK_SCHEDULES="${AIAC_CHECK_SCHEDULES:-200}" \
  ASAN_OPTIONS="detect_leaks=1" UBSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir build-asan -L 'chaos|runtime|algo|check|net|pool' \
      --output-on-failure
}

ubsan() {
  echo "==> UBSan: algo + net + check labelled tests"
  # Separate from the Asan job: AIAC_UBSAN adds float-divide-by-zero
  # (not part of -fsanitize=undefined) and -fno-sanitize-recover=all, so
  # the numeric kernels abort on the first zero divisor instead of
  # propagating inf through a convergence test.
  cmake -B build-ubsan -S . -DAIAC_UBSAN=ON >/dev/null
  cmake --build build-ubsan -j"$jobs"
  AIAC_CHECK_SCHEDULES="${AIAC_CHECK_SCHEDULES:-200}" \
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
    ctest --test-dir build-ubsan -L 'algo|net|check|pool' --output-on-failure
}

lint() {
  echo "==> lint: static analysis"
  cmake -B build -S . >/dev/null   # exports compile_commands.json (clang-tidy)
  echo "==> lint: aiac_lint (hot-path / lock / wire invariants)"
  cmake --build build -j"$jobs" --target aiac_lint
  ./build/tools/aiac_lint --root=.
  local tidy=""
  for candidate in clang-tidy clang-tidy-18 clang-tidy-17 clang-tidy-16 \
                   clang-tidy-15 clang-tidy-14; do
    if command -v "$candidate" >/dev/null 2>&1; then
      tidy="$candidate"
      break
    fi
  done
  if [ -n "$tidy" ]; then
    echo "==> lint: $tidy over src/ and tools/"
    # shellcheck disable=SC2046
    "$tidy" -p build --quiet \
      $(find src tools -name '*.cpp' ! -path '*/build/*')
  else
    echo "==> lint: clang-tidy not found; falling back to -Werror build"
    cmake -B build-lint -S . -DAIAC_WERROR=ON >/dev/null
    cmake --build build-lint -j"$jobs"
  fi
  echo "==> lint: clean"
}

perfbench_smoke() {
  echo "==> perfbench-smoke: traced sim-fig5 run, every solve checked"
  # --trace 1 alternates untraced solves, which run the fused scalar row
  # kernel, with solves wrapped in the benchmark's forwarding OdeSystem
  # probe, which run the per-component default path. Every solve is
  # checked against the sequential reference; run.py exits non-zero on
  # any failure.
  python3 perfbench/run.py --workload sim-fig5 --seed 1 --seconds 3 --trace 1
}

bench_smoke() {
  echo "==> bench-smoke: quick kernel bench vs checked-in baseline"
  # Delegates to scripts/bench.sh --check --quick. Hardware-normalized
  # metrics (allocs/step, speedup ratios) always gate; raw nanoseconds
  # only gate when the runner class matches the baseline machine, so CI
  # defaults AIAC_BENCH_STRICT_NS off here — export AIAC_BENCH_STRICT_NS=1
  # on runners of the baseline machine class (bench.sh --check outside CI
  # defaults it on for same-machine before/after comparisons).
  AIAC_BENCH_STRICT_NS="${AIAC_BENCH_STRICT_NS-0}" \
    scripts/bench.sh --check --quick --only=kernels
}

bench_comms() {
  echo "==> bench-comms: quick comms bench vs checked-in baseline"
  # Gates the deterministic wire metrics on every runner: bytes per
  # encoded frame (any growth is a protocol change) and the fig5
  # bytes-on-wire reduction of delta encoding, which must stay >= 3x.
  # Codec/loopback nanoseconds follow the same AIAC_BENCH_STRICT_NS rule
  # as bench-smoke.
  AIAC_BENCH_STRICT_NS="${AIAC_BENCH_STRICT_NS-0}" \
    scripts/bench.sh --check --quick --only=comms
}

case "$stage" in
  tier1) tier1 ;;
  tsan) tsan ;;
  asan) asan ;;
  ubsan) ubsan ;;
  lint) lint ;;
  perfbench-smoke) perfbench_smoke ;;
  bench-smoke) bench_smoke ;;
  bench-comms) bench_comms ;;
  all) tier1; tsan; asan; ubsan; lint; perfbench_smoke; bench_smoke; bench_comms ;;
  *) echo "unknown stage: $stage (tier1|tsan|asan|ubsan|lint|perfbench-smoke|bench-smoke|bench-comms|all)" >&2
     exit 2 ;;
esac
echo "==> ci: all requested stages green"
