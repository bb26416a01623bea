#!/usr/bin/env bash
# Tier-1 verification: lint, Release, Debug+ASan/UBSan, TSan, a format
# check, and the repo benchmark's exactness and work/speed gate.
#
#   ./ci.sh            run everything
#   ./ci.sh lint       iflint source rules + binary hot-path allocation
#                      proof (ctest -L lint; see tools/iflint/)
#   ./ci.sh release    Release build + full ctest suite
#   ./ci.sh asan       Debug ASan/UBSan build + unit + stress suites
#   ./ci.sh tsan       TSan build + sweep/fuzz suites. GATED: a data
#                      race fails CI; skipped only when the compiler
#                      lacks -fsanitize=thread. Known-benign races go
#                      in tsan.supp with a justification.
#   ./ci.sh tidy       clang-tidy over src/ with the tree's .clang-tidy
#                      (skipped when clang-tidy is not installed)
#   ./ci.sh format     clang-format check (skipped when not installed)
#   ./ci.sh faults     fault-injection suite under ASan/UBSan: the
#                      fault matrix, the planted-deadlock/watchdog
#                      fixtures, and an env-knob smoke run (retries
#                      under drops must still finish the quickstart)
#   ./ci.sh bench      repo benchmark (perfbench/run.py) for 1 s on each
#                      of its three workloads at seeds 1 and 2, failing
#                      unless every run reports "correct": seed 1 points
#                      must match perfbench/expected.json (the exact
#                      modelled digests) and run with --trace 1, so
#                      traced passes must equal untraced ones; held-out
#                      seed 2 points must repeat exactly and match
#                      runExperiment. Each seed-1 line then goes through
#                      tools/perfgate.py against BENCH_perfgate.json:
#                      the core-tick, fast-forward, shard-skip and event
#                      counts must be exact, and probe-scaled
#                      harness.run_s may not fall below 0.75x the
#                      committed speed
set -euo pipefail
cd "$(dirname "$0")"

JOBS=$(nproc 2>/dev/null || echo 4)
STAGE="${1:-all}"

run_lint() {
    echo "== iflint: source rules + hot-path allocation proof =="
    cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
    # The pass-2 proof objects (invisifence_lint, fixture objects) are
    # compiled at a pinned -O2 -DNDEBUG by tools/iflint/CMakeLists.txt,
    # so the lint verdict is identical in every build type.
    cmake --build build-release -j "$JOBS" --target \
        iflint iflint_test invisifence_lint iflint_fixture_hot_bad \
        iflint_fixture_hot_good iflint_fixture_hot_cold_cut
    ctest --test-dir build-release --output-on-failure -j "$JOBS" -L lint
}

run_release() {
    echo "== Release build + full test pyramid =="
    cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
    cmake --build build-release -j "$JOBS"
    ctest --test-dir build-release --output-on-failure -j "$JOBS"
}

run_asan() {
    echo "== Debug + ASan/UBSan build + unit and stress suites =="
    cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug \
        -DINVISIFENCE_SANITIZE=ON
    cmake --build build-asan -j "$JOBS"
    # Unit tier (the bench/example smoke tests re-run identical code
    # paths and triple CI time under sanitizers), then the stress tier:
    # the full-size litmus fuzzer and the heavy 8-worker sweep
    # equivalence run, where sanitizers watch the sharded path. Debug
    # builds also diff the flat directory against its map oracle and
    # every MSHR index lookup against a slot scan.
    ctest --test-dir build-asan --output-on-failure -j "$JOBS" -L unit
    ctest --test-dir build-asan --output-on-failure -j "$JOBS" -L stress
    # Fast-forward equivalence: with the event-driven scheduler forced
    # OFF, the committed golden figures must still be byte-identical and
    # the on/off equivalence suite must pass under sanitizers.
    INVISIFENCE_FASTFWD=0 ctest --test-dir build-asan \
        --output-on-failure -R '(golden_figures_test|fastforward_test)'
}

run_faults() {
    echo "== Fault-injection suite under ASan/UBSan =="
    cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug \
        -DINVISIFENCE_SANITIZE=ON
    cmake --build build-asan -j "$JOBS" --target fault_test \
        fault_deadlock_fixture alloc_steadystate_test fig09_breakdown
    # The fault matrix, recovery paths, watchdog death test, and both
    # planted-wedge WILL_FAIL fixtures; then the same suite with the
    # event-driven scheduler forced off (fault runs must stay
    # bit-identical across scheduler modes, so both must pass).
    ctest --test-dir build-asan --output-on-failure \
        -R '(fault_test|fault_deadlock_watchdog|fault_max_cycles_budget)'
    INVISIFENCE_FASTFWD=0 ctest --test-dir build-asan \
        --output-on-failure -R fault_test
    # Env-knob plumbing end to end: a figure bench with drop/delay/dup
    # rates injected from the environment (retries auto-arm) must still
    # run to completion at a small budget.
    INVISIFENCE_BENCH_CYCLES=6000 INVISIFENCE_FAULT_SEED=7 \
        INVISIFENCE_FAULT_DROP=800 INVISIFENCE_FAULT_DELAY=2000 \
        INVISIFENCE_FAULT_DUP=800 INVISIFENCE_WATCHDOG=400000 \
        ./build-asan/bench/fig09_breakdown
}

run_tsan() {
    echo "== ThreadSanitizer build + sweep/fuzz suites (gated) =="
    # Probe the same compiler CMake will use, or the probe can disagree
    # with the build. Lacking TSan support is the ONLY skip condition;
    # when the build runs, any unsuppressed race report fails CI.
    local cxx="${CXX:-c++}"
    if ! echo 'int main(){}' | "$cxx" -fsanitize=thread -x c++ - \
            -o /tmp/tsan_probe 2>/dev/null; then
        echo "compiler lacks -fsanitize=thread; skipping tsan stage"
        return 0
    fi
    rm -f /tmp/tsan_probe
    cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=Debug \
        -DCMAKE_CXX_COMPILER="$cxx" \
        -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
        -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
    cmake --build build-tsan -j "$JOBS" --target sweep_test \
        fuzz_litmus_test
    # Suppressions live in tsan.supp (each entry must carry a comment
    # explaining why the race is benign); halt_on_error makes the first
    # unsuppressed report fatal instead of a warning that exits 0.
    TSAN_OPTIONS="suppressions=$PWD/tsan.supp halt_on_error=1" \
        ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
        -R '(sweep_test|stress_sweep|fuzz_litmus_test)'
}

run_tidy() {
    echo "== clang-tidy (config: .clang-tidy) =="
    if ! command -v clang-tidy >/dev/null 2>&1; then
        echo "clang-tidy not installed; skipping tidy stage"
        return 0
    fi
    cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release \
        -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
    local files
    files=$(git ls-files 'src/*.cc')
    # shellcheck disable=SC2086
    clang-tidy -p build-release --warnings-as-errors='*' $files
}

run_bench() {
    echo "== Repo benchmark: every workload at the default and a held-out seed =="
    # run.py builds its own Release tree under .bench_build/ and prints
    # one JSON object as its last line. "correct" is false when a point
    # run's modelled results differ from expected.json (seed 1), or, on
    # any other seed, differ between repeats or from runExperiment.
    # Seed 1 runs traced: its per-layer line feeds the work/speed gate,
    # which reports every workload before the stage fails.
    local workload seed last gate_failed=0
    for seed in 1 2; do
        for workload in apache16-spec oltp16-paper-conv zipfkv64-contended; do
            last=$(python3 perfbench/run.py --workload "$workload" \
                --seed "$seed" --seconds 1 --trace $((seed == 1)) \
                | tail -n 1)
            echo "$workload seed $seed: ${last:0:80}"
            if ! python3 -c 'import json, sys
sys.exit(0 if json.loads(sys.argv[1]).get("correct") is True else 1)' \
                    "$last"; then
                echo "perfbench: $workload seed $seed is not correct" >&2
                return 1
            fi
            if [ "$seed" = 1 ] &&
                    ! python3 tools/perfgate.py "$workload" <<<"$last"; then
                gate_failed=1
            fi
        done
    done
    return "$gate_failed"
}

run_format() {
    echo "== clang-format check =="
    if ! command -v clang-format >/dev/null 2>&1; then
        echo "clang-format not installed; skipping format check"
        return 0
    fi
    local files
    files=$(git ls-files '*.cc' '*.hh' '*.cpp' '*.h')
    # shellcheck disable=SC2086
    if ! clang-format --dry-run --Werror $files; then
        echo "format check failed; run: clang-format -i <files>"
        return 1
    fi
}

case "$STAGE" in
  lint)      run_lint ;;
  release)   run_release ;;
  asan)      run_asan ;;
  faults)    run_faults ;;
  tsan)      run_tsan ;;
  tidy)      run_tidy ;;
  format)    run_format ;;
  bench)     run_bench ;;
  all)       run_format; run_tidy; run_lint; run_release; run_asan
             run_faults; run_tsan; run_bench ;;
  *) echo "usage: $0 [all|lint|release|asan|faults|tsan|tidy|format|bench]" >&2
     exit 2 ;;
esac
echo "ci.sh: $STAGE OK"
