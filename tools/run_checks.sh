#!/usr/bin/env bash
# The repository's static-analysis gate, runnable locally or in CI:
#
#   1. clang-tidy over src/, tools/, bench/ and tests/ (skipped with a
#      notice when clang-tidy is not installed unless --require-tidy is
#      given — the config is .clang-tidy at the repo root);
#   2. detlint, the source-level determinism linter (tools/detlint_cli):
#      first a self-test — the bad-source fixture tree under
#      tests/fixtures/detlint/ must FAIL the gate — then a sweep of
#      src/ tools/ bench/ against the checked-in .detlint-baseline,
#      which must come back clean (see docs/ANALYSIS.md, "Static tier");
#   3. an ASan+UBSan+Werror build flavor (PARBOUNDS_ASAN/UBSAN/WERROR);
#   4. the full ctest suite under the sanitizers;
#   5. the `analysis`-labelled subset (parlint + detlint rules and the
#      CLI smokes) repeated on its own so a lint regression is named in
#      the output even when something else also broke;
#   6. the `obs`-labelled subset (observability layer + parprof_cli
#      smoke) on its own, plus a parprof_cli run over a freshly
#      exported demo trace;
#   7. a TSan build flavor (PARBOUNDS_TSAN, exclusive with ASan) running
#      the `runtime`, `obs`, `intra`, `service` and `fleet` labelled
#      subsets — the ExperimentRunner determinism suite is the
#      data-race proof for the trial-parallel path, the obs suite
#      exercises the concurrent metric shards and span buffers, the
#      intra suite drives the sharded phase commit and parallel BoolFn
#      transforms at pool sizes 1/2/8, and the fleet coordinator
#      promises a single-threaded poll loop, so all must pass under
#      ThreadSanitizer;
#   8. bench_hotpath and bench_obs_overhead smoke runs (--jobs 2
#      --json) from an optimized, sanitizer-free build — they
#      self-verify the hot paths against replicas of the uninstrumented
#      implementations and enforce conservative floors (speedups for
#      bench_hotpath, a <=1.05x detached-hook ceiling for
#      bench_obs_overhead; see docs/PERF.md and docs/OBSERVABILITY.md).
#      Perf under a sanitizer is meaningless, hence the separate
#      Release build dir;
#   9. the SIMD dispatch stage: the BoolFn suite re-run under every
#      PARBOUNDS_SIMD pin the host supports (unsupported tiers and
#      unknown names must die with the typed startup error), with the
#      kernel dispatch-equivalence oracle — identical digests at every
#      level x pool size — enforced inside the bench_hotpath smoke.
#      Speedup floors scale with the host: >=4 cores gates the 8-thread
#      shard sweep at 1.5x, smaller boxes gate only pathological
#      slowdowns, and the SIMD floor is skipped on portable-only cpus;
#  10. the sweep-service stage (docs/SERVICE.md): the `service`-labelled
#      subset (result cache + protocol fuzz + daemon core), then an
#      end-to-end smoke — parbounds_serve on a temp Unix socket, a
#      3-cell sweep sent twice, the second pass required to be 100%
#      cache hits (checked via the metrics snapshot) with costs
#      byte-identical to the first. The TSan flavor also runs the
#      service subset: the dispatcher thread, admission queue and cache
#      are concurrent;
#  11. the sweep-fleet stage (docs/SERVICE.md#fleet): the
#      `fleet`-labelled subset — the multi-process gtest suite (static
#      partition, frame reassembly, snapshot wire, SIGKILL/hang
#      recovery) plus the parbounds_serve daemon smokes that compare
#      --workers {1,2,4} response bytes against the in-process backend
#      and force a worker crash mid-sweep with the retry counters
#      checked on stderr;
#  12. the fleet data-plane stage (docs/SERVICE.md#fleet-wire): a
#      parbounds_serve --stdio sweep answered by a --workers 2 fleet
#      and by the in-process runner, each on its own cold cache, with
#      the response bytes cmp'd (the execution backend must never leak
#      into a result), and the bench_fleet_throughput smoke —
#      credit-window pipelining
#      vs lock-step with an in-process identity oracle on every
#      configuration and a pipeline_speedup floor that scales with the
#      host (>=4 cores gates at 1.5x; 1-core CI boxes gate at 1.0 and
#      lean on the oracle; see docs/PERF.md, "Fleet throughput").
#  13. the determinism stage (full mode only): Release bench reports
#      must be byte-identical under a plain cmp, metrics block included
#      — bench_table4_rounds twice at --jobs 2 and once at --jobs 1,
#      bench_mapping at --jobs 1 and at --jobs 4, and Tables 1-3
#      (bench_table{1,2,3}_*) at --jobs 1, --jobs 4 and --workers 4.
#      Every run must also write its .ops.json with a host block. A
#      compared report with no cells fails the stage: two empty reports
#      are trivially identical. Table 1 and Table 4 run phases above
#      the 2^16-request shard threshold.
#
# Usage: tools/run_checks.sh [--quick] [--require-tidy] [build-dir]
#
#   --quick         plain (sanitizer-free) build + full ctest + the
#                   analysis, runtime, obs, intra, service and fleet
#                   subsets +
#                   detlint + the service, parprof_cli and bench smokes;
#                   skips both sanitizer rebuilds and (unless
#                   --require-tidy) the tidy pass. The inner-loop
#                   command while iterating.
#   --require-tidy  make a missing clang-tidy a hard failure instead of
#                   a skip, and run the tidy pass even in quick mode —
#                   CI passes this so the gate cannot silently degrade.
#
# Default build dir: build-checks (quick mode: build-quick), so neither
# mode clobbers the other's cache.

set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
REQUIRE_TIDY=0
BUILD_DIR=""
for arg in "$@"; do
  case "${arg}" in
    --quick) QUICK=1 ;;
    --require-tidy) REQUIRE_TIDY=1 ;;
    -*)
      echo "usage: tools/run_checks.sh [--quick] [--require-tidy] [build-dir]" >&2
      exit 1
      ;;
    *) BUILD_DIR="${arg}" ;;
  esac
done

JOBS="$(nproc 2>/dev/null || echo 4)"

# Shard-speedup floor: real parallel speedup needs real cores. On a
# >=4-core host the 8-thread sweep must beat 1 thread by 1.5x; on
# smaller (CI) boxes the in-binary equivalence oracle stays the
# correctness gate and the floor only catches pathological slowdowns
# (the 8-thread sweep runs oversubscribed there).
if [[ "${JOBS}" -ge 4 ]]; then
  MIN_SHARD=1.5
else
  MIN_SHARD=0.25
fi

# Pipeline-speedup floor (bench_fleet_throughput): opening the credit
# window from 1 to 8 must pay for itself when there are real cores for
# the worker processes. On 1-core CI boxes everything is oversubscribed
# and the in-binary identity oracle stays the correctness gate, so the
# floor only demands "no slower than lock-step".
if [[ "${JOBS}" -ge 4 ]]; then
  MIN_PIPELINE=1.5
else
  MIN_PIPELINE=1.0
fi

# SIMD-speedup floor: bench_hotpath skips it by itself on hosts whose
# best dispatch tier is portable, so the floor can always be passed.
# Conservative next to the measured ~2x/4x (docs/PERF.md): the gate
# catches a dispatch seam that silently stopped selecting SIMD, not a
# slightly slower machine.
MIN_SIMD=1.2

# clang-tidy over every first-party C++ tree (fixtures are deliberately
# bad sources and stay out). $1 is the build dir holding
# compile_commands.json. Headers are covered via HeaderFilterRegex in
# .clang-tidy.
run_clang_tidy() {
  if command -v clang-tidy >/dev/null 2>&1; then
    echo "==> clang-tidy over src/ tools/ bench/ tests/"
    clang-tidy --version | sed 's/^/    /'
    find src tools bench tests -name '*.cpp' \
      -not -path 'tests/fixtures/*' -print0 |
      xargs -0 -P "${JOBS}" -n 8 clang-tidy -p "$1" --quiet
  elif [[ "${REQUIRE_TIDY}" == 1 ]]; then
    echo "==> clang-tidy not found but --require-tidy was given" >&2
    exit 1
  else
    echo "==> clang-tidy not found; skipping the tidy pass"
  fi
}

# detlint: self-test first (the fixture tree is bad by construction, so
# a clean result means the linter itself broke), then the real sweep —
# zero unsuppressed findings, with the checked-in baseline applied.
run_detlint() {
  local cli="$1/tools/detlint_cli"
  echo "==> detlint self-test (fixture tree must fail the gate)"
  local rc=0
  "${cli}" --no-baseline --root tests/fixtures/detlint . >/dev/null || rc=$?
  if [[ "${rc}" -ne 2 ]]; then
    echo "detlint self-test failed: expected exit 2 on the fixture tree, got ${rc}" >&2
    exit 1
  fi
  echo "==> detlint sweep over src/ tools/ bench/"
  "${cli}" --root . src tools bench
}

# SIMD dispatch stage. $1 is a build dir with the test binaries. The
# PARBOUNDS_SIMD pin must work end to end: the BoolFn suite passes under
# every pin the host supports, a pin the cpu cannot run fails fast with
# the typed startup error, and an unknown pin is rejected with a
# did-you-mean hint. (The dispatch-equivalence oracle itself — identical
# kernel digests at every level x pool size — runs inside the
# bench_hotpath smoke below.)
run_simd_stage() {
  local tests="$1/tests/parbounds_tests"
  echo "==> simd: BoolFn suite under every PARBOUNDS_SIMD pin"
  # The dispatch level resolves lazily on first kernel use, so every
  # probe runs the full BoolFn suite (it exercises the word kernels);
  # a single narrow test could pass without ever reading the pin.
  local level out="${1}/simd_stage.log"
  for level in portable avx2 avx512; do
    if PARBOUNDS_SIMD="${level}" "${tests}" --gtest_filter='BoolFn.*' \
        >"${out}" 2>&1; then
      echo "    PARBOUNDS_SIMD=${level}: BoolFn suite ok"
    elif grep -q "cannot run the ${level} tier" "${out}"; then
      echo "    PARBOUNDS_SIMD=${level}: unsupported here, rejected cleanly"
    else
      echo "PARBOUNDS_SIMD=${level}: BoolFn suite failed for a reason other" \
        "than an unsupported tier" >&2
      tail -n 20 "${out}" >&2
      exit 1
    fi
  done
  echo "==> simd: unknown pin must die with a did-you-mean hint"
  # Capture to a file rather than piping into grep -q: under pipefail,
  # grep -q closing the pipe early SIGPIPEs the test binary and the
  # pipeline reports failure even when the hint was printed.
  if PARBOUNDS_SIMD=avx51 "${tests}" --gtest_filter='BoolFn.*' \
      >"${out}" 2>&1; then
    echo "an unknown PARBOUNDS_SIMD pin was accepted (suite passed)" >&2
    exit 1
  fi
  if grep -q "did you mean 'avx512'" "${out}"; then
    echo "    PARBOUNDS_SIMD=avx51: rejected with a hint"
  else
    echo "an unknown PARBOUNDS_SIMD pin was not rejected with a hint" >&2
    tail -n 20 "${out}" >&2
    exit 1
  fi
}

# Sweep-service end-to-end smoke (docs/SERVICE.md). $1 is the build dir
# holding tools/parbounds_serve. A daemon listens on a temp socket; the
# same 3-cell sweep is sent twice through the lock-step client. Pass two
# must answer entirely from the result cache — identical costs, every
# response cached, and the daemon's metrics snapshot showing exactly 3
# hits — before a shutdown op stops the daemon cleanly.
run_service_smoke() {
  local serve="$1/tools/parbounds_serve"
  echo "==> sweep-service smoke (daemon on a temp socket, warm replay)"
  local dir
  dir="$(mktemp -d)"
  local sock="${dir}/serve.sock"
  "${serve}" --socket "${sock}" --cache-dir "${dir}/cache" &
  local daemon=$!
  for _ in $(seq 1 100); do
    [[ -S "${sock}" ]] && break
    sleep 0.1
  done
  if [[ ! -S "${sock}" ]]; then
    echo "parbounds_serve never opened ${sock}" >&2
    kill "${daemon}" 2>/dev/null || true
    exit 1
  fi

  local sweep
  sweep="$(cat <<'EOF'
{"id":1,"op":"run","engine":"qsm","workload":"parity_circuit","params":{"n":64,"g":2},"seed":1}
{"id":2,"op":"run","engine":"qsm","workload":"parity_circuit","params":{"n":128,"g":2},"seed":2}
{"id":3,"op":"run","engine":"bsp","workload":"parity_bsp","params":{"n":64,"p":4,"g":2,"L":8},"seed":3}
EOF
)"
  printf '%s\n' "${sweep}" | "${serve}" --connect "${sock}" >"${dir}/cold.out"
  printf '%s\n' "${sweep}" | "${serve}" --connect "${sock}" >"${dir}/warm.out"

  # Costs must be byte-identical; only the cached flag may differ.
  if ! diff <(sed 's/"cached":[a-z]*/"cached":_/' "${dir}/cold.out") \
            <(sed 's/"cached":[a-z]*/"cached":_/' "${dir}/warm.out"); then
    echo "warm-replay costs diverged from the cold run" >&2
    exit 1
  fi
  if [[ "$(grep -c '"cached":true' "${dir}/warm.out")" != 3 ]]; then
    echo "warm replay was not 100% cache hits:" >&2
    cat "${dir}/warm.out" >&2
    exit 1
  fi
  if ! printf '{"id":9,"op":"stats"}\n' | "${serve}" --connect "${sock}" |
      grep -q '"cache.hit":3'; then
    echo "daemon metrics snapshot does not show cache.hit=3" >&2
    exit 1
  fi
  printf '{"id":10,"op":"shutdown"}\n' | "${serve}" --connect "${sock}" \
    >/dev/null
  wait "${daemon}"
  rm -rf "${dir}"
}

# Fleet data-plane smoke (docs/SERVICE.md#fleet-wire). $1 is the build
# dir holding tools/parbounds_serve. The same sweep is answered by a
# 2-worker fleet and by the in-process runner; the response bytes must
# be identical (cmp, not diff: every byte counts).
run_fleet_wire_smoke() {
  local serve="$1/tools/parbounds_serve"
  echo "==> fleet wire smoke (--workers 2 vs in-process byte identity)"
  local dir
  dir="$(mktemp -d)"
  local sweep
  sweep="$(cat <<'EOF'
{"id":1,"op":"run","engine":"qsm","workload":"parity_circuit","params":{"n":64,"g":2},"seed":1}
{"id":2,"op":"run","engine":"qsm","workload":"parity_circuit","params":{"n":128,"g":2},"seed":2}
{"id":3,"op":"run","engine":"bsp","workload":"parity_bsp","params":{"n":64,"p":4,"g":2,"L":8},"seed":3}
EOF
)"
  # Separate cold caches: with a shared one the second run would answer
  # cached:true and the cmp would flag the cache, not the backend.
  printf '%s\n' "${sweep}" |
    "${serve}" --stdio --workers 2 --cache-dir "${dir}/cache-fleet" \
    >"${dir}/fleet.out"
  printf '%s\n' "${sweep}" |
    "${serve}" --stdio --cache-dir "${dir}/cache-local" >"${dir}/local.out"
  if ! cmp "${dir}/fleet.out" "${dir}/local.out"; then
    echo "fleet and in-process response bytes differ (--workers 2)" >&2
    exit 1
  fi
  rm -rf "${dir}"
}

# Determinism stage. $1 is a Release build dir holding the bench
# binaries. A report holds model data only, so runs of one bench must
# write the same bytes — every cell cost and the whole metrics block —
# at any --jobs and under --workers: cmp, no normalization. Every run
# must also write its ops file (wall times, settings) with a host block.
run_determinism_stage() {
  local bench="$1/bench"
  local dir
  dir="$(mktemp -d)"
  run() {  # run BENCH OUT [flags...]
    local b="$1" out="$2"
    shift 2
    "${bench}/${b}" "$@" --json "${dir}/${out}.json" >/dev/null 2>&1
    if ! grep -qF '"host":{' "${dir}/${out}.ops.json"; then
      echo "determinism: ${out}.ops.json is missing or has no host block" >&2
      exit 1
    fi
  }
  same() {
    local f
    for f in "$1" "$2"; do
      if ! grep -qF '"cells":[{' "${dir}/${f}.json" ||
          grep -qF '"cells":[]' "${dir}/${f}.json"; then
        echo "determinism: ${f}.json has no cells to compare" >&2
        exit 1
      fi
    done
    if ! cmp "${dir}/$1.json" "${dir}/$2.json"; then
      echo "determinism: $1.json and $2.json differ" >&2
      exit 1
    fi
  }
  echo "==> determinism: bench_table4_rounds twice at --jobs 2, once at --jobs 1"
  run bench_table4_rounds t4_jobs2_a --jobs 2
  run bench_table4_rounds t4_jobs2_b --jobs 2
  run bench_table4_rounds t4_jobs1 --jobs 1
  same t4_jobs2_a t4_jobs2_b
  same t4_jobs2_a t4_jobs1
  echo "==> determinism: bench_mapping at --jobs 1 and at --jobs 4"
  run bench_mapping map_jobs1 --jobs 1
  run bench_mapping map_jobs4 --jobs 4
  same map_jobs1 map_jobs4
  local t
  for t in table1_qsm_time table2_sqsm_time table3_bsp_time; do
    echo "==> determinism: bench_${t} at --jobs 1, --jobs 4 and --workers 4"
    run "bench_${t}" "${t}_jobs1" --jobs 1
    run "bench_${t}" "${t}_jobs4" --jobs 4
    run "bench_${t}" "${t}_workers4" --workers 4
    same "${t}_jobs1" "${t}_jobs4"
    same "${t}_jobs1" "${t}_workers4"
  done
  if ! grep -q '"qsm.commit.shards":[1-9]' \
      "${dir}/table1_qsm_time_jobs4.json"; then
    echo "determinism: no phase crossed the shard threshold" >&2
    exit 1
  fi
  echo "    reports byte-identical (cmp), every ops file has a host block"
  rm -rf "${dir}"
}

if [[ "${QUICK}" == 1 ]]; then
  BUILD_DIR="${BUILD_DIR:-build-quick}"
  echo "==> [quick] configure into ${BUILD_DIR}"
  # Pin the build type: the bench smoke below gates on wall-clock
  # ratios, which an accidental -O0 cache would fail.
  cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  echo "==> [quick] build"
  cmake --build "${BUILD_DIR}" -j "${JOBS}"
  if [[ "${REQUIRE_TIDY}" == 1 ]]; then
    run_clang_tidy "${BUILD_DIR}"
  fi
  run_detlint "${BUILD_DIR}"
  echo "==> [quick] full test suite"
  ctest --test-dir "${BUILD_DIR}" -j "${JOBS}" --output-on-failure
  echo "==> [quick] analysis-labelled subset"
  ctest --test-dir "${BUILD_DIR}" -L analysis --output-on-failure
  echo "==> [quick] runtime-labelled subset"
  ctest --test-dir "${BUILD_DIR}" -L runtime --output-on-failure
  echo "==> [quick] obs-labelled subset"
  ctest --test-dir "${BUILD_DIR}" -L obs --output-on-failure
  echo "==> [quick] intra-labelled subset (sharded-commit determinism)"
  ctest --test-dir "${BUILD_DIR}" -L intra --output-on-failure
  run_simd_stage "${BUILD_DIR}"
  echo "==> [quick] service-labelled subset (cache + protocol + daemon core)"
  ctest --test-dir "${BUILD_DIR}" -L service --output-on-failure
  run_service_smoke "${BUILD_DIR}"
  echo "==> [quick] fleet-labelled subset (multi-process byte identity)"
  ctest --test-dir "${BUILD_DIR}" -L fleet --output-on-failure
  run_fleet_wire_smoke "${BUILD_DIR}"
  echo "==> [quick] parprof_cli smoke over an exported demo trace"
  "${BUILD_DIR}/tools/parlint_cli" --export-demo \
    "${BUILD_DIR}/CHECK_prof_demo.csv" 512 8 2
  "${BUILD_DIR}/tools/parprof_cli" "${BUILD_DIR}/CHECK_prof_demo.csv" \
    --chrome "${BUILD_DIR}/CHECK_prof_demo_trace.json" >/dev/null
  echo "==> [quick] bench_hotpath smoke (self-verified, speedup floors)"
  # Shard floor per host size (see MIN_SHARD above); the dispatch and
  # shard equivalence oracles inside bench_hotpath are the correctness
  # gates at any core count.
  "${BUILD_DIR}/bench/bench_hotpath" --jobs 2 \
    --json "${BUILD_DIR}/BENCH_hotpath.json" \
    --min-phase-speedup=1.5 --min-degree-speedup=2.5 \
    --min-shard-speedup="${MIN_SHARD}" --min-simd-speedup="${MIN_SIMD}"
  echo "==> [quick] bench_obs_overhead smoke (detached-hook ceiling)"
  "${BUILD_DIR}/bench/bench_obs_overhead" --jobs 2 \
    --json "${BUILD_DIR}/BENCH_obs_overhead.json" \
    --max-overhead=1.05
  echo "==> [quick] bench_fleet_throughput smoke (pipeline floor + identity oracle)"
  "${BUILD_DIR}/bench/bench_fleet_throughput" --jobs 2 \
    --json "${BUILD_DIR}/BENCH_fleet.json" \
    --min-pipeline-speedup="${MIN_PIPELINE}"
  echo "==> quick checks passed (sanitizer stages skipped)"
  exit 0
fi

BUILD_DIR="${BUILD_DIR:-build-checks}"

echo "==> configure (ASan + UBSan + Werror) into ${BUILD_DIR}"
cmake -B "${BUILD_DIR}" -S . \
  -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
  -DPARBOUNDS_ASAN=ON \
  -DPARBOUNDS_UBSAN=ON \
  -DPARBOUNDS_WERROR=ON

run_clang_tidy "${BUILD_DIR}"

echo "==> build"
cmake --build "${BUILD_DIR}" -j "${JOBS}"

run_detlint "${BUILD_DIR}"

echo "==> full test suite under ASan+UBSan"
ctest --test-dir "${BUILD_DIR}" -j "${JOBS}" --output-on-failure

echo "==> analysis-labelled subset"
ctest --test-dir "${BUILD_DIR}" -L analysis --output-on-failure

run_simd_stage "${BUILD_DIR}"

echo "==> obs-labelled subset"
ctest --test-dir "${BUILD_DIR}" -L obs --output-on-failure

echo "==> service-labelled subset (cache + protocol + daemon core)"
ctest --test-dir "${BUILD_DIR}" -L service --output-on-failure

run_service_smoke "${BUILD_DIR}"

echo "==> fleet-labelled subset (multi-process byte identity)"
ctest --test-dir "${BUILD_DIR}" -L fleet --output-on-failure

run_fleet_wire_smoke "${BUILD_DIR}"

echo "==> parprof_cli smoke over an exported demo trace"
"${BUILD_DIR}/tools/parlint_cli" --export-demo \
  "${BUILD_DIR}/CHECK_prof_demo.csv" 512 8 2
"${BUILD_DIR}/tools/parprof_cli" "${BUILD_DIR}/CHECK_prof_demo.csv" \
  --chrome "${BUILD_DIR}/CHECK_prof_demo_trace.json" >/dev/null

echo "==> configure (TSan + Werror) into ${BUILD_DIR}-tsan"
cmake -B "${BUILD_DIR}-tsan" -S . \
  -DPARBOUNDS_TSAN=ON \
  -DPARBOUNDS_WERROR=ON

echo "==> build (TSan)"
cmake --build "${BUILD_DIR}-tsan" -j "${JOBS}"

echo "==> runtime-, obs-, intra-, service- and fleet-labelled subsets under TSan"
ctest --test-dir "${BUILD_DIR}-tsan" -L 'runtime|obs|intra|service|fleet' \
  --output-on-failure

echo "==> configure (Release, sanitizer-free) into ${BUILD_DIR}-bench"
cmake -B "${BUILD_DIR}-bench" -S . -DCMAKE_BUILD_TYPE=Release

echo "==> build bench_hotpath + bench_obs_overhead + bench_fleet_throughput + the determinism benches"
cmake --build "${BUILD_DIR}-bench" -j "${JOBS}" \
  --target bench_hotpath bench_obs_overhead bench_fleet_throughput \
  bench_table4_rounds bench_mapping bench_table1_qsm_time \
  bench_table2_sqsm_time bench_table3_bsp_time

echo "==> bench_hotpath smoke (self-verified, speedup floors)"
# Shard floor per host size (see MIN_SHARD above); the dispatch and
# shard equivalence oracles inside bench_hotpath are the correctness
# gates at any core count.
"${BUILD_DIR}-bench/bench/bench_hotpath" --jobs 2 \
  --json "${BUILD_DIR}-bench/BENCH_hotpath.json" \
  --min-phase-speedup=1.5 --min-degree-speedup=2.5 \
  --min-shard-speedup="${MIN_SHARD}" --min-simd-speedup="${MIN_SIMD}"

echo "==> bench_obs_overhead smoke (detached-hook ceiling)"
"${BUILD_DIR}-bench/bench/bench_obs_overhead" --jobs 2 \
  --json "${BUILD_DIR}-bench/BENCH_obs_overhead.json" \
  --max-overhead=1.05

echo "==> bench_fleet_throughput smoke (pipeline floor + identity oracle)"
"${BUILD_DIR}-bench/bench/bench_fleet_throughput" --jobs 2 \
  --json "${BUILD_DIR}-bench/BENCH_fleet.json" \
  --min-pipeline-speedup="${MIN_PIPELINE}"

run_determinism_stage "${BUILD_DIR}-bench"

echo "==> all checks passed"
