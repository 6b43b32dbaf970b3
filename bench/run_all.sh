#!/bin/sh
# Runs every reproduction bench and collects machine-readable BENCH_<name>.json reports
# into bench-out/ (gitignored). Human-readable tables still go to stdout.
#
#   bench/run_all.sh [--quick] [--lint] [build-dir]     default build dir: build
#
# Parameter sweeps run on the SweepRunner thread pool (PPCMM_SWEEP_THREADS caps it).
#
# --quick: smoke mode — shrunken workloads (PPCMM_QUICK=1), only the benches that finish in
# seconds, plus a ThreadSanitizer pass over the sweep-runner tests when build-tsan exists
# and a 30-second seeded differential-fuzz pass (8000 ops per stream, every preset x
# reload strategy) under ASan when build-fuzz (or build-asan) exists. A fuzz divergence
# fails loudly and leaves the minimized repro in bench-out/.
#
# --lint: before any benches, run mmu-lint over the tree (using the build dir's binary)
# and the format check. Bad numbers from a tree that violates its own architectural
# contracts are not worth collecting.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)

quick=0
lint=0
while :; do
  case "${1:-}" in
    --quick) quick=1; shift ;;
    --lint) lint=1; shift ;;
    *) break ;;
  esac
done
build_dir=${1:-"$repo_root/build"}
out_dir="$repo_root/bench-out"

if [ ! -d "$build_dir/bench" ]; then
  echo "error: $build_dir/bench not found; configure and build first:" >&2
  echo "  cmake --preset default && cmake --build --preset default" >&2
  exit 1
fi

mkdir -p "$out_dir"
export PPCMM_BENCH_OUT="$out_dir"
# Stamp every report with the commit it came from (BenchReport meta.git_sha), so
# tools/bench-trend can tie trajectory entries back to history.
if [ -z "${PPCMM_GIT_SHA:-}" ]; then
  PPCMM_GIT_SHA=$(git -C "$repo_root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
  export PPCMM_GIT_SHA
fi

if [ "$lint" = 1 ]; then
  lint_bin="$build_dir/tools/mmu-lint/mmu-lint"
  if [ ! -x "$lint_bin" ]; then
    echo "error: $lint_bin not built; build the mmu-lint target first" >&2
    exit 1
  fi
  echo "==> mmu-lint"
  "$lint_bin" --root "$repo_root"
  "$repo_root/scripts/format_check.sh"
fi

if [ "$quick" = 1 ]; then
  export PPCMM_QUICK=1
  benches="table1_direct_reload smp_shootdown host_throughput"
else
  benches="table1_direct_reload table2_range_flush table3_os_comparison \
    sec5_bat_footprint sec5_hash_utilization sec5_io_bat sec6_fast_reload \
    sec7_idle_reclaim sec8_pagetable_cache sec9_idle_page_clear \
    ablation_interactions multiuser_scaling smp_shootdown host_throughput"
fi

failed=0
for bench in $benches; do
  binary="$build_dir/bench/$bench"
  if [ ! -x "$binary" ]; then
    echo "skip: $bench (not built)" >&2
    continue
  fi
  echo "==> $bench"
  if ! "$binary" > "$out_dir/$bench.txt" 2>&1; then
    echo "FAILED: $bench (log: $out_dir/$bench.txt)" >&2
    failed=1
  fi
done

if [ "$quick" = 1 ]; then
  tsan_test="$repo_root/build-tsan/tests/sweep_runner_test"
  if [ -x "$tsan_test" ]; then
    echo "==> sweep_runner_test (tsan)"
    if ! "$tsan_test" > "$out_dir/sweep_runner_tsan.txt" 2>&1; then
      echo "FAILED: sweep_runner_test under tsan (log: $out_dir/sweep_runner_tsan.txt)" >&2
      failed=1
    fi
  else
    echo "note: build-tsan/tests/sweep_runner_test not built; for the TSan pass run:" >&2
    echo "  cmake --preset tsan && cmake --build --preset tsan --target sweep_runner_test" >&2
  fi

  # ncpus=4 TSan pass: the pooled SMP shootdown-storm sweep runs 4-CPU Systems on a thread
  # pool; TSan proves the per-System confinement holds for the multi-CPU machine state
  # (per-CPU TLBs, local clocks, IPI bookkeeping) exactly as it does for uniprocessors.
  smp_tsan="$repo_root/build-tsan/tests/machine_sweep_test"
  if [ -x "$smp_tsan" ]; then
    echo "==> machine_sweep_test SMP storm (tsan, ncpus=4)"
    if ! "$smp_tsan" --gtest_filter='*SmpShootdownStorm*' > "$out_dir/smp_storm_tsan.txt" 2>&1; then
      echo "FAILED: SMP shootdown storm under tsan (log: $out_dir/smp_storm_tsan.txt)" >&2
      failed=1
    fi
  else
    echo "note: build-tsan/tests/machine_sweep_test not built; for the ncpus=4 TSan pass run:" >&2
    echo "  cmake --preset tsan && cmake --build --preset tsan --target machine_sweep_test" >&2
  fi

  # Differential fuzz pass: fixed base seed, wall-clock bounded, every preset x strategy
  # combo. Prefers the dedicated fuzz preset build, falls back to build-asan.
  fuzz_bin=""
  for candidate in "$repo_root/build-fuzz/examples/fuzz" "$repo_root/build-asan/examples/fuzz"; do
    if [ -x "$candidate" ]; then
      fuzz_bin="$candidate"
      break
    fi
  done
  if [ -n "$fuzz_bin" ]; then
    echo "==> differential fuzz (asan, 30s)"
    if ! "$fuzz_bin" --max-seconds=30 --seed=20260807 --ops=8000 --minimize \
        --out="$out_dir/fuzz_minimized.replay" > "$out_dir/fuzz_quick.txt" 2>&1; then
      echo "FAILED: differential fuzz found a divergence" >&2
      echo "  log:    $out_dir/fuzz_quick.txt" >&2
      echo "  replay: $out_dir/fuzz_minimized.replay" >&2
      echo "  rerun:  $fuzz_bin --replay=$out_dir/fuzz_minimized.replay" >&2
      failed=1
    fi
  else
    echo "note: examples/fuzz not built under ASan; for the fuzz pass run:" >&2
    echo "  cmake --preset fuzz && cmake --build --preset fuzz --target fuzz" >&2
  fi
fi

echo
echo "reports in $out_dir:"
ls "$out_dir"
exit $failed
