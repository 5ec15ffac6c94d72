#!/usr/bin/env bash
# CI entry point: AddressSanitizer+UBSan build, full test suite, a
# crash-point sweep across every design (20 points each, fixed seed,
# parallel Execute phase), fault-injection and replay-dosed
# integrity-tree sweeps under the same sanitizers — single- and
# multi-channel (--channels 4) — pooled integrity-armed and
# crash-during-recovery sweeps, crash-chain soak smokes in both gate
# directions, CLI usage-contract smokes, a
# ThreadSanitizer pass over every host-parallel path (parallel sweeps,
# pooled fault- and replay-dosed fork classification, concurrent
# interrupted recoveries, the 4-channel fork capture and parallel soak
# chains), and a Release build with -Werror, its own
# full test-suite run, its sweep smokes, one brief run of each
# micro-benchmark, one run of each ablation harness, each figure
# harness's table checked against its pinned copy, a short perfbench
# run of both workloads and the perfbench tests. Host
# parallelism is run-level only: each simulation runs on one thread,
# every sweep point, soak chain and pool task owns its System, and fork
# classification reads only the fork's image and the trunk's immutable
# controller config. A fork's image shares pages with the trunk's, and
# the trunk copies a shared page before it writes it — the TSan steps
# are what prove it.
#
#   tools/ci.sh [build-dir] [release-build-dir] [tsan-build-dir]
#
# The sanitizers matter here: the crash paths tear down controller
# state with events still in flight, which is exactly where use-after-
# free and leaked one-shot events would hide — and the work pool runs
# whole Systems on worker threads, which is exactly where an unnoticed
# mutable global would race. The fault-injection paths corrupt and
# quarantine persisted lines, which is exactly where an out-of-bounds
# torn-write prefix or a stale MAC pointer would hide.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build-ci}"
release="${2:-$repo/build-ci-rel}"
tsan="${3:-$repo/build-ci-tsan}"

# build-ci is the ASan+UBSan configuration (address + undefined, no
# recovery: any finding is fatal). Everything ctest runs, runs under it
# (and once more in the Release tree below).
cmake -B "$build" -S "$repo" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all"

cmake --build "$build" -j "$(nproc)"

ctest --test-dir "$build" --output-on-failure -j "$(nproc)"

# CLI usage contract: every tool prints usage and exits 0 on --help,
# and prints usage to stderr and exits 2 on an unknown flag.
for tool in cnvm_sim cnvm_crash_sweep cnvm_soak; do
    "$build/tools/$tool" --help > /dev/null
    if "$build/tools/$tool" --no-such-flag > /dev/null 2>&1; then
        echo "FAIL: $tool accepted an unknown flag" >&2
        exit 1
    elif [ $? -ne 2 ]; then
        echo "FAIL: $tool should exit 2 on an unknown flag" >&2
        exit 1
    fi
done

# Sweep smoke with the pooled Execute phase: --jobs 4 regardless of
# host width — the point is to exercise the parallel path, and the
# fingerprint-identity tests pin its results to the serial reference.
"$build/tools/cnvm_crash_sweep" --points 20 --jobs 4

# Fault-injection smoke under ASan+UBSan, both gate directions: with
# integrity MACs the sweep must stay free of silent corruption; without
# them the same dose must demonstrate at least one silent point (both
# are part of the tool's exit status).
"$build/tools/cnvm_crash_sweep" --points 12 --jobs 4 \
    --faults --integrity \
    --design ColocatedCC --design FCA --design SCA --design Unsafe
"$build/tools/cnvm_crash_sweep" --points 12 --jobs 4 \
    --faults \
    --design ColocatedCC --design FCA --design SCA --design Unsafe

# Replay-attack smoke under ASan+UBSan, both gate directions: with the
# integrity tree, a replay-dosed sweep must classify zero points silent
# of any kind and catch at least one replay; MAC-only, the same dose
# must demonstrate at least one silent replay. The tree paths hash and
# rebuild persisted node maps at crash capture and during recovery —
# exactly where an off-by-one leaf index or a stale root pointer would
# hide.
"$build/tools/cnvm_crash_sweep" --points 12 --jobs 4 \
    --faults --replays --integrity-tree \
    --design ColocatedCC --design FCA --design SCA --design Unsafe
"$build/tools/cnvm_crash_sweep" --points 12 --jobs 4 \
    --faults --replays --integrity \
    --design ColocatedCC --design FCA --design SCA --design Unsafe

# Crash-chain soak smoke under ASan+UBSan, both gate directions: an
# armed (MAC + tree) fault- and replay-dosed chain of crash → recover
# → resume cycles per design must stay consistent with zero silent
# cycles; the same dose with the MAC disarmed must demonstrate at
# least one silent cycle (both are part of the tool's exit status).
# The resume constructor takes the recovered image over and re-seeds
# live controllers from it — exactly where a page written while
# another image still shares it, or a stale quarantine pointer, would
# hide.
"$build/tools/cnvm_soak" --cycles 8 --chains 2 --jobs 2 \
    --faults --replays --integrity-tree \
    --design ColocatedCC --design FCA --design SCA --design Unsafe
"$build/tools/cnvm_soak" --cycles 8 --faults \
    --design ColocatedCC --design FCA --design SCA --design Unsafe

# The unified argument checker: a tuning flag without its prerequisite
# is a usage error (exit 2), not a silent enable.
if "$build/tools/cnvm_crash_sweep" --points 10 --fault-seed 5 \
        > /dev/null 2>&1; then
    echo "FAIL: cnvm_crash_sweep accepted --fault-seed without --faults" >&2
    exit 1
elif [ $? -ne 2 ]; then
    echo "FAIL: --fault-seed without --faults should exit 2" >&2
    exit 1
fi

# ... and the channel count is an address mask, so a non-power-of-two
# is a usage error (exit 2), never a silently degenerate interleave.
for bad in 0 3; do
    if "$build/tools/cnvm_crash_sweep" --points 10 --channels "$bad" \
            > /dev/null 2>&1; then
        echo "FAIL: cnvm_crash_sweep accepted --channels $bad" >&2
        exit 1
    elif [ $? -ne 2 ]; then
        echo "FAIL: --channels $bad should exit 2" >&2
        exit 1
    fi
done

# Multi-channel sweep under ASan+UBSan: the sharded controllers, the
# global ADR cut at crash capture, and the root-persists-last tree
# rebuild over the merged image — exactly where a per-channel keep
# prefix walking off its queue tail or a tree rebuilt over a partial
# drain would hide.
"$build/tools/cnvm_crash_sweep" --points 12 --channels 4 --jobs 4 \
    --faults --replays --integrity-tree \
    --design ColocatedCC --design FCA --design SCA --design Unsafe

# Recovery under ASan+UBSan: the integrity pre-scan inside a pooled
# fork-mode sweep, and the crash-during-recovery idempotence family
# (interrupted write-back attempts re-run to convergence). The
# write-back paths re-encrypt and re-persist lines — exactly where a
# stale cache iterator or an out-of-bounds MAC write would hide.
"$build/tools/cnvm_crash_sweep" --points 10 --jobs 4 \
    --faults --integrity \
    --design SCA --design Unsafe
"$build/tools/cnvm_crash_sweep" --points 8 --recovery-crashes 16 \
    --jobs 4 --faults --integrity \
    --design ColocatedCC --design FCA --design SCA --design Unsafe

# ThreadSanitizer over the concurrent paths: the runner unit tests, the
# pooled Replay-mode sweep (the reference the fork sweep is pinned to,
# which only the tests run), the pooled crash-during-recovery family
# and a parallel multi-design fork sweep.
# Fork mode is the sharper TSan target: workers classify captured
# forks while the trunk simulation is still mutating its own state on
# the owner thread. Forks share image pages with the trunk, and the
# trunk copies a shared page before it writes it, so a write that
# skips that copy, or a capture that aliases other live trunk state,
# shows up as a race here. ASan/TSan cannot
# share a build, so this is its own configuration; only the needed
# targets are built.
cmake -B "$tsan" -S "$repo" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-sanitize-recover=all"
cmake --build "$tsan" -j "$(nproc)" \
    --target cnvm_crash_sweep runner_test line_table_test recovery_test \
    crash_sweep_test
"$tsan/tests/runner_test"
# The line tables behind the persisted image: concurrent
# crash-during-recovery points each copy one shared captured image and
# write their copies' shared pages, so a const access that mutated
# anything (a last-page cache, say), or a page count whose ordering
# lets a write in place overtake another copy's reads, would race here.
"$tsan/tests/line_table_test"
# Interrupted write-back recoveries running concurrently, each against
# its own per-point copy of one image, sharing its pages until it
# writes them.
"$tsan/tests/recovery_test" --gtest_filter='RecoveryCrash.*'
"$tsan/tests/crash_sweep_test" --gtest_filter=\
'CrashSweepEndToEnd.ParallelExecuteIsByteIdenticalToSerial:ForkSweep.*'
"$tsan/tools/cnvm_crash_sweep" --points 8 --jobs 4
# Fault capture happens on the trunk thread while workers classify
# earlier (faulted) forks — the dose must land on pages the fork copied
# for itself — and each point's recovery reads the fork's image against
# the trunk's shared immutable controller and engine (any hidden
# mutability in the verification path races here). Then the
# recovery-crash family, whose points run concurrent interrupted
# recoveries against per-point copies of the fork's image.
"$tsan/tools/cnvm_crash_sweep" --points 8 --jobs 4 \
    --faults --integrity --design SCA --design Unsafe
"$tsan/tools/cnvm_crash_sweep" --points 6 --recovery-crashes 10 \
    --jobs 4 --faults --integrity \
    --design SCA --design Unsafe
# Replay-dosed pooled classification under TSan: concurrent recoveries
# produce quarantine AND replay verdicts against the shared trunk
# configuration, each on its own fork's tree nodes.
cmake --build "$tsan" -j "$(nproc)" --target integrity_tree_test
"$tsan/tests/integrity_tree_test" --gtest_filter='ReplaySweep.*'
"$tsan/tools/cnvm_crash_sweep" --points 8 --jobs 4 \
    --faults --replays --integrity-tree \
    --design SCA --design Unsafe
# Multi-channel sweep under TSan: fork capture drains four channels'
# queues and rebuilds the tree globally while workers classify earlier
# forks — any channel state aliased into a fork, or an image page the
# trunk writes while a fork still shares it, races here.
"$tsan/tools/cnvm_crash_sweep" --points 8 --channels 4 --jobs 4 \
    --faults --integrity-tree --design SCA --design Unsafe
# Crash-chain soak under TSan: parallel chains run whole
# crash → recover → resume lifecycles on worker threads, each chain
# repeatedly tearing down a System and re-seeding the next incarnation
# from the recovered image — any resume state aliased across chains
# (or into the pool) races here.
cmake --build "$tsan" -j "$(nproc)" --target cnvm_soak
"$tsan/tools/cnvm_soak" --cycles 6 --chains 4 --jobs 4 \
    --faults --replays --integrity-tree --design SCA --design Unsafe

# Release: the build compiles with -Werror, so the tree stays free of
# compiler warnings; the whole test suite runs again at -O3, where the
# intrinsic kernels (the AES-NI blocks, the eight-lane MACs and tree
# hashes) are compiled as they ship; the sweep smokes run the fork
# Execute end to end at full optimization; each micro-benchmark runs
# once, briefly, so a
# benchmark that no longer runs is caught (a smoke run, not a timing
# gate; google-benchmark 1.7 takes --benchmark_min_time in seconds);
# each ablation harness runs once, its table discarded, so one that
# aborts or exits non-zero fails here; each figure harness
# (bench/fig12-fig17, about 20 s together) runs once and its table must
# match bench/expected/<fig>.txt byte for byte, so a change that moves a
# figure fails here until the same commit updates that file;
# a 1 s perfbench run of each benchmark workload exits non-zero on
# any failed op; and perfbench_test checks the benchmark still agrees
# with the library it is built against.
cmake -B "$release" -S "$repo" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS="-Werror"
cmake --build "$release" -j "$(nproc)"
ctest --test-dir "$release" --output-on-failure -j "$(nproc)"
"$release/tools/cnvm_crash_sweep" --points 20 --jobs 4
"$release/tools/cnvm_crash_sweep" --points 20 --channels 4 --jobs 4
for micro in micro_cache micro_crypto micro_eventq micro_memctl \
        micro_sweep; do
    "$release/bench/$micro" --benchmark_min_time=0.01 > /dev/null
done
for ablation in ablation_controller ablation_lifetime; do
    "$release/bench/$ablation" > /dev/null
done
for fig in fig12_single_core fig13_multicore fig14_write_traffic \
        fig15_counter_cache fig16_txn_size fig17_nvm_latency; do
    "$release/bench/$fig" | diff -u "$repo/bench/expected/$fig.txt" -
done
for workload in crash-recovery scale-16c8ch; do
    python3 "$repo/perfbench/run.py" --workload "$workload" --seconds 1
done
# The benchmark's own tests, in the tree run.py configured above: the
# fork sweep perfbench assembles from library calls must match
# runSweep's, so a library API change that breaks the benchmark fails
# here.
cmake --build "$repo/.bench_build/perfbench" --target perfbench_test \
    -j "$(nproc)"
"$repo/.bench_build/perfbench/perfbench_test"
