#!/usr/bin/env bash
# Repository CI gate: formatting, lints, and the tier-1 test suite.
#
# Everything runs --offline against the vendored dependency stubs in
# vendor/ — this repo builds with no network access.
set -euo pipefail
cd "$(dirname "$0")/.."

# Every step below must leave the working tree as it found it: an entry or
# bench that writes a stray file fails the run at the end.
start_status=$(git status --porcelain)

# Runs `cargo test -q --offline ARGS` and fails when its name filter
# matched no test at all: cargo exits 0 on an empty match, which would let
# a renamed module silently drop its gate.
filtered_test() {
    local out passed
    if ! out=$(cargo test -q --offline "$@" 2>&1); then
        printf '%s\n' "$out"
        return 1
    fi
    printf '%s\n' "$out"
    passed=$(printf '%s\n' "$out" |
        sed -n 's/^test result: ok\. \([0-9]*\) passed.*/\1/p' |
        awk '{ n += $1 } END { print n + 0 }')
    if [ "$passed" -eq 0 ]; then
        echo "ci: 'cargo test $*' matched no test" >&2
        return 1
    fi
}

# Runs one entry of the experiment registry (`run_all --help` lists them).
run_all() { cargo run -q --release --offline -p utlb-bench --bin run_all -- "$@"; }

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (-D warnings)"
cargo clippy -q --offline --workspace --all-targets -- -D warnings

echo "== tier-1: cargo build --release && cargo test"
cargo build --release --offline
cargo test -q --offline

echo "== full workspace tests"
cargo test -q --offline --workspace

echo "== observability: runner-equivalence and probe-reconciliation tests"
cargo test -q --offline -p utlb-sim --test equivalence
filtered_test -p utlb-core obs::
filtered_test -p utlb-core mechanism::

echo "== host-memory substrate: dense frame store, per-process pin registry, bitmap allocator, hashed page tables, per-process cache line lists"
cargo test -q --offline -p utlb-mem --test properties
filtered_test -p utlb-mem pin::
filtered_test -p utlb-mem phys::
filtered_test -p utlb-mem frame::
filtered_test -p utlb-mem space::
cargo test -q --offline -p utlb-core --test cache_reference

echo "== four-mechanism unification: shared pin core and variant ablations"
filtered_test -p utlb-core pincore::
filtered_test -p utlb-core policy::
cargo test -q --offline -p utlb-core --test properties
filtered_test -p utlb-core perproc::
filtered_test -p utlb-core indexed::
filtered_test -p utlb-sim ablations::

echo "== experiment registry: command-line parser"
filtered_test -p utlb-bench cli::

echo "== engine-driven paper archives byte-identical"
for t in table1 table2 table3 table4 table5 table6 table7 table8; do
    run_all "$t" --json "results/$t.json" > "results/$t.txt"
done
for f in fig7 fig8; do
    run_all "$f" --json "results/$f.json" --csv "results/$f.csv" > "results/$f.txt"
done
run_all ablations > results/ablations.txt
run_all contention --json results/contention.json > /dev/null
run_all interference --json results/interference.json > /dev/null
run_all --obs > results/run_all.txt
git diff --exit-code -- results/table{1,2,3,4,5,6,7,8}.{json,txt} results/fig{7,8}.{json,txt,csv} \
    results/ablations.txt results/contention.json results/interference.json results/run_all.txt

echo "== repository benchmark builds against the TranslationMechanism trait"
cargo build -q --release --offline --manifest-path benchmark/Cargo.toml

echo "== host-op benches smoke (replacement-set evict/insert and touch)"
cargo bench -q --offline -p utlb-bench --bench host_ops -- --test

echo "== observability: no-op probe overhead guard (<10%)"
run_all obs_guard --scale 0.3

echo "== DES: core unit tests and zero-contention equivalence gate"
cargo test -q --offline -p utlb-des
filtered_test -p utlb-sim des_runner::
cargo test -q --offline -p utlb-sim --test des_equivalence

echo "== DES: contention experiments (load monotonicity, interference, per-mechanism axis)"
filtered_test -p utlb-sim contention::

echo "== shared page-run walk: batched-vs-scalar equivalence gate (outcomes, clock, probe events)"
filtered_test -p utlb-sim --test equivalence scalar
filtered_test -p utlb-sim --test equivalence batched_lookup_matches_scalar_lockstep_for_all_mechanisms
filtered_test -p utlb-core batch::
filtered_test -p utlb-core pinned_prefix
filtered_test -p utlb-bench scalar_baseline

echo "== streaming: fused generate+replay byte-identity gate"
cargo test -q --offline -p utlb-sim --test stream_equivalence
filtered_test -p utlb-trace merge::
filtered_test -p utlb-trace stream::
filtered_test -p utlb-trace synth::

echo "== 3C classifier and frontend trace order"
filtered_test -p utlb-sim classify::
cargo test -q --offline -p utlb-sim --test properties
filtered_test -p utlb-sim frontend_trace_matches_heap_merge

echo "== streaming: bounded-memory scale run (small epoch count)"
run_all stream_scale --cap 40 > /dev/null

echo "== builder: spelling-equivalence of the Run builder (legacy shims are gone)"
cargo test -q --offline -p utlb-sim --test builder_equivalence
filtered_test -p utlb-sim run::
filtered_test -p utlb-sim runner::

echo "== sweep executor: scheduling, poison, and checkpoint unit tests"
filtered_test -p utlb-sim sweep::

echo "== sweep executor: 1-vs-N byte-identity and checkpointed driver resume"
cargo test -q --offline -p utlb-sim --test sweep_determinism
cargo test -q --offline -p utlb-sim --test sweep_scaling

echo "== cluster: 1-board bit-exactness, determinism, migration proptest"
cargo test -q --offline -p utlb-sim --test cluster
filtered_test -p utlb-sim cluster::

echo "== cluster: capped-axis scaling run, byte-identical at 1 vs 4 sweep workers"
UTLB_SIM_THREADS=1 run_all cluster --cap 8 --scale 0.1 --json results/cluster_smoke_1w.json > /dev/null
UTLB_SIM_THREADS=4 run_all cluster --cap 8 --scale 0.1 --json results/cluster_smoke.json > /dev/null
cmp results/cluster_smoke_1w.json results/cluster_smoke.json
rm results/cluster_smoke_1w.json
git diff --exit-code -- results/cluster_smoke.json

echo "== cluster: 1-vs-8-board replay bench smoke"
cargo bench -q --offline -p utlb-bench --bench cluster_replay -- --test

echo "== frontend: unit, lifecycle, and bit-exactness tests"
cargo test -q --offline -p utlb-sim --test frontend
filtered_test -p utlb-sim frontend

echo "== frontend: capped smoke run, byte-identical at 1 vs 4 sweep workers"
UTLB_SIM_THREADS=1 run_all frontend --cap 1000 --json results/frontend_smoke_1w.json > /dev/null
UTLB_SIM_THREADS=4 run_all frontend --cap 1000 --json results/frontend_smoke.json > /dev/null
cmp results/frontend_smoke_1w.json results/frontend_smoke.json
rm results/frontend_smoke_1w.json
git diff --exit-code -- results/frontend_smoke.json

echo "== frontend: live-reactor-vs-trace-replay bench smoke"
cargo bench -q --offline -p utlb-bench --bench frontend -- --test

echo "== clustered frontend: 1-board byte-identity, redirect gradient, residency proptest"
cargo test -q --offline -p utlb-sim --test cluster_frontend
filtered_test -p utlb-sim cluster_frontend::

echo "== clustered frontend: capped smoke run, byte-identical at 1 vs 4 sweep workers"
UTLB_SIM_THREADS=1 run_all cluster_frontend --cap 2000 \
    --json results/cluster_frontend_smoke_1w.json > /dev/null
UTLB_SIM_THREADS=4 run_all cluster_frontend --cap 2000 \
    --json results/cluster_frontend_smoke.json > /dev/null
cmp results/cluster_frontend_smoke_1w.json results/cluster_frontend_smoke.json
rm results/cluster_frontend_smoke_1w.json
git diff --exit-code -- results/cluster_frontend_smoke.json

echo "== clustered frontend: 1-vs-8-board live churn bench smoke"
cargo bench -q --offline -p utlb-bench --bench cluster_frontend -- --test

echo "== DES: replay overhead bench smoke"
cargo bench -q --offline -p utlb-bench --bench des_replay -- --test

echo "== criterion smoke: batched-vs-scalar replay benches compile and run"
cargo bench -q --offline -p utlb-bench --bench sweep -- --test

echo "== docs build clean"
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --offline --workspace

echo "== working tree unchanged by the run"
end_status=$(git status --porcelain)
if [ "$end_status" != "$start_status" ]; then
    echo "ci: the run changed the working tree:" >&2
    diff <(printf '%s\n' "$start_status") <(printf '%s\n' "$end_status") >&2 || true
    exit 1
fi

echo "CI green."
