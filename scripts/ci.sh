#!/usr/bin/env bash
# Repository CI gate: formatting, lints, and the tier-1 test suite.
#
# Everything runs --offline against the vendored dependency stubs in
# vendor/ — this repo builds with no network access.
set -euo pipefail
cd "$(dirname "$0")/.."

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
cargo test -q --offline -p utlb-core obs::
cargo test -q --offline -p utlb-core mechanism::

echo "== four-mechanism unification: shared pin core and variant ablations"
cargo test -q --offline -p utlb-core pincore::
cargo test -q --offline -p utlb-core policy::
cargo test -q --offline -p utlb-core --test properties
cargo test -q --offline -p utlb-core perproc::
cargo test -q --offline -p utlb-core indexed::
cargo test -q --offline -p utlb-sim ablations::

echo "== engine-driven paper archives byte-identical"
for t in table3 table4 table5 table6 table7 table8; do
    cargo run -q --release --offline -p utlb-bench --bin "$t" -- --json "results/$t.json" \
        > "results/$t.txt"
done
for f in fig7 fig8; do
    cargo run -q --release --offline -p utlb-bench --bin "$f" -- --json "results/$f.json" \
        --csv "results/$f.csv" > "results/$f.txt"
done
cargo run -q --release --offline -p utlb-bench --bin ablations > results/ablations.txt
git diff --exit-code -- results/table{3,4,5,6,7,8}.{json,txt} results/fig{7,8}.{json,txt,csv} \
    results/ablations.txt

echo "== repository benchmark builds against the TranslationMechanism trait"
cargo build -q --release --offline --manifest-path benchmark/Cargo.toml

echo "== host-op benches smoke (replacement-set evict/insert and touch)"
cargo bench -q --offline -p utlb-bench --bench host_ops -- --test

echo "== observability: no-op probe overhead guard (<10%)"
cargo run -q --release --offline -p utlb-bench --bin obs_guard -- --scale 0.3

echo "== DES: core unit tests and zero-contention equivalence gate"
cargo test -q --offline -p utlb-des
cargo test -q --offline -p utlb-sim des_runner::
cargo test -q --offline -p utlb-sim --test des_equivalence

echo "== DES: contention experiments (load monotonicity, interference, per-mechanism axis)"
cargo test -q --offline -p utlb-sim contention::

echo "== batched lookup path: scalar-equivalence gate"
cargo test -q --offline -p utlb-sim --test equivalence scalar
cargo test -q --offline -p utlb-core batch::
cargo test -q --offline -p utlb-core pinned_prefix
cargo test -q --offline -p utlb-bench scalar_baseline

echo "== streaming: fused generate+replay byte-identity gate"
cargo test -q --offline -p utlb-sim --test stream_equivalence
cargo test -q --offline -p utlb-trace merge::
cargo test -q --offline -p utlb-trace stream::
cargo test -q --offline -p utlb-trace synth::

echo "== streaming: bounded-memory scale run (small epoch count)"
UTLB_STREAM_EPOCHS=40 cargo run -q --release --offline -p utlb-bench --bin stream_scale

echo "== builder: spelling-equivalence of the Run builder (legacy shims are gone)"
cargo test -q --offline -p utlb-sim --test builder_equivalence
cargo test -q --offline -p utlb-sim run::

echo "== sweep executor: scheduling, scratch, poison, and checkpoint unit tests"
cargo test -q --offline -p utlb-sim sweep::

echo "== sweep executor: 1-vs-N byte-identity and checkpointed driver resume"
cargo test -q --offline -p utlb-sim --test sweep_determinism
cargo test -q --offline -p utlb-sim --test sweep_scaling

echo "== cluster: 1-board bit-exactness, determinism, migration proptest"
cargo test -q --offline -p utlb-sim --test cluster
cargo test -q --offline -p utlb-sim cluster::

echo "== cluster: capped-axis scaling run (full axis reserved for the archive)"
UTLB_CLUSTER_NODES=8 cargo run -q --release --offline -p utlb-bench --bin cluster -- --scale 0.1

echo "== cluster: 1-vs-8-board replay bench smoke"
cargo bench -q --offline -p utlb-bench --bench cluster_replay -- --test

echo "== frontend: unit, lifecycle, and bit-exactness tests"
cargo test -q --offline -p utlb-sim --test frontend
cargo test -q --offline -p utlb-sim frontend

echo "== frontend: capped smoke run, byte-identical at 1 vs 4 sweep workers"
UTLB_FRONTEND_CONNS=1000 UTLB_SIM_THREADS=1 \
    cargo run -q --release --offline -p utlb-bench --bin frontend > /dev/null
mv results/frontend_smoke.json results/frontend_smoke_1w.json
UTLB_FRONTEND_CONNS=1000 UTLB_SIM_THREADS=4 \
    cargo run -q --release --offline -p utlb-bench --bin frontend > /dev/null
cmp results/frontend_smoke_1w.json results/frontend_smoke.json
rm results/frontend_smoke_1w.json

echo "== frontend: live-reactor-vs-trace-replay bench smoke"
cargo bench -q --offline -p utlb-bench --bench frontend -- --test

echo "== clustered frontend: 1-board byte-identity, redirect gradient, residency proptest"
cargo test -q --offline -p utlb-sim --test cluster_frontend
cargo test -q --offline -p utlb-sim cluster_frontend::

echo "== clustered frontend: capped smoke run, byte-identical at 1 vs 4 sweep workers"
UTLB_CLUSTER_FRONTEND_CONNS=2000 UTLB_SIM_THREADS=1 \
    cargo run -q --release --offline -p utlb-bench --bin cluster_frontend > /dev/null
mv results/cluster_frontend_smoke.json results/cluster_frontend_smoke_1w.json
UTLB_CLUSTER_FRONTEND_CONNS=2000 UTLB_SIM_THREADS=4 \
    cargo run -q --release --offline -p utlb-bench --bin cluster_frontend > /dev/null
cmp results/cluster_frontend_smoke_1w.json results/cluster_frontend_smoke.json
rm results/cluster_frontend_smoke_1w.json

echo "== clustered frontend: 1-vs-8-board live churn bench smoke"
cargo bench -q --offline -p utlb-bench --bench cluster_frontend -- --test

echo "== DES: replay overhead bench"
cargo bench -q --offline -p utlb-bench --bench des_replay

echo "== streaming: fused-vs-materialized replay bench smoke"
cargo bench -q --offline -p utlb-bench --bench stream_replay -- --test

echo "== criterion smoke: batched-vs-scalar replay benches compile and run"
cargo bench -q --offline -p utlb-bench --bench sweep -- --test

echo "== docs build clean"
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --offline --workspace

echo "CI green."
