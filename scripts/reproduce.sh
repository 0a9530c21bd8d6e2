#!/usr/bin/env bash
# Regenerate every table, figure and ablation of the LocoFS reproduction.
# Outputs land in results/. Scale knobs (LOCO_ITEMS, LOCO_TP_ITEMS,
# LOCO_MAX_CLIENTS, LOCO_RENAME_DIRS, ...) are honored; defaults finish
# in a few minutes total.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p results

BINS=(
  fig01_gap fig02_locating fig06_latency_create fig07_latency_ops
  fig08_throughput fig09_gap_bridge fig10_flattened fig11_decoupled
  fig12_fullsystem fig13_depth fig14_rename table1_matrix table3_clients
  ablation_dms_shards ablation_rename_mix ablation_readdirplus
)

cargo build --release -p loco-bench
for b in "${BINS[@]}"; do
  echo "== $b =="
  cargo run --release -q -p loco-bench --bin "$b" | tee "results/$b.txt"
done

echo "== criterion micro-benches =="
cargo bench -p loco-bench | tee results/criterion.txt

echo
echo "All outputs in results/. Compare against EXPERIMENTS.md."
