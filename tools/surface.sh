#!/usr/bin/env bash
# Size of the code and of its public surface — the counts ROADMAP asks
# every simplicity PR to record in CHANGES.md. Run from anywhere; prints
# one `name value` line per count.
set -euo pipefail
cd "$(dirname "$0")/.."

lines() { find "$@" -name '*.rs' -print0 | xargs -0 cat | wc -l; }
pubs() { grep -rhE '^\s*pub (fn|struct|enum|trait|const|static|type|mod|use) ' "$@" | wc -l; }
entries() { grep -rhoE "pub fn $1\w*" crates/*/src src | sort -u | wc -l; }

echo "rust_lines $(lines crates src tests examples vendor)"
echo "pub_items $(pubs crates/*/src src)"
echo "experiments_lines $(lines crates/experiments)"
echo "experiments_pub_items $(pubs crates/experiments/src)"
echo "run_cell_entries $(entries run_cell)"
echo "run_campaign_entries $(entries run_campaign)"
echo "simulate_entries $(entries simulate)"
