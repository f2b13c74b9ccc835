#!/usr/bin/env bash
# Size of the code and of its public surface — the counts ROADMAP asks
# every simplicity PR to record in CHANGES.md. Run from anywhere; prints
# one `name value` line per count.
set -euo pipefail
cd "$(dirname "$0")/.."

lines() { find "$@" -name '*.rs' -print0 | xargs -0 cat | wc -l; }
pubs() { grep -rhE '^\s*pub (fn|struct|enum|trait|const|static|type|mod|use) ' "$@" | wc -l; }
# Names re-exported by the `pub use` statements of one file.
api() {
  tr '\n' ' ' < "$1" | grep -oE 'pub use [^;]+;' | sed -E 's/^pub use [a-z_:]*:://; s/[{};]//g' |
    tr ',' '\n' | grep -cE '\w'
}
# Public fields of the product `pub struct *Config` types: the values a
# caller can set.
config_fields() {
  find crates/*/src src -name '*.rs' -print0 | xargs -0 awk '
    /^pub struct [A-Za-z]*Config \{/ { inside = 1; next }
    inside && /^\}/ { inside = 0 }
    inside && /^    pub [a-z0-9_]+:/ { n++ }
    END { print n + 0 }'
}
entries() { grep -rhoE "pub fn $1\w*" crates/*/src src | sort -u | wc -l; }
# Names defined exactly once as `pub fn` in product source and
# word-matched in no other `*.rs` file (tests, examples and bench/
# included): exported, and nothing outside the defining file says so.
unreferenced() {
  grep -rHoE --include='*.rs' 'pub fn \w+' crates/*/src src | sed -E 's/:pub fn / /' |
    awk 'NR == FNR { defs[$2]++; home[$2] = $1; next }
         { i = index($0, ":"); file = substr($0, 1, i - 1); word = substr($0, i + 1)
           if ((word in defs) && defs[word] == 1 && home[word] != file) named[word] = 1 }
         END { for (w in defs) if (defs[w] == 1 && !(w in named)) n++; print n + 0 }' \
      - <(grep -roE --include='*.rs' --exclude-dir=target '\w+' crates src tests examples bench)
}
# Distinct product names `bench/` imports: the leaves of its `use
# predictsim_*` lists (multi-line ones included) plus names it reaches by
# path in code (`predictsim_sim::audit`); its own `predictsim_perfbench`
# is not product.
bench_contact() {
  local code
  code=$(find bench/src bench/tests -name '*.rs' -print0 | xargs -0 sed -E 's@//.*$@@' | tr '\n' ' ')
  {
    grep -oE 'use predictsim_[a-z]+::[^;]+;' <<< "$code" | grep -v '^use predictsim_perfbench' |
      sed -E 's/^use predictsim_[a-z]+:://; s/[{};]/ /g' | tr ',' '\n' | sed -E 's/.*:://'
    sed -E 's/use predictsim_[a-z]+::[^;]+;//g' <<< "$code" |
      grep -oE 'predictsim_[a-z]+(::\w+)+' | grep -v '^predictsim_perfbench' | sed -E 's/.*:://'
  } | tr -d ' ' | grep -vxE 'self|' | sort -u | wc -l
}

echo "rust_lines $(lines crates src tests examples vendor)"
echo "vendor_lines $(lines vendor)"
echo "pub_items $(pubs crates/*/src src)"
echo "experiments_lines $(lines crates/experiments)"
echo "experiments_pub_items $(pubs crates/experiments/src)"
echo "sim_pub_items $(pubs crates/sim/src)"
echo "sim_api_items $(api crates/sim/src/lib.rs)"
for c in core experiments serve workload swf metrics; do
  echo "${c}_api_items $(api "crates/$c/src/lib.rs")"
done
echo "swf_pub_items $(pubs crates/swf/src)"
echo "run_cell_entries $(entries run_cell)"
echo "run_campaign_entries $(entries run_campaign)"
echo "simulate_entries $(entries simulate)"
echo "config_fields $(config_fields)"
echo "stats_structs $(grep -rhE 'pub struct \w*Stats\b' crates/*/src src | wc -l)"
echo "unreferenced_pub_fns $(unreferenced)"
echo "cli_flags $(grep -cE '^\s+"--[a-z-]+"( \| "-[a-z]")? =>' src/bin/repro.rs)"
echo "fault_sites $(sed -n '/^const KNOWN_SITES/,/^];/p' crates/faultline/src/lib.rs | grep -c '^    "')"
echo "bench_contact $(bench_contact)"
