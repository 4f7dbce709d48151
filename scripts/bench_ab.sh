#!/bin/sh
# Same-host A/B comparison of the bench readings: build <rev> (A) in a
# scratch directory and the working tree (B) in place, run both bench
# binaries' --artifacts-only mode [runs] times each (default 5),
# alternating which side runs first, and print every gate's readings
# side by side with their medians.
#
#   scripts/bench_ab.sh <rev> [runs]
#
# <rev> is exported with `git archive`, so an interrupted run leaves no
# worktree registered in the repository; the scratch directory is
# removed on exit.  Readings are taken from the section lines both
# sides print (not from the verdict table, which older revisions lack),
# so a reading a side did not reach shows as "-".  Exits non-zero only
# when a build fails.
set -eu

rev=${1:?usage: scripts/bench_ab.sh <rev> [runs]}
runs=${2:-5}
root=$(git rev-parse --show-toplevel)
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

mkdir "$scratch/a" "$scratch/out"
git -C "$root" archive "$rev" | tar -x -C "$scratch/a"
echo "building $rev (A) in $scratch/a ..."
(cd "$scratch/a" && dune build --root . bench/main.exe)
echo "building the working tree (B) ..."
(cd "$root" && dune build bench/main.exe)
bin_a="$scratch/a/_build/default/bench/main.exe"
bin_b="$root/_build/default/bench/main.exe"

run() { # side run-index
  if [ "$1" = a ]; then bin=$bin_a; else bin=$bin_b; fi
  echo "run $2, side $1 ..."
  (cd "$scratch/out" && "$bin" --artifacts-only >"$1.$2.txt" 2>&1) || true
}

i=1
while [ "$i" -le "$runs" ]; do
  if [ $((i % 2)) -eq 1 ]; then run a "$i"; run b "$i"
  else run b "$i"; run a "$i"; fi
  i=$((i + 1))
done

# One "key<TAB>value" line per reading of one bench output.  [num]
# takes its pattern as a string: a bare /re/ argument would be matched
# against $0 instead.
readings() {
  awk '
    function num(s, re) {
      if (!match(s, re)) return ""
      s = substr(s, RSTART, RLENGTH)
      match(s, "[-+]?[0-9][0-9.]*")
      return substr(s, RSTART, RLENGTH)
    }
    function put(k, v) { if (v != "") printf "%s\t%s\n", k, v }
    /^E3 pipeline, min of/ { put("E16 overhead %", num($0, "overhead [-+0-9.]+%")) }
    /^engine-fda-500t / || /^random-dfd-200-32t / {
      put("E17 " $1 " indexed ms", $3)
      put("E17 " $1 " speedup", num($4, "[0-9.]+"))
    }
    /^door-lock campaign, 16 seeds/ {
      put("E17 parallel speedup", num($0, "[0-9.]+x on"))
    }
    /^door-lock campaign, 8 seeds/ {
      put("E18 warm-cache speedup", num($0, "[0-9.]+x[)]; reports"))
    }
    /hand-assembled loop [0-9]/ {
      put("E19 builder overhead", num($0, "[0-9.]+x[)]; verdicts"))
    }
    /^door-lock twin, bound/ {
      put("E20 warm-cache speedup", num($0, "[0-9.]+x[)]; reports"))
    }
    /^random-dfd-200, 1000 instances/ {
      put("E21 looped ms", num($0, "looped [0-9.]+ ms"))
      put("E21 cold ratio", num($0, "[0-9.]+x[)], batched warm"))
      put("E21 warm ratio", num($0, "[0-9.]+x[)]$"))
    }
    /^litmus k=2,/ {
      put("E22 litmus looped ms", num($0, "looped [0-9.]+ ms"))
      put("E22 litmus shared ms", num($0, "prefix-shared [0-9.]+ ms"))
      put("E22 litmus ratio", num($0, "[0-9.]+x[)]; reports"))
    }
    /^robustness sweep, / {
      put("E22 sweep ratio", num($0, "[0-9.]+x[)], prefix-shared at"))
      put("E22 batched/serial", num($0, "[0-9.]+x the serial"))
    }
  ' "$1"
}

for f in "$scratch"/out/*.txt; do readings "$f" >"${f%.txt}.tsv"; done

keys=$(cat "$scratch"/out/*.tsv | cut -f1 | awk '!seen[$0]++')
printf '%-34s | %-44s | %s\n' "reading" "A: $rev" "B: working tree"
echo "$keys" | while IFS= read -r key; do
  line=$(printf '%-34s' "$key")
  for side in a b; do
    vals=""
    i=1
    while [ "$i" -le "$runs" ]; do
      v=$(awk -F '\t' -v k="$key" '$1 == k { print $2 }' "$scratch/out/$side.$i.tsv")
      vals="$vals ${v:--}"
      i=$((i + 1))
    done
    med=$(echo "$vals" | tr ' ' '\n' | grep -v '^-*$' | sort -g |
      awk '{ v[NR] = $1 } END {
        if (NR == 0) print "-"
        else if (NR % 2) print v[(NR + 1) / 2]
        else print (v[NR / 2] + v[NR / 2 + 1]) / 2 }')
    line="$line | $(printf '%-44s' "${vals# } (med $med)")"
  done
  echo "$line"
done
