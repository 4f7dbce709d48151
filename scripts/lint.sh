#!/bin/sh
# Style lint for invariants the OCaml toolchain does not enforce:
#   - no trailing whitespace (sources, docs, build files)
#   - no tab indentation in OCaml sources (this repo indents with spaces)
#   - no unresolved merge-conflict markers
# PAPERS.md and SNIPPETS.md are vendored reference text and exempt from
# the whitespace rules.  Run from the repository root; exits non-zero
# listing every offending line.  CI runs this alongside build + runtest.
set -u

status=0
tab=$(printf '\t')
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

report() {
  if [ -s "$tmp" ]; then
    echo "lint: $1" >&2
    cat "$tmp" >&2
    status=1
  fi
}

git grep --untracked -nI -e "[ $tab]\$" -- \
  '*.ml' '*.mli' '*.md' '*.yml' '*.sh' 'dune-project' '*/dune' \
  ':!PAPERS.md' ':!SNIPPETS.md' >"$tmp" || true
report "trailing whitespace"

git grep --untracked -nI -e "^$tab" -- '*.ml' '*.mli' >"$tmp" || true
report "tab indentation in OCaml source"

git grep --untracked -nI -e '^<<<<<<< ' -e '^>>>>>>> ' -e '^||||||| ' -- \
  '*.ml' '*.mli' '*.md' '*.yml' >"$tmp" || true
report "merge conflict marker"

# Every public value in the observability, redundancy and campaign
# service interfaces, the simulator, the campaign executor, the fault
# catalog and scenarios must carry an odoc comment (this repo documents
# values with a (** ... *) immediately after the declaration).  A val
# with no doc comment before the next val (or EOF) is flagged.
for f in lib/obs/*.mli lib/litmus/*.mli lib/proptest/*.mli lib/redund/*.mli lib/serve/*.mli \
  lib/core/sim.mli lib/robust/prefix.mli lib/robust/fault.mli \
  lib/robust/scenario.mli; do
  awk -v file="$f" '
    /^val / {
      if (pending != "" && !documented)
        printf "%s:%d: undocumented public value: %s\n", file, pline, pending
      pending = $2; sub(/:$/, "", pending); pline = NR; documented = 0
    }
    /\(\*\*/ { documented = 1 }
    END {
      if (pending != "" && !documented)
        printf "%s:%d: undocumented public value: %s\n", file, pline, pending
    }
  ' "$f"
done >"$tmp"
report "undocumented public .mli value (lib/obs, lib/litmus, lib/proptest, lib/redund, lib/serve, lib/core/sim.mli, lib/robust/{prefix,fault,scenario}.mli)"

# Every top-level value exported by the campaign stack and the simulator
# must be used somewhere: its name, as a whole word, has to occur in the
# OCaml sources of lib bin test bench examples perfbench/harness on some
# line other than a definition of it (a `val NAME` line of a checked
# interface, or a `let NAME` / `let rec NAME` / `and NAME` line of the
# paired implementation).  A value used only inside its own module
# passes.  No allowlist: delete an unused value instead.
vals=$(mktemp)
trap 'rm -f "$tmp" "$vals"' EXIT
api="lib/robust/*.mli lib/proptest/*.mli lib/litmus/*.mli lib/obs/*.mli \
  lib/serve/*.mli lib/redund/*.mli lib/guard/*.mli lib/core/sim.mli"
# shellcheck disable=SC2086
awk '
  FNR == 1 { ml = FILENAME; sub(/\.mli$/, ".ml", ml) }
  /^val [a-z_]/ { n = $2; sub(/:.*$/, "", n); print n, FILENAME, FNR, ml }
' $api >"$vals"
srcs=$(git ls-files -co --exclude-standard -- \
  'lib/*.ml' 'lib/*.mli' 'bin/*.ml' 'bin/*.mli' 'test/*.ml' 'test/*.mli' \
  'bench/*.ml' 'bench/*.mli' 'examples/*.ml' 'examples/*.mli' \
  'perfbench/harness/*.ml' 'perfbench/harness/*.mli' |
  while read -r f; do [ -f "$f" ] && echo "$f"; done)
# shellcheck disable=SC2086
awk '
  NR == FNR {
    k++; name[k] = $1; at[k] = $2 ":" $3
    declared[$1] = 1; val_line[$2 ":" $3] = $1; impl[$4 SUBSEP $1] = 1
    next
  }
  {
    n = split($0, w, /[^A-Za-z0-9_]+/)
    for (i = 1; i <= n; i++) {
      t = w[i]
      if (!(t in declared) || (t in used)) continue
      if (val_line[FILENAME ":" FNR] == t) continue
      if ((FILENAME SUBSEP t) in impl &&
          $0 ~ ("^(let|let rec|and) " t "([^A-Za-z0-9_]|$)")) continue
      used[t] = 1
    }
  }
  END {
    for (i = 1; i <= k; i++)
      if (!(name[i] in used))
        printf "%s: exported value %s is never used\n", at[i], name[i]
  }
' "$vals" $srcs >"$tmp"
report "unused exported value (remove it, or use it)"

exit $status
