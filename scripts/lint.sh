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

exit $status
