#!/bin/sh
# Style lint for invariants the OCaml toolchain does not enforce:
#   - no trailing whitespace (sources, docs, build files)
#   - no tab indentation in OCaml sources (this repo indents with spaces)
#   - no unresolved merge-conflict markers
#   - documented and used library interfaces, and docs that name only
#     values the libraries declare (see each check below)
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

# Every top-level value exported by a library interface (lib/*/*.mli)
# must be used somewhere: its name, as a whole word, has to occur in the
# OCaml sources of lib bin test bench examples perfbench/harness on some
# line other than a definition of it (a `val NAME` line of a checked
# interface, or a `let NAME` / `let rec NAME` / `and NAME` line of the
# paired implementation).  A value used only inside its own module
# passes here; drop it from the interface and the compiler's
# unused-value warning takes over.  No allowlist: delete an unused value
# instead.
vals=$(mktemp)
trap 'rm -f "$tmp" "$vals"' EXIT
awk '
  FNR == 1 { ml = FILENAME; sub(/\.mli$/, ".ml", ml) }
  /^val [a-z_]/ { n = $2; sub(/:.*$/, "", n); print n, FILENAME, FNR, ml }
' lib/*/*.mli >"$vals"
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

# Every backticked `Module.name` in README.md, DESIGN.md and docs/*.md
# whose Module is a library module (a lib/*/<module>.mli, or
# lib/workloads/workloads.ml, which has no interface) must name a `val`,
# `type`, `module`, `exception` or constructor declared there, so a
# deleted or renamed value takes its docs along.  Each step of a
# qualified path whose module is a library module counts
# (`Serve.Digest.component` checks `Digest`, `Sim.Snapshot.t` checks
# `Sim`).
decls=$(mktemp)
trap 'rm -f "$tmp" "$vals" "$decls"' EXIT
{
  for f in lib/*/*.mli; do
    awk -v mod="$(basename "$f" .mli)" '
      /^[ \t]*(val|external|module|exception) / { n = $2 }
      {
        line = $0
        while (match(line, /(^|[|=])[ \t]*[A-Z][A-Za-z0-9_\x27]*/)) {
          c = substr(line, RSTART, RLENGTH)
          line = substr(line, RSTART + RLENGTH)
          sub(/^[|=]?[ \t]*/, "", c)
          print toupper(substr(mod, 1, 1)) substr(mod, 2), c
        }
      }
      /^[ \t]*(type|and) / {
        n = $0
        sub(/^[ \t]*(type|and)[ \t]+(nonrec[ \t]+)?/, "", n)
        sub(/^[+-]?\x27[A-Za-z0-9_]+[ \t]+/, "", n)
        sub(/^\([^)]*\)[ \t]*/, "", n)
      }
      n != "" {
        sub(/[^A-Za-z0-9_\x27].*$/, "", n)
        print toupper(substr(mod, 1, 1)) substr(mod, 2), n
        n = ""
      }
    ' "$f"
  done
  awk '/^(let|let rec|and|type) / {
    n = $2; if (n == "rec") n = $3
    sub(/[^A-Za-z0-9_].*$/, "", n); print "Workloads", n
  }' lib/workloads/workloads.ml
} >"$decls"
awk '
  NR == FNR { declared[$1 SUBSEP $2] = 1; lib[$1] = 1; next }
  {
    n = split($0, part, "`")
    for (i = 2; i <= n; i += 2) {
      span = part[i]
      while (match(span,
          /[A-Z][A-Za-z0-9_]*(\.[A-Z][A-Za-z0-9_]*)*\.[A-Za-z_][A-Za-z0-9_\x27]*/)) {
        ref = substr(span, RSTART, RLENGTH)
        pre = substr(span, 1, RSTART - 1)
        span = substr(span, RSTART + RLENGTH)
        if (pre ~ /[A-Za-z0-9_]$/) continue
        k = split(ref, step, ".")
        for (j = 1; j < k; j++) {
          m = step[j]; v = step[j + 1]
          if ((m in lib) && !((m SUBSEP v) in declared))
            printf "%s:%d: `%s` names nothing %s declares\n", FILENAME, FNR,
              ref, m
        }
      }
    }
  }
' "$decls" README.md DESIGN.md docs/*.md >"$tmp"
report "docs name a library value that does not exist"

exit $status
