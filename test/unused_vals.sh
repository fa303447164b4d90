#!/bin/sh
# Checks the public surface of lib/**/*.mli twice and exits 1 on a finding.
#
# 1. Every public value and every optional argument needs a use outside its
#    own module; the script lists those that have none.
# 2. A public value or optional argument that only test/ or examples/ reach
#    must be listed in test/test_only_vals.txt (one entry per line, as the
#    script prints it; # starts a comment). The script lists the ones
#    missing from that allowlist and the allowlist entries that are no
#    longer test-only, so a diff that adds or retires a test-only value
#    says so.
#
# The scan reads the .ml/.mli sources of lib, bin, bench, test, examples and
# perfbench with comments and string literals blanked out, so a doc
# reference or a message is never a use.
#
# It ends by printing three counts: public values in lib/**/*.mli, optional
# arguments there, and allowlist entries.
#
# For each `val v` in lib/**/*.mli (module M), a use is a hit in another
# file that is
#   - qualified (`Q.v`) by M itself, by one of M's `module S : sig`
#     submodules, or by an alias that file binds to M (`module A = X.M`);
#   - or unqualified (`v`) in a file that opens M (`open X.M`,
#     `let open X.M in` or `M.( ... )`).
# A `Y.v` hit where Y is some other module is not a use. A value with no use
# should be private (or deleted). Operators are skipped. Two modules with
# one name in different libraries would qualify each other's hits.
#
# Each optional argument `?arg:` of `val v` in lib/**/*.mli is checked per
# function: it is used only where a call of v outside M passes `~arg` or
# `?arg`. A call of v is a hit found as for values above (qualified by M, a
# submodule or an alias, or bare in a file that opens M), and its arguments
# are what follows up to a closing bracket, a binary operator or a keyword
# that ends an application (`in`, `then`, `with`, ...), nested brackets
# skipped. So `~arg` passed to some other function is not a use. An
# argument no call passes is a knob only its default reaches: it should be
# a constant. One that only test/ or examples/ pass is listed as
# `<mli>: v ?arg`.
#
# Run from the repository root: sh test/unused_vals.sh [ROOT]. ROOT (default
# .) is the tree to check; test/unused_vals_fixture is one with a single
# planted finding, which dune runtest checks the script reports.
set -eu

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

cd "${1:-.}"
dirs=$(for d in lib bin bench test examples perfbench; do
  if [ -d "$d" ]; then echo "$d"; fi
done)
# shellcheck disable=SC2086
sources=$(find $dirs -name _build -prune -o -path test/unused_vals_fixture \
  -prune -o \( -name '*.ml' -o -name '*.mli' \) -print | sort)

# Blank comments (nested, with the strings and character literals inside
# them) and string literals ("..." and {|...|}) into a mirror tree.
for f in $sources; do mkdir -p "$tmp/${f%/*}"; done
# shellcheck disable=SC2086
awk -v out="$tmp/" '
FNR == 1 { depth = 0; instr = 0; inquoted = 0 }
{
  line = $0; n = length(line); o = ""; i = 1
  while (i <= n) {
    c = substr(line, i, 1); c2 = substr(line, i, 2)
    if (instr) {
      if (c == "\\") i += 2
      else { if (c == "\"") instr = 0; i++ }
    } else if (inquoted) {
      if (c2 == "|}") { inquoted = 0; i += 2 } else i++
    } else if (c2 == "(*") { depth++; i += 2
    } else if (depth > 0 && c2 == "*)") { depth--; i += 2
    } else if (c == "\"") { instr = 1; i++
    } else if (depth == 0 && c2 == "{|") { inquoted = 1; i += 2
    } else if (c == "\047" && substr(line, i + 2, 1) == "\047") { i += 3
    } else if (c == "\047" && substr(line, i + 1, 1) == "\\") {
      j = index(substr(line, i + 2), "\047")
      i = j > 0 ? i + 2 + j : n + 1
    } else {
      if (depth == 0) o = o c
      i++
    }
  }
  print o > (out FILENAME)
}' $sources
allowlist=$(pwd)/test/test_only_vals.txt
cd "$tmp"

# Argument pass of unused(): reads the call table (`arg M v a`, `own M F`,
# `qual M Q`, `alias M F A`, `open M F`, M an .mli and F an .ml), then the
# .ml sources as tokens, and records the labels each call of v passes (the
# call as the header defines it). Prints `M: v ?a` for each `arg` no call
# passes.
passes='
function scan(f,    i, j, k, x, m, q, t, u, depth, ms) {
  for (i = 1; i <= n; i++) {
    t = tok[i]
    if (!(t in valmods)) continue
    k = split(valmods[t], ms, " ")
    for (x = 1; x <= k; x++) {
      m = ms[x]
      if ((m, f) in own) continue
      if (tok[i - 1] == ".") {
        q = tok[i - 2]
        if (!((m, q) in qual) && !((m, f, q) in alias)) continue
      } else if (!((m, f) in opener) || tok[i - 1] in definer) continue
      depth = 0
      for (j = i + 1; j <= n; j++) {
        u = tok[j]
        if (u ~ /^[([{]$/ || u == "begin") depth++
        else if (u ~ /^[])}]$/ || u == "end") {
          if (depth == 0) break
          depth--
        } else if (depth > 0) continue
        else if (u ~ /^[~?][a-z_]/) {
          sub(/:$/, "", u)
          passed[m, t, substr(u, 2)] = 1
        } else if (u in ender) break
        else if (u ~ /^[-+*\/=<>@^|&$%:;,#]/ && tok[j - 1] !~ /^[~?].*:$/) break
      }
    }
  }
  n = 0
}
FILENAME == table {
  if ($1 == "arg") {
    if (!(($2, $3) in seen)) valmods[$3] = valmods[$3] " " $2
    seen[$2, $3] = 1
    order[++args] = $2 ": " $3 " ?" $4
    key[args] = $2 SUBSEP $3 SUBSEP $4
  } else if ($1 == "own") own[$2, $3] = 1
  else if ($1 == "qual") qual[$2, $3] = 1
  else if ($1 == "alias") alias[$2, $3, $4] = 1
  else if ($1 == "open") opener[$2, $3] = 1
  next
}
FNR == 1 { if (file != "") scan(file); file = FILENAME }
{
  line = $0
  while (line != "") {
    if (match(line, /^[ \t]+/)) { line = substr(line, RLENGTH + 1); continue }
    if (!match(line, /^[~?][a-z_][A-Za-z0-9_\047]*:?/) &&
        !match(line, /^[A-Za-z0-9_][A-Za-z0-9_\047]*/) &&
        !match(line, /^[-+*\/=<>@^|&$%!:;,.#]+/))
      match(line, /^./)
    tok[++n] = substr(line, 1, RLENGTH)
    line = substr(line, RLENGTH + 1)
  }
}
END {
  if (file != "") scan(file)
  for (i = 1; i <= args; i++) if (!(key[i] in passed)) print order[i]
}
BEGIN {
  split("let and rec val external method mutable", w, " ")
  for (i in w) definer[w[i]] = 1
  split("in let then else do done with and of to downto match if when fun " \
    "function try val type module open struct sig object external " \
    "exception include method", w, " ")
  for (i in w) ender[w[i]] = 1
}'

# unused SOURCES: prints `<mli>: val <v>` for each public value that no
# file of SOURCES outside its own module uses, and `<mli>: <v> ?<arg>` for
# each optional argument of v that no call of v in SOURCES outside its own
# module passes.
unused() {
  : >"$tmp/.calls"
  for mli in $(find lib -name '*.mli' | sort); do
    ml=${mli%i}
    base=${mli##*/}
    base=${base%.mli}
    first=$(printf '%s' "$base" | cut -c1 | tr a-z A-Z)
    mod=$first$(printf '%s' "$base" | cut -c2-)
    # shellcheck disable=SC2086
    others=$(printf '%s\n' $1 | grep -vx -e "$mli" -e "$ml")
    subs=$(sed -n "s/^ *module \([A-Z][A-Za-z0-9_']*\) *: *sig.*/\1/p" "$mli")
    quals=$(printf '%s\n' "$mod" $subs | paste -sd'|' -)
    bind="([A-Z][A-Za-z0-9_']*\\.)*$mod\\b([^.]|\$)"
    # One "file alias" line per alias another file binds to M.
    # shellcheck disable=SC2086
    aliased=$(grep -oE "module [A-Z][A-Za-z0-9_']* *= *$bind" $others |
      sed -E "s/^([^:]*):module ([A-Z][A-Za-z0-9_']*).*/\\1 \\2/")
    # shellcheck disable=SC2086
    openers=$(grep -lE "\\b(let +)?open!? +$bind|\\b$mod\\.\\(" $others || true)
    for v in $(sed -n "s/^ *val \([a-z_][A-Za-z0-9_']*\).*/\1/p" "$mli" | sort -u); do
      # shellcheck disable=SC2086
      if grep -qE "\\b($quals)\\.$v\\b" $others ||
        { [ -n "$openers" ] && grep -qw -e "$v" $openers; }; then
        continue
      fi
      used=0
      while read -r f a; do
        if [ -n "$f" ] && grep -qE "\\b$a\\.$v\\b" "$f"; then
          used=1
          break
        fi
      done <<ALIASES
$aliased
ALIASES
      if [ "$used" -eq 0 ]; then
        echo "$mli: val $v"
      fi
    done
    # `v a` for each `?a:` in the declaration of `val v`.
    args=$(awk '
      /^ *(type|module|end|exception|include|external|class|open)([ :]|$)/ { v = "" }
      /^ *val / { v = $2; sub(/:.*/, "", v) }
      v != "" {
        s = $0
        while (match(s, /[?][a-z_][A-Za-z0-9_]*:/)) {
          print v, substr(s, RSTART + 1, RLENGTH - 2)
          s = substr(s, RSTART + RLENGTH)
        }
      }' "$mli")
    if [ -n "$args" ]; then
      {
        printf '%s\n' "$args" | sed "s|^|arg $mli |"
        echo "own $mli $ml"
        printf "qual $mli %s\\n" "$mod" $subs
        printf '%s\n' "$aliased" | sed -n "s|^\\(..*\\)|alias $mli \\1|p"
        for f in $openers; do echo "open $mli $f"; done
      } >>"$tmp/.calls"
    fi
  done
  # shellcheck disable=SC2086
  awk -v table="$tmp/.calls" "$passes" "$tmp/.calls" \
    $(printf '%s\n' $1 | grep '\.ml$')
}

unused "$sources" >"$tmp/.dead"
# shellcheck disable=SC2086
unused "$(printf '%s\n' $sources | grep -v -e '^test/' -e '^examples/')" \
  >"$tmp/.outside_tests"
grep -vxF -f "$tmp/.dead" "$tmp/.outside_tests" >"$tmp/.test_only" || true
: >"$tmp/.allowed"
if [ -f "$allowlist" ]; then
  grep -v -e '^#' -e '^ *$' "$allowlist" | sort >"$tmp/.allowed" || true
fi

findings=0
while read -r entry; do
  case $entry in
  *": val "*) echo "$entry has no caller outside its module" ;;
  *) echo "$entry is passed by no caller outside its module" ;;
  esac
  findings=$((findings + 1))
done <"$tmp/.dead"
while read -r entry; do
  if ! grep -qxF "$entry" "$tmp/.allowed"; then
    echo "$entry is reached only from test/ or examples/ and is not in test/test_only_vals.txt"
    findings=$((findings + 1))
  fi
done <"$tmp/.test_only"
while read -r entry; do
  if ! grep -qxF "$entry" "$tmp/.test_only"; then
    echo "test/test_only_vals.txt: $entry is no longer test-only"
    findings=$((findings + 1))
  fi
done <"$tmp/.allowed"
# The surface's size, for change notes to cite: public values, optional
# arguments (each `?arg:` of a signature) and allowlist entries.
mlis=$(find lib -name '*.mli')
# shellcheck disable=SC2086
echo "public vals: $(cat $mlis | grep -c '^ *val ')"
# shellcheck disable=SC2086
echo "optional arguments: $(cat $mlis | grep -o '?[a-z_][A-Za-z0-9_]*:' | wc -l)"
echo "allowlist entries: $(wc -l <"$tmp/.allowed")"
if [ "$findings" -ne 0 ]; then
  echo "$findings unused or unlisted test-only public value(s) or optional argument(s)"
  exit 1
fi
