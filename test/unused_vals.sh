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
# For each optional argument `?arg:` in lib/**/*.mli, looks for `~arg` or
# `?arg` in the other .ml sources. An argument no caller passes is a knob
# only its default reaches: it should be a constant.
#
# Run from the repository root: sh test/unused_vals.sh
set -eu

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

sources=$(find lib bin bench test examples perfbench -name _build -prune \
  -o \( -name '*.ml' -o -name '*.mli' \) -print | sort)

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

# unused SOURCES: prints `<mli>: val <v>` for each public value and
# `<mli>: ?<arg>` for each optional argument that no file of SOURCES outside
# its own module uses.
unused() {
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
    other_ml=$(printf '%s\n' $others | grep '\.ml$')
    for a in $(grep -o '?[a-z_][A-Za-z0-9_]*:' "$mli" | tr -d '?:' | sort -u); do
      # shellcheck disable=SC2086
      if ! grep -qE -e "[~?]$a\\b" $other_ml; then
        echo "$mli: ?$a"
      fi
    done
  done
}

unused "$sources" >"$tmp/.dead"
# shellcheck disable=SC2086
unused "$(printf '%s\n' $sources | grep -v -e '^test/' -e '^examples/')" \
  >"$tmp/.outside_tests"
grep -vxF -f "$tmp/.dead" "$tmp/.outside_tests" >"$tmp/.test_only" || true
grep -v -e '^#' -e '^ *$' "$allowlist" | sort >"$tmp/.allowed" || true

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
