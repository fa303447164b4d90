#!/bin/sh
# Lists every public value and every optional argument that nothing outside
# its own module uses, and exits 1 if there is one.
#
# For each `val v` in lib/**/*.mli, looks for `v` as a whole word in the
# .ml/.mli sources of lib, bin, bench, test, examples and perfbench, leaving
# out the module's own .ml/.mli pair. A hit counts as a use only when it is
# qualified (`X.v`) or sits in a file that does not itself define a `v`
# (`let`, `and` or `val`): a same-named definition elsewhere is not a
# caller. A value with no use should be private (or deleted). Operators are
# skipped.
#
# For each optional argument `?arg:` in lib/**/*.mli, looks for `~arg` or
# `?arg` in the .ml sources of the same directories, again leaving out the
# module's own pair. An argument no caller passes is a knob only its default
# reaches: it should be a constant.
#
# An unqualified use of a name that another module happens to use too can
# hide a dead value or argument, so the scan may miss some. It can flag a
# value used only unqualified, through an `open`, in a file that defines
# the same name; qualify that use.
#
# Run from the repository root: sh test/unused_vals.sh
set -eu

sources=$(find lib bin bench test examples perfbench -name _build -prune \
  -o \( -name '*.ml' -o -name '*.mli' \) -print)
dead=0
for mli in $(find lib -name '*.mli' | sort); do
  ml=${mli%i}
  others=$(printf '%s\n' $sources | grep -vx -e "$mli" -e "$ml")
  for v in $(sed -n "s/^ *val \([a-z_][A-Za-z0-9_']*\).*/\1/p" "$mli" | sort -u); do
    used=0
    # shellcheck disable=SC2086
    for f in $(grep -lw -e "$v" $others); do
      if grep -qE "[A-Z][A-Za-z0-9_']*\.$v\b" "$f" ||
        ! grep -qE "^[[:space:]]*(let|and|val)([[:space:]]+rec)?[[:space:]]+$v\b" "$f"; then
        used=1
        break
      fi
    done
    if [ "$used" -eq 0 ]; then
      echo "$mli: val $v has no caller outside its module"
      dead=$((dead + 1))
    fi
  done
  other_ml=$(printf '%s\n' $others | grep '\.ml$')
  for a in $(grep -o '?[a-z_][A-Za-z0-9_]*:' "$mli" | tr -d '?:' | sort -u); do
    # shellcheck disable=SC2086
    if ! grep -qE -e "[~?]$a\\b" $other_ml; then
      echo "$mli: ?$a is passed by no caller outside its module"
      dead=$((dead + 1))
    fi
  done
done
if [ "$dead" -ne 0 ]; then
  echo "$dead unused public value(s) or optional argument(s)"
  exit 1
fi
