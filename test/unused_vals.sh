#!/bin/sh
# Lists every public value that nothing outside its own module uses, and
# exits 1 if there is one.
#
# For each `val v` in lib/**/*.mli, looks for `v` as a whole word in the
# .ml/.mli sources of lib, bin, bench, test, examples and perfbench, leaving
# out the module's own .ml/.mli pair. A value found nowhere else should be
# private (or deleted). Operators are skipped. A name that another module
# happens to use too can hide a dead value, so the scan may miss some; it
# never flags a value that has an outside caller.
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
    # shellcheck disable=SC2086
    if ! grep -qw -e "$v" $others; then
      echo "$mli: val $v has no caller outside its module"
      dead=$((dead + 1))
    fi
  done
done
if [ "$dead" -ne 0 ]; then
  echo "$dead unused public value(s)"
  exit 1
fi
