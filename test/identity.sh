#!/bin/sh
# Byte-identity check: recomputes every line of the manifest
# (test/identity.digests) and exits 1 if any digest differs.
#
# A manifest line is `NAME MD5 COMMAND`. COMMAND is a short sh sequence run
# in a fresh empty directory, with $SW (the stopwatch CLI), $BENCH (the
# bench harness) and $SCN (the examples directory) set. The line's report
# is the file `report` when the command writes one (`-o report`), and the
# command's stdout otherwise; MD5 is the digest of its bytes. Blank lines
# and `#` comments are kept as they are.
#
# On a mismatch it prints the line's name with the expected and actual
# digests, then the whole recomputed manifest: a deliberate byte change is
# a copy of the lines it moves, made in the same diff as the change.
#
# Usage: sh test/identity.sh STOPWATCH_CLI BENCH_MAIN EXAMPLES_DIR [MANIFEST]
# (`dune build @identity` runs it on the built executables.)
set -u

abs() { (cd "$(dirname "$1")" && printf '%s/%s' "$(pwd)" "$(basename "$1")"); }
SW=$(abs "$1")
BENCH=$(abs "$2")
SCN=$(cd "$3" && pwd)
manifest=${4:-$(dirname "$0")/identity.digests}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
recomputed=$work/identity.digests
status=0
n=0

while IFS= read -r line; do
  case $line in
  '' | '#'*)
    printf '%s\n' "$line" >>"$recomputed"
    continue
    ;;
  esac
  read -r name expected cmd <<EOF
$line
EOF
  n=$((n + 1))
  dir=$work/$n
  mkdir "$dir"
  if (cd "$dir" && eval "$cmd") <"/dev/null" >"$dir/stdout" 2>"$dir/stderr"
  then
    out=$dir/stdout
    [ -f "$dir/report" ] && out=$dir/report
    actual=$(md5sum <"$out" | cut -d' ' -f1)
  else
    echo "identity: $name: command failed; its stderr:"
    sed 's/^/  /' "$dir/stderr"
    actual=failed
  fi
  if [ "$actual" != "$expected" ]; then
    echo "identity: $name: expected $expected, got $actual"
    status=1
  fi
  printf '%-20s %s %s\n' "$name" "$actual" "$cmd" >>"$recomputed"
done <"$manifest"

if [ "$status" -ne 0 ]; then
  echo "identity: recomputed manifest:"
  cat "$recomputed"
else
  echo "identity: $n reports byte-identical to the manifest"
fi
exit "$status"
