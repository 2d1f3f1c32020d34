#!/usr/bin/env bash
# Per-function CPU profile of a command, without perf.  Builds
# sampler.c into an LD_PRELOAD library, runs the command under it and
# symbolizes the sampled program counters against `nm` of the profiled
# executable.
#
#   bash tools/prof/profile.sh [-o DIR] [-n TOP] -- CMD [ARGS...]
#   bash tools/prof/profile.sh --diff BEFORE.txt AFTER.txt
#
# Profile mode prints a table of sample count, share of all samples and
# function, most sampled first (TOP rows, default 25; "[outside the
# executable]" collects libc and kernel time), and writes it to
# DIR/profile.txt (DIR defaults to a fresh temporary directory).  Run the
# executable itself rather than a script that `exec`s it: a process that
# execs keeps its profiling timer but loses the handler.  Only processes
# whose executable path contains CMD's basename are sampled; with several
# (CMD forks copies of itself), the one with the most samples is shown.
# Samples are taken every millisecond of CPU time.  Exits 1 if no sample
# falls inside a known function.
#
# Diff mode compares two saved tables: share before, share after and the
# change in percentage points, largest change first.  OCaml functions are
# matched without the numeric stamp the compiler appends to their names
# (it changes from build to build), so same-named functions of one module
# are summed; a function missing from a table (below its TOP rows) counts
# as 0%.
set -euo pipefail

if [ "${1:-}" = "--diff" ]; then
  [ $# -eq 3 ] || { echo "usage: $0 --diff BEFORE.txt AFTER.txt" >&2; exit 2; }
  awk 'FNR == 1 { f++ }
       $1 ~ /^[0-9]+$/ {
         s = $0; sub(/^[^ ]+ [^ ]+ /, "", s)
         if (s ~ /^caml.*\./) sub(/_[0-9]+$/, "", s)
         seen[s] = 1; if (f == 1) a[s] += $2; else b[s] += $2
       }
       END {
         printf "%8s %8s %7s  %s\n", "before", "after", "delta", "function"
         for (s in seen) {
           d = b[s] - a[s]
           printf "%.3f\t%7.1f%% %7.1f%% %+7.1f  %s\n", (d < 0 ? -d : d), a[s], b[s], d, s
         }
       }' "$2" "$3" | { read -r header; echo "$header"; sort -rn | cut -f2-; }
  exit 0
fi

dir= top=25
while [ $# -gt 0 ]; do
  case "$1" in
    -o) dir=$2; shift 2 ;;
    -n) top=$2; shift 2 ;;
    --) shift; break ;;
    *) echo "usage: $0 [-o DIR] [-n TOP] -- CMD [ARGS...]" >&2; exit 2 ;;
  esac
done
[ $# -gt 0 ] || { echo "$0: no command given" >&2; exit 2; }
dir=${dir:-$(mktemp -d "${TMPDIR:-/tmp}/prof.XXXXXX")}
mkdir -p "$dir"
rm -f "$dir"/samples.*

here=$(cd "$(dirname "$0")" && pwd)
gcc -O2 -shared -fPIC -o "$dir/sampler.so" "$here/sampler.c"

status=0
PROF_OUT="$dir/samples" PROF_MATCH="$(basename "$1")" \
  LD_PRELOAD="$dir/sampler.so" "$@" >&2 || status=$?
[ "$status" -eq 0 ] || echo "profile: command exited with status $status" >&2

samples=$(wc -l "$dir"/samples.* 2>/dev/null | grep -v ' total$' | sort -rn |
  awk 'NR == 1 { print $2 }')
[ -n "$samples" ] || { echo "profile: no samples written" >&2; exit 1; }
exe=$(head -n 1 "$samples" | cut -c3-)

# Text symbols by decimal address, then one merge pass over the sorted
# sample offsets.
nm -n -t d --defined-only "$exe" | awk '$2 ~ /^[tTwW]$/ { print $1, $3 }' \
  > "$dir/symbols"
tail -n +2 "$samples" | sort -n > "$dir/sorted"
awk -v top="$top" '
  NR == FNR { addr[n] = $1 + 0; name[n] = $2; n++; next }
  { total++
    if ($1 < 0) { count["[outside the executable]"]++; next }
    while (i + 1 < n && addr[i + 1] <= $1 + 0) i++
    if (n > 0 && addr[i] <= $1 + 0) { count[name[i]]++; known++ }
    else count["[unknown]"]++ }
  END {
    printf "# %d samples, %d in known functions\n", total, known
    for (s in count) printf "%d %.1f%% %s\n", count[s], 100 * count[s] / total, s
  }' "$dir/symbols" "$dir/sorted" |
  { read -r header; echo "$header"; sort -rn | head -n "$top"; } \
  > "$dir/profile.txt"
cat "$dir/profile.txt"
echo "profile: table and samples in $dir" >&2
grep -q '^# [0-9]* samples, [1-9]' "$dir/profile.txt" || {
  echo "profile: no sample fell inside a known function" >&2
  exit 1
}
