#!/usr/bin/env bash
# pairs.sh — time a change against its parent with the benchmark.
#
#   scripts/pairs.sh <parent-rev> <workload> [pairs] [seconds] [seed]
#
# Checks <parent-rev> out in a temporary git worktree, then runs
# `bash perfbench/run.sh --workload <workload>` untraced in the parent
# checkout and in this one, [pairs] times each (default 10), each run for
# [seconds] (default 25) at [seed] (default 1). The runs alternate between
# the checkouts, and so does which side runs first in a pair, so drift in the
# host's speed falls on both sides alike. Last it prints
# `bash perfbench/run.sh --compare` over the two sides and exits with its
# status. The change is this checkout's working tree as it stands. Each run
# builds from its own checkout's source, outside the timed phase. The
# outputs stay in .pairs/<workload>-s<seed>/ (parent.out, change.out); the
# worktree is removed on exit. Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ] || [ $# -gt 5 ]; then
    echo "usage: scripts/pairs.sh <parent-rev> <workload> [pairs] [seconds] [seed]" >&2
    exit 2
fi
rev=$1 workload=$2 pairs=${3:-10} seconds=${4:-25} seed=${5:-1}
root=$(pwd)
out="$root/.pairs/$workload-s$seed"
parent=$(mktemp -d "${TMPDIR:-/tmp}/pairs-parent.XXXXXX")
cleanup() {
    git -C "$root" worktree remove --force "$parent" >/dev/null 2>&1 || true
    rm -rf "$parent"
}
trap cleanup EXIT
git worktree add --detach "$parent" "$rev" >/dev/null

mkdir -p "$out"
: >"$out/parent.out"
: >"$out/change.out"
run=(bash perfbench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0)
for i in $(seq "$pairs"); do
    sides=(parent change)
    if ((i % 2 == 0)); then
        sides=(change parent)
    fi
    for side in "${sides[@]}"; do
        echo "pairs: $i/$pairs $side" >&2
        if [ "$side" = parent ]; then
            (cd "$parent" && "${run[@]}") >>"$out/parent.out"
        else
            "${run[@]}" >>"$out/change.out"
        fi
    done
done
bash perfbench/run.sh --compare "$out/parent.out" "$out/change.out"
