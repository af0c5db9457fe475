#!/usr/bin/env bash
#
# Sample a command's CPU profile with the SIGPROF sampler and print the
# hottest functions.
#
#   scripts/sample_profile.sh [-m actor|self] [-u NAME] -- CMD [ARGS...]
#
# Builds scripts/profile/sigprof_sampler.c into build/profile/, runs CMD
# with it preloaded (from the repository root), and summarizes the
# samples it writes to build/profile/profile.samples with
# scripts/profile/symbolize.py. -m picks how a sample is charged (its
# innermost coroutine body, or its innermost function); -u keeps only
# samples with a frame named NAME on their stack.
#
# Example, the create loop's measured window:
#
#   scripts/sample_profile.sh -u measure_window -- \
#       .bench_build/perfbench/lfsbench --workload lfs-write --seed 5 \
#       --seconds 10 --trace 0
#
# lfsbench's metrics_finite check fails under SIGPROF (the timer signal
# upsets its normalised host clock) and it exits 1 without a result line;
# the profile is written at exit all the same, and this script still
# reports it. The command's exit status is passed through.

set -uo pipefail

usage() { sed -n '6p' "$0" >&2; exit 2; }

cd "$(dirname "$0")/.."
mode="actor"
under=()
while getopts "m:u:" opt; do
    case "$opt" in
        m) mode="$OPTARG" ;;
        u) under=(--under "$OPTARG") ;;
        *) usage ;;
    esac
done
shift $((OPTIND - 1))
[[ "${1:-}" == "--" ]] && shift
[[ $# -eq 0 ]] && usage

mkdir -p build/profile
dir="$(pwd)/build/profile"
out="$dir/profile.samples"
lib="$dir/sigprof_sampler.so"
rm -f "$out"
# The output path is compiled in, so rebuild every run (well under a second).
cc -O2 -shared -fPIC -DSAMPLER_OUT="\"$out\"" -o "$lib" \
    scripts/profile/sigprof_sampler.c || exit 1

LD_PRELOAD="$lib${LD_PRELOAD:+:$LD_PRELOAD}" "$@"
status=$?
if [[ ! -f "$out" ]]; then
    echo "sample_profile: no profile written to $out" >&2
    exit 1
fi
python3 scripts/profile/symbolize.py "$out" --mode "$mode" "${under[@]}"
exit "$status"
