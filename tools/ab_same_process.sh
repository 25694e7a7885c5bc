#!/usr/bin/env bash
# Same-process A/B timing of the simulator against an older commit.
#
#   tools/ab_same_process.sh BASE_REF
#
# Run from anywhere inside the repository.  Extracts BASE_REF with
# git archive, compiles both that tree's and the working tree's
# src/{support,isa,masm,sim,obs,analysis,mpc,bio,kernels,workloads}/*.cc
# at -O2 -g -DNDEBUG (namespace bp5 renamed to bp5_base and bp5_head
# with -D, so both link into one binary), and runs
# tools/ab_same_process.cc: 30 interleaved repetitions of functional,
# SMARTS-sampled and full-timing simulation of the four class-B
# applications (seed 1, 2000000 instructions per application and
# mode), alternating which side runs first.  It refuses to report if
# the two sides' counters differ, and otherwise prints the head/base
# MIPS ratio per mode as median [p25, p75] with the number of
# repetitions the head won.  It does so twice, from two binaries that
# differ only in link order (base objects first, then head objects
# first): identical code measured in one order alone read a ~2% bias.
#
# tools/ab_same_process.cc is compiled against both trees, so BASE_REF
# needs the Workload and KernelMachine calls it makes (reset,
# setFunctionalOnly, setSampling, simulate).
#
# Timing the two builds in separate processes on a shared host spreads
# by tens of percent between identical runs; in one process both sides
# see the same host state within a repetition.  Compile time is a few
# minutes; the build is thrown away on exit.  Not part of CI.

set -euo pipefail

if [[ $# -ne 1 ]]; then
    echo "usage: $0 BASE_REF" >&2
    exit 2
fi
BASE_REF=$1

ROOT=$(git rev-parse --show-toplevel)
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

mkdir -p "$WORK/base"
git -C "$ROOT" archive "$BASE_REF" src | tar -x -C "$WORK/base"

CXX=g++
CXXFLAGS="-std=c++20 -O2 -g -DNDEBUG -pthread"
NPROC=$(nproc)
JOBS=$((NPROC < 4 ? NPROC : 4))

# One line per object: side, tree, source.
for side in base head; do
    tree=$WORK/base
    [[ $side == head ]] && tree=$ROOT
    for lib in support isa masm sim obs analysis mpc bio kernels workloads; do
        for src in "$tree"/src/"$lib"/*.cc; do
            echo "$side $tree $src"
        done
    done
done > "$WORK/objects.txt"

# Compiles one tree's source with that tree's namespace renamed.
compile_one() {
    local side=$1 tree=$2 src=$3 lib
    lib=$(basename "$(dirname "$src")")
    # CXXFLAGS is a word list: left unquoted on purpose.
    $CXX $CXXFLAGS -Dbp5="bp5_$side" -I"$tree/src" -c "$src" \
        -o "$WORK/obj/${side}_${lib}_$(basename "$src" .cc).o"
}
export -f compile_one
export CXX CXXFLAGS WORK

mkdir -p "$WORK/obj"
echo "compiling $(wc -l < "$WORK/objects.txt") sources with $JOBS jobs..." >&2
xargs -P "$JOBS" -L 1 bash -c 'compile_one "$@"' _ < "$WORK/objects.txt"

for side in base head; do
    tree=$WORK/base
    [[ $side == head ]] && tree=$ROOT
    $CXX $CXXFLAGS -Dbp5="bp5_$side" -DAB_SIDE="$side" -I"$tree/src" \
        -c "$ROOT/tools/ab_same_process.cc" -o "$WORK/obj/runner_$side.o"
done
$CXX $CXXFLAGS -c "$ROOT/tools/ab_same_process.cc" -o "$WORK/obj/main.o"
# Link order decides where each side's code lands, and that alone moves
# the ratio by a few percent; link both orders and run both.
link() {
    local first=$1 second=$2
    (cd "$WORK/obj" &&
        $CXX $CXXFLAGS "$first"_*.o "$second"_*.o main.o \
            runner_"$first".o runner_"$second".o -o "$WORK/ab_${first}_first")
}
link base head
link head base

echo "base $(git -C "$ROOT" rev-parse --short "$BASE_REF"), head = working tree" >&2
for first in base head; do
    echo "link order: $first objects first"
    "$WORK/ab_${first}_first"
done
