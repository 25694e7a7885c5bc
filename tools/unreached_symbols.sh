#!/usr/bin/env bash
# Linker audit: list the src/ functions that no shipped binary links.
#
#   tools/unreached_symbols.sh
#
# Run from anywhere inside the repository.  Configures and builds the
# project into build-unreached/ at the repository root with
# -O1 -DNDEBUG -fno-inline -ffunction-sections -fdata-sections and links
# with -Wl,--gc-sections, so a function survives in a binary only if
# something reachable from main() (or a kept vtable or table) refers to
# it.  It then prints, demangled, every function defined in a
# libbp5_*.a that appears in none of the shipped binaries: every
# executable under build-unreached/{tools,bench,examples}.  The test
# binary is not built and does not count.  Only mangled names in namespace bp5 (prefix
# _ZN3bp5 or _ZNK3bp5) are compared, so std:: template instances drop
# out.
#
# tools/unreached_allowlist.txt names functions that are expected to
# be unreached.  Each line is `NAME | REASON`: NAME is a demangled
# function name without its parameter list (every overload matches)
# or a full demangled signature (that overload only), and REASON says
# why the function stays.  Blank lines and lines starting with # are
# ignored.
#
# The audit has two blind spots.  Inline functions defined in headers
# are invisible to it: a header function no library object calls is
# never emitted into a libbp5_*.a, so an unused one is not reported.
# And it sees functions, not paths: code inside a linked function that
# only an option value no shipped caller sets can reach (a pass behind
# a factor nobody raises, an engine behind a flag nobody enables) links
# like any other code.  For both, grep the function name, or every
# writer of the option, over tools/, bench/, examples/ and perfbench/.
#
# Exit status: 0 when every unreached function is allowlisted; 1 when
# some are not (they are printed); 2 when the allowlist is malformed
# (an entry without a reason) or stale (an entry matches no unreached
# function, because the function was deleted or gained a shipped
# caller), or on a build error.

set -euo pipefail

ROOT=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
BUILD=$ROOT/build-unreached
ALLOW=$ROOT/tools/unreached_allowlist.txt
NPROC=$(nproc)
JOBS=$((NPROC < 4 ? NPROC : 4))

cmake -S "$ROOT" -B "$BUILD" -G "Unix Makefiles" -DCMAKE_BUILD_TYPE=None \
    "-DCMAKE_CXX_FLAGS=-O1 -DNDEBUG -fno-inline -ffunction-sections -fdata-sections" \
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections" > /dev/null ||
    exit 2
# Only the shipped directories (and the libraries they link) are built.
for dir in tools bench examples; do
    make -C "$BUILD/$dir" -j "$JOBS" > "$BUILD/build.log" 2>&1 || {
        tail -n 40 "$BUILD/build.log" >&2
        exit 2
    }
done

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

# Mangled names of the bp5 functions the libraries define.
nm --defined-only "$BUILD"/src/*/libbp5_*.a 2> /dev/null |
    awk '$2 ~ /^[TtWw]$/ { print $3 }' | grep -E '^_ZNK?3bp5' |
    sort -u > "$WORK/defined"
find "$BUILD/tools" "$BUILD/bench" "$BUILD/examples" -maxdepth 1 \
    -type f -executable -print0 | xargs -0 -r nm --defined-only \
    2> /dev/null | awk '{ print $NF }' | sort -u > "$WORK/linked"
if [[ ! -s $WORK/linked ]]; then
    echo "unreached_symbols: no shipped binaries found in $BUILD" >&2
    exit 2
fi

# "signature<TAB>name" per unreached function, name = signature
# without its parameter list.
comm -23 "$WORK/defined" "$WORK/linked" | c++filt | sort -u |
    awk '{ name = $0; sub(/\(.*/, "", name); print $0 "\t" name }' \
        > "$WORK/unreached"

status=0
: > "$WORK/allowed"
while IFS= read -r line || [[ -n $line ]]; do
    [[ -z ${line//[[:space:]]/} || $line == \#* ]] && continue
    entry=${line%% | *}
    reason=${line#* | }
    if [[ $entry == "$line" || -z ${reason//[[:space:]]/} ]]; then
        echo "allowlist: no reason given: $line" >&2
        status=2
        continue
    fi
    if ! awk -F '\t' -v e="$entry" '$1 == e || $2 == e { found = 1 }
            END { exit !found }' "$WORK/unreached"; then
        echo "allowlist: stale entry (matches no unreached function): $entry" >&2
        status=2
    fi
    printf '%s\n' "$entry" >> "$WORK/allowed"
done < "$ALLOW"

awk -F '\t' 'FILENAME == ARGV[1] { allowed[$0] = 1; next }
             !($1 in allowed) && !($2 in allowed) { print $1 }' \
    "$WORK/allowed" "$WORK/unreached" > "$WORK/report"

if [[ -s $WORK/report ]]; then
    echo "Functions defined in src/ that no shipped binary links:"
    sed 's/^/  /' "$WORK/report"
    [[ $status -eq 0 ]] && status=1
elif [[ $status -eq 0 ]]; then
    echo "unreached_symbols: every unreached function is allowlisted" \
        "($(wc -l < "$WORK/allowed") entries)"
fi
exit $status
