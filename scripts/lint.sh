#!/usr/bin/env bash
# Run the full static-analysis stack (DESIGN.md §11):
#
#   1. bgnlint      — repo-specific determinism/invariant rules
#                     (always; built from tools/bgnlint if needed)
#   2. clang-tidy   — curated bug-prone/perf profile from .clang-tidy
#                     (only if installed; needs compile_commands.json)
#   3. cppcheck     — whole-program checks with the reviewed
#                     suppression list (only if installed)
#
# Usage: scripts/lint.sh [build-dir]      (default: build)
#
# Exit status is non-zero if any stage that actually ran reported a
# problem. Stages whose tool is not installed are skipped with a note
# — CI installs everything, developer machines may not.

set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-build}"
[[ "$BUILD" = /* ]] || BUILD="$ROOT/$BUILD"
STATUS=0

note() { printf '== %s\n' "$*"; }

# ------------------------------------------------------------------
# 1. bgnlint (mandatory — build it if the tree hasn't been built).
# ------------------------------------------------------------------
BGNLINT="$BUILD/tools/bgnlint/bgnlint"
if [[ ! -x "$BGNLINT" ]]; then
    note "building bgnlint"
    cmake -S "$ROOT" -B "$BUILD" >/dev/null &&
        cmake --build "$BUILD" --target bgnlint -j >/dev/null || {
        echo "error: could not build bgnlint" >&2
        exit 2
    }
fi
note "bgnlint"
"$BGNLINT" --root "$ROOT" --hints src tools bench simbench || STATUS=1

# ------------------------------------------------------------------
# 2. clang-tidy (optional).
# ------------------------------------------------------------------
if command -v clang-tidy >/dev/null 2>&1; then
    if [[ -f "$BUILD/compile_commands.json" ]]; then
        note "clang-tidy"
        # Lint the library and tool sources; tests inherit the same
        # headers and gtest macros trip several checks by design.
        mapfile -t TIDY_SRCS < <(find "$ROOT/src" "$ROOT/tools" \
            -name '*.cc' ! -path '*/build/*' | sort)
        clang-tidy -p "$BUILD" --quiet "${TIDY_SRCS[@]}" || STATUS=1
    else
        note "clang-tidy: skipped ($BUILD/compile_commands.json missing)"
    fi
else
    note "clang-tidy: not installed, skipped"
fi

# ------------------------------------------------------------------
# 3. cppcheck (optional).
# ------------------------------------------------------------------
if command -v cppcheck >/dev/null 2>&1; then
    note "cppcheck"
    cppcheck --enable=warning,performance,portability \
        --suppressions-list="$ROOT/tools/lint/cppcheck-suppressions.txt" \
        --inline-suppr --std=c++20 --language=c++ \
        --error-exitcode=1 --quiet \
        -I "$ROOT/src" \
        "$ROOT/src" "$ROOT/tools" "$ROOT/bench" || STATUS=1
else
    note "cppcheck: not installed, skipped"
fi

exit "$STATUS"
