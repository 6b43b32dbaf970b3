#!/bin/sh
# Checks (or with --fix, applies) .clang-format over every tracked C++ file.
#
#   scripts/format_check.sh [--fix]
#
# Without clang-format (the default dev container ships only g++; CI installs the tool)
# the check falls back to .clang-format's 100-column limit over the same files and lists
# every longer line; --fix then has nothing to apply the style with and fails.
# Exits 0 when the tree is clean, 1 when files need reformatting (or lines wrapping),
# 2 on usage errors.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo_root"

fix=0
if [ "${1:-}" = "--fix" ]; then
  fix=1
  shift
fi
if [ $# -ne 0 ]; then
  echo "usage: scripts/format_check.sh [--fix]" >&2
  exit 2
fi

# The lint fixtures stage violations at exact line numbers asserted by tests/lint_test.cc;
# reformatting them would move the staged lines, so they are exempt.
files=$(git ls-files '*.h' '*.cc' '*.cpp' | grep -v '^tools/mmu-lint/fixtures/' || true)
if [ -z "$files" ]; then
  echo "format_check: no tracked C++ files found" >&2
  exit 2
fi

if ! command -v clang-format >/dev/null 2>&1; then
  if [ "$fix" = 1 ]; then
    echo "format_check: --fix needs clang-format, which is not installed" >&2
    exit 1
  fi
  # Columns are characters: UTF-8 continuation bytes (octal 200-277) are dropped before
  # awk counts, since awk may count bytes.
  long=$(for f in $files; do
    tr -d '\200-\277' < "$f" | awk -v f="$f" 'length > 100 { print f ":" NR ": " length " columns" }'
  done)
  if [ -n "$long" ]; then
    echo "$long"
    echo "format_check: clang-format not installed; lines above over the 100-column limit" >&2
    exit 1
  fi
  echo "format_check: clang-format not installed; column limit clean (CI runs the full check)"
  exit 0
fi

if [ "$fix" = 1 ]; then
  # shellcheck disable=SC2086
  clang-format -i $files
  echo "format_check: reformatted $(echo "$files" | wc -l) file(s)"
  exit 0
fi

# shellcheck disable=SC2086
if clang-format --dry-run -Werror $files; then
  echo "format_check: clean"
else
  echo "format_check: run scripts/format_check.sh --fix" >&2
  exit 1
fi
