#!/usr/bin/env bash
# Fails when any '|'-separated alternative of a ctest -R filter matches no
# test, so a renamed or deleted suite cannot silently drop out of a
# sanitizer job's filter.
# Usage: tools/check_test_filter.sh <build-dir> '<alt>|<alt>|...'
set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 <build-dir> '<alt>|<alt>|...'" >&2
  exit 2
fi

if [ ! -f "$1/CTestTestfile.cmake" ]; then
  echo "$1 is not a configured build directory" >&2
  exit 2
fi

status=0
IFS='|' read -ra alts <<< "$2"
for alt in "${alts[@]}"; do
  listing="$(ctest --test-dir "$1" -N -R "$alt")"
  if [[ "$listing" == *$'\nTotal Tests: 0'* ]]; then
    echo "ctest filter alternative '$alt' matches no test" >&2
    status=1
  fi
done
exit "$status"
