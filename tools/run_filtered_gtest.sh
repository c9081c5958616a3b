#!/usr/bin/env bash
# Runs a googletest binary under a --gtest_filter, and fails when the filter
# selects no test. googletest itself exits 0 on an empty selection, so a
# renamed or re-parameterized suite would otherwise drop out of a CI lane
# without a trace. Each colon-separated positive pattern must select at least
# one test on its own, too.
#
#   tools/run_filtered_gtest.sh BINARY FILTER [more gtest flags...]
set -euo pipefail

binary=$1
filter=$2
shift 2

selected() {
  # Test lines of --gtest_list_tests are the indented ones.
  "$binary" --gtest_list_tests --gtest_filter="$1" | grep -c '^  ' || true
}

IFS=':' read -ra patterns <<< "${filter%%-*}"
for pattern in "${patterns[@]}"; do
  if [ "$(selected "$pattern")" -eq 0 ]; then
    echo "error: '$pattern' in $binary --gtest_filter='$filter'" \
         "selects no tests" >&2
    exit 1
  fi
done
if [ "$(selected "$filter")" -eq 0 ]; then
  echo "error: $binary --gtest_filter='$filter' selects no tests" >&2
  exit 1
fi
exec "$binary" --gtest_filter="$filter" "$@"
