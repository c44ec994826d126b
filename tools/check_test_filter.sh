#!/usr/bin/env bash
# Fail when any ':'-separated pattern of a gtest filter lists no test.
# gtest runs a pattern that matches nothing without error, so a test
# renamed out of a CI job's filter would otherwise drop out silently.
#
# usage: tools/check_test_filter.sh <gtest-binary> '<pattern>:<pattern>...'
set -eu
binary=$1
IFS=':' read -ra patterns <<< "$2"
status=0
for pattern in "${patterns[@]}"; do
    listed=$("$binary" --gtest_filter="$pattern" --gtest_list_tests)
    if ! grep -q '^  ' <<< "$listed"; then
        echo "gtest filter pattern '$pattern' lists no test" >&2
        status=1
    fi
done
exit "$status"
