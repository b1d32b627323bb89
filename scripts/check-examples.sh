#!/bin/sh
# check-examples.sh — run every program under examples/ and compare its
# stdout with the examples/<name>/output.txt checked in beside it. The
# examples print deterministic summaries, so any difference is a change
# in what the public API returns (or in the order it returns it).
set -eu

cd "$(dirname "$0")/.."

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT
fail=0
for dir in examples/*/; do
    name=$(basename "$dir")
    go run "./examples/$name" >"$tmp"
    if ! diff -u "examples/$name/output.txt" "$tmp"; then
        echo "examples/$name: stdout differs from examples/$name/output.txt" >&2
        fail=1
    fi
done
exit $fail
