#!/bin/sh
# Fails when the unit walk (internal/core/walk.go) no longer inlines the
# bitmap reads it makes once per page (NextSet) and once per 64 rows
# (Word). A walk that calls them out of line pays a call per word on
# every scan; the compiler drops an inlining without a word when a
# function outgrows its budget, so this asks it (go build -gcflags=-m).
#
#   sh scripts/inline-check.sh
set -eu
cd "$(dirname "$0")/.."
out=$(go build -gcflags=-m ./internal/core 2>&1)
status=0
for fn in 'bitmap.(*Bitmap).Word' 'bitmap.(*Bitmap).NextSet'; do
    if ! printf '%s\n' "$out" | grep -F 'internal/core/walk.go:' | grep -qF "inlining call to $fn"; then
        echo "internal/core/walk.go no longer inlines $fn (go build -gcflags=-m ./internal/core)" >&2
        status=1
    fi
done
exit $status
