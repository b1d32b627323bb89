#!/bin/sh
# loc.sh — the line counts every simplicity change here quotes, and one
# structural check. Prints the non-test Go lines outside benchmark/, of
# the three storage engines (internal/{tf,hy,vf}), and of their merge
# code (internal/{tf,hy,vf}/merge.go). Exits non-zero if os.Rename( is
# called from non-test Go code outside internal/wal: a file in a dataset
# is replaced through wal.ReplaceFile, which syncs what WithFsync
# promises, and through nothing else.
set -eu

cd "$(dirname "$0")/.."

# count DIR...: lines of the non-test .go files under the directories.
count() {
    find "$@" -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' -print0 |
        xargs -0 cat | wc -l | tr -d ' '
}

echo "non-test Go lines outside benchmark/: $(count .)"
echo "internal/{tf,hy,vf}:                  $(count internal/tf internal/hy internal/vf)"
echo "internal/{tf,hy,vf}/merge.go:         $(cat internal/tf/merge.go internal/hy/merge.go internal/vf/merge.go | wc -l | tr -d ' ')"

stray=$(grep -rln --include='*.go' 'os\.Rename(' . | grep -v '_test\.go$' | grep -v '^\./internal/wal/' || true)
if [ -n "$stray" ]; then
    echo "os.Rename( outside internal/wal (use wal.ReplaceFile):" >&2
    echo "$stray" >&2
    exit 1
fi
