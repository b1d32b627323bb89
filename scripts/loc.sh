#!/bin/sh
# loc.sh — the line counts every simplicity change here quotes, and
# eleven structural checks. Prints the non-test Go lines outside
# benchmark/, of the three storage engines (internal/{tf,hy,vf}) and of
# version-first alone (internal/vf), of their merge code (internal/{tf,hy,vf}/merge.go), of compaction
# (internal/{tf,hy,vf}/compact.go and internal/store/compact.go) and of
# the three query front ends (cmd/decibel/main.go, internal/server and
# builder.go), and the number of public options (func With* in
# options.go). Exits
# non-zero if os.Rename( is called from non-test Go code outside
# internal/wal: a file in a dataset is replaced through wal.ReplaceFile,
# which syncs what WithFsync promises, and through nothing else. Exits non-zero too
# if a branch lock is taken — .Acquire( or .AcquireContext( — in
# non-test Go code outside internal/core/tx.go and internal/lock, or if
# NewSession( appears in any Go file: the write protocol (lock order,
# head re-read under the lock, rollback of an aborted transaction) lives
# in core's Tx and nowhere else. Exits non-zero too if NewSwap(,
# mergeRun or WithCompactionThresholds appears in non-test Go code: a
# compaction pass re-encodes segments in place, and the crash-safe swap
# is reached only through store.SwapCompressed. Exits non-zero too if
# internal/core declares a *Table method named Scan*, Rows* or Diff*
# other than the scan driver ScanUnitsContext, or if .ScanCommit(,
# .RowsAt( or .RowsMulti( (or a Context form) is called from non-test Go
# code outside benchmark/: every read is a compiled query
# (internal/query), and a transaction's own read is Tx.Rows. Exits
# non-zero too if non-test Go in internal/server or cmd/decibel
# matches combine|mutually exclusive|exactly two|require|do not
# apply|excludes — the wording of a query-shape check: Plan.Compile and
# the Compiled terminals decide every shape, and the server and the CLI
# only translate into a plan and call the terminal their input names.
# Exits non-zero too if TupleOriented, tupleIndex, tupleMultiUnit or
# bitmap.Matrix appears in non-test Go code, or if cmd/decibel-bench/
# exists: tuple-first keeps only the branch-oriented bitmap layout, and
# bench_test.go is the one harness for the paper's experiments. Exits
# non-zero too if segDelta, recordDeltaLocked or WithLineageCache
# appears in non-test Go code, or if non-test Go in internal/vf declares
# a "prev, next" linked list of its own: version-first extends a cached
# live set with one scan of the slot window (no per-commit delta log),
# both its cache tiers are the one lru type on container/list, and the
# cache has no public knob.
set -eu

cd "$(dirname "$0")/.."

# count DIR...: lines of the non-test .go files under the directories.
count() {
    find "$@" -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' -print0 |
        xargs -0 cat | wc -l | tr -d ' '
}

echo "non-test Go lines outside benchmark/: $(count .)"
echo "internal/{tf,hy,vf}:                  $(count internal/tf internal/hy internal/vf)"
echo "internal/vf:                          $(count internal/vf)"
echo "internal/{tf,hy,vf}/merge.go:         $(cat internal/tf/merge.go internal/hy/merge.go internal/vf/merge.go | wc -l | tr -d ' ')"
echo "internal/{tf,hy,vf,store}/compact.go: $(cat internal/tf/compact.go internal/hy/compact.go internal/vf/compact.go internal/store/compact.go | wc -l | tr -d ' ')"
echo "query front ends (CLI, server, builder): $(count cmd/decibel/main.go internal/server builder.go)"
echo "public options (func With* in options.go): $(grep -c '^func With' options.go)"

stray=$(grep -rln --include='*.go' 'os\.Rename(' . | grep -v '_test\.go$' | grep -v '^\./internal/wal/' || true)
if [ -n "$stray" ]; then
    echo "os.Rename( outside internal/wal (use wal.ReplaceFile):" >&2
    echo "$stray" >&2
    exit 1
fi

stray=$(grep -rln --include='*.go' '\.Acquire\(Context\)\?(' . | grep -v '_test\.go$' |
    grep -v '^\./internal/core/tx\.go$' | grep -v '^\./internal/lock/' || true)
if [ -n "$stray" ]; then
    echo "branch locks taken outside internal/core/tx.go (use core's Transact / BranchFromHead / MergeContext):" >&2
    echo "$stray" >&2
    exit 1
fi

stray=$(grep -rln --include='*.go' 'NewSession(' . || true)
if [ -n "$stray" ]; then
    echo "NewSession( is gone (use core's Transact):" >&2
    echo "$stray" >&2
    exit 1
fi

stray=$(grep -rlE --include='*.go' 'NewSwap\(|mergeRun|WithCompactionThresholds' . | grep -v '_test\.go$' || true)
if [ -n "$stray" ]; then
    echo "merge compaction is gone (a pass re-encodes in place through store.SwapCompressed):" >&2
    echo "$stray" >&2
    exit 1
fi

stray=$(grep -rnE --include='*.go' '^func \([A-Za-z_]+ \*Table\) (Scan|Rows|Diff)' internal/core |
    grep -v ') ScanUnitsContext(' || true)
if [ -n "$stray" ]; then
    echo "core.Table read methods are gone (read through a compiled query, internal/query):" >&2
    echo "$stray" >&2
    exit 1
fi

stray=$(grep -rlE --include='*.go' '\.(ScanCommit|RowsAt|RowsMulti)(Context)?\(' . | grep -v '_test\.go$' |
    grep -v '^\./benchmark/' || true)
if [ -n "$stray" ]; then
    echo "ID-based table reads are gone (use Query(t).On(b).AtCommit(id) / Heads / Annotated):" >&2
    echo "$stray" >&2
    exit 1
fi

stray=$(grep -rnE --include='*.go' 'combine|mutually exclusive|exactly two|require|do not apply|excludes' internal/server cmd/decibel |
    grep -v '_test\.go:' || true)
if [ -n "$stray" ]; then
    echo "query-shape checks outside internal/query (let Plan.Compile or the terminal reject the shape):" >&2
    echo "$stray" >&2
    exit 1
fi

stray=$(grep -rnE --include='*.go' 'TupleOriented|tupleIndex|tupleMultiUnit|bitmap\.Matrix' . |
    grep -v '_test\.go:' || true)
if [ -n "$stray" ]; then
    echo "the tuple-oriented bitmap layout is gone (tuple-first keeps one column per branch):" >&2
    echo "$stray" >&2
    exit 1
fi

if [ -e cmd/decibel-bench ]; then
    echo "cmd/decibel-bench is gone (bench_test.go's BenchmarkFigure*/BenchmarkTable* run the paper's experiments)" >&2
    exit 1
fi

stray=$(grep -rnE --include='*.go' 'segDelta|recordDeltaLocked|WithLineageCache' . |
    grep -v '_test\.go:' || true)
if [ -n "$stray" ]; then
    echo "the vf delta log and its public knob are gone (incremental resolution scans the slot window):" >&2
    echo "$stray" >&2
    exit 1
fi

stray=$(grep -rnE --include='*.go' 'prev, next' internal/vf | grep -v '_test\.go:' || true)
if [ -n "$stray" ]; then
    echo "internal/vf keeps one LRU (lru, on container/list); no hand-written list:" >&2
    echo "$stray" >&2
    exit 1
fi
