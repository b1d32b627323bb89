#!/bin/sh
# loc.sh — the line counts every simplicity change here quotes, and
# thirty-seven structural checks. Prints the non-test Go lines outside
# benchmark/, of the two storage engine packages (internal/{hy,vf}:
# internal/hy is tuple-first and hybrid, one engine with two
# placements) and of version-first alone (internal/vf), of the shared
# segment store (internal/store), of the query layer (internal/query),
# of their merge code (internal/{hy,vf}/merge.go), of compaction
# (internal/store/compact.go) and of the three query front ends (cmd/decibel/main.go, internal/server and
# builder.go), and the number of public options (func With* in
# options.go). Exits
# non-zero if os.Rename( is called from non-test Go code outside
# internal/wal: a file in a dataset is replaced through wal.ReplaceFile,
# which syncs what WithFsync promises, and through nothing else. Exits non-zero too
# if a branch lock is taken — lockBranches( — in non-test Go code
# outside internal/core/tx.go, or if NewSession( appears in any Go file:
# the write protocol (lock order, head re-read under the lock, handing
# an aborted transaction to the engines to undo) lives in core's Tx and
# nowhere else. Exits
# non-zero too if internal/lock/ exists, or if non-test Go matches
# lock.Manager, lock.Shared, lock.Exclusive, ErrTimeout, DefaultTimeout,
# nextTxn or ReleaseAll: a branch lock is one exclusive channel per
# branch, every call takes its locks in branch-ID order and releases
# them when it returns, so there are no lock modes, no owner ids and no
# deadlock timeout. Exits non-zero too if NewSwap(,
# mergeRun or WithCompactionThresholds appears in non-test Go code: a
# compaction pass re-encodes segments in place, and the crash-safe swap
# is reached only through the segment catalog (store.Catalog.Compact). Exits non-zero too if
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
# a "prev, next" linked list of its own: version-first derives a moved
# head's plan from its previous cut's with one scan of the slot window
# (no per-commit delta log), its plan cache is the one lru type on
# container/list, and the cache has no public knob. Exits non-zero too
# if non-test Go matches lru[pos, map[int64]pos], resolveLive(,
# baseLocked( or overlayWindowLocked(: version-first caches only scan
# plans, and a miss derives its plan from a cached base plan or takes
# the full walk, whose live map is transient — there is no live-map
# tier to clone. Exits non-zero too if non-test Go in
# internal/vf matches sortedGroups, diffLiveLocked, planGroup or
# map[pos]*bitmap.Bitmap: a version-first scan plan is one slot bitmap
# per segment cached per position, a HEAD() scan ORs k of them and a
# diff XORs two, as hybrid combines its branch bitmaps. Exits non-zero
# too if non-test Go in internal/query matches recHeap, seqRec, cmpRows
# or "func (p *aggPart) add": every OrderBy+Limit read takes the ordered
# unit visit, whose heap is the query layer's only top-k, and a scalar
# aggregate is the grouped fold with no group columns. Exits non-zero
# too if non-test Go in internal/query matches map[string]*groupAcc or
# "func(rel int) *record.Record": the fold reads its columns through
# handles resolved once per scan, with no per-row closure to pick a
# row's record, and finds a group's index in an integer-keyed or
# string-keyed table, with no pointer per group. Exits non-zero
# too if options.go declares WithCompactionFailPoint (the fail point is
# a test hook in export_test.go) or if DeclaredJoinOrder or
# DeclaredOrder appears in non-test Go code: the declared join order is
# an ablation, reached only through Plan.NoReorder. It also prints the
# line counts of internal/core and of the engines' read code
# (internal/{hy,vf}/scan.go), and exits non-zero if non-test Go in
# internal/{hy,vf} matches ScanKind, DiffAux, MemberAux, core.Pins or
# bitmap.Xor: an engine says which slots of which slot space each
# version holds (Engine.Live), and the combine rules of a diff and a
# multi-branch scan, the unit walk and a merge's XOR against the LCA
# live once, in internal/core. Exits non-zero too if an engine package
# has a compact.go, or if non-test Go in internal/{hy,vf} matches
# persistLocked, persistExtentsLocked, sweepOrphans, SweepOrphans,
# SwapCompressed, segFilePath, extFilePath, buildVersions or
# wal.ReplaceFile: an engine's segments, their file names, the catalog
# file, the orphan sweep, the compaction loop and the version-index pass
# live once, in internal/store's Catalog; an engine keeps only liveness.
# Exits non-zero too if non-test Go in internal/{hy,vf} matches
# posIn, ResolveChanged, ChangedKeys or "func (t *mergeTarget) ReadAt",
# or if internal/vf/merge.go calls resolveLive: every engine hands its
# slot spaces for a merge's versions to core (Merge.Changed), which
# finds the keys, completes their positions and reads the records it
# resolves; version-first resolves no whole live set to merge. Exits
# non-zero too if internal/compact/ exists, or if non-test Go matches
# startCompactor, WithCompactionInterval, ModeAuto, ScanLive, Bitmapper
# or offsetBitmap: compaction is one call (Database.Compact, on or off,
# no background loop), its stats and fail points live in
# internal/store, and the live-page walk is written once, in core's
# walkSlots, over SegFile.Scan. Exits non-zero too if non-test Go matches
# runPool, UnitSink, NoParallel, ParallelScanCounters, scanSem or
# mergeFrom: every scan runs its units in order on the calling
# goroutine (core's ScanUnitsContext), so there is no scan pool, no
# per-unit sink and no partial fold to merge. Exits non-zero too if
# internal/tf/ exists: tuple-first is internal/hy's chained placement
# (TupleFirstFactory), not a package of its own. Exits non-zero too if
# internal/heap imports container/list: the buffer pool's LRU is
# intrusive (prev/next links in the frames), so a pin/unpin cycle and a
# miss that reuses its victim's frame allocate nothing. Exits non-zero
# too if non-test Go in internal/vf matches intervalTable, tableEntry,
# tablesLocked, invalidateSeg, claimAt( or stepClaim: version-first
# resolves keys through the table's shared store.VersionIndex, as
# hybrid does, and keeps no per-interval key tables of its own. Exits
# non-zero too if bench/ or gitstore/ exists at the root, or if
# non-test Go matches RegisterEngine(, LookupEngine( or EngineNames(:
# the three engines are one static name/alias table in the facade
# (decibel.go), and the paper harness (bench_test.go) imports
# internal/bench and internal/gitstore itself, through no public
# wrapper. Exits non-zero too if non-test Go matches SchemaEpoch(,
# TopoOrder(, FirstParentChain(, IsAncestor(, BranchOf(,
# UnmarshalSchema(, PhysLatest(, ScanMulti(, MultiScanFunc,
# CacheCounters(, SegmentScanCounters(, PageScanCounters(,
# CountOrderedSkips( or CountPointLookups(: an exported name that only
# tests called is gone, and a multi-branch scan is Compiled.Annotated.
# Exits non-zero too if non-test Go calls expvar.Publish( outside
# internal/server: every process-global counter is one expvar.NewInt
# declared in the package that increments it, read by its published
# name; the server's active-sessions gauge is the one expvar.Func.
# Exits non-zero too if non-test Go matches PageZones, EnablePageZones,
# SkipPage or pageZone(: tuple-first keeps no per-page zone index, and
# the unit walk decides each page holding a live slot once, by its dcz
# planes or by its rows; zone maps prune whole segments only. Exits
# non-zero too if non-test Go matches migrateLegacy, sweepLogs or
# pre-crc, or if non-test Go in internal/hy declares byID: a dataset
# is opened only at the format version its catalog.json names
# (docs/FORMAT.md), so no reader of an older layout is kept — not the
# pre-checksum commit-log migration, nor the sweep and id map hybrid
# kept for datasets merge compaction touched. Exits non-zero too if
# non-test Go matches extents.json, data.heap, extMeta or StartSeq:
# tuple-first and hybrid share one layout (segments.json, seg<id>.dat
# and .dcz, commit logs named by their first commit), so neither keeps
# a catalog file, a file name or a persisted log start of its own.
# Exits non-zero too if non-test Go matches tx.touched, "func (tx *Tx)
# written", Opt.Compaction or Options.Compaction, "func asDefInt" or
# "func asInt64(": a transaction keeps no write set (the engine that
# stored an aborted transaction undoes it, Engine.Rollback), compaction
# has no mode (Compact runs a pass on any dataset), and a Go value is
# coerced to a column type's value once, by record.AsInt64, AsFloat64
# and AsBytes. Exits non-zero too if non-test Go matches keepInA or
# "keep func(core.UnitAux) bool": a positive diff partitions as A AND
# NOT B (core.ScanKindPositiveDiff), so it walks only the rows it
# returns, and no row filter drops the other side's rows after a walk.
set -eu

cd "$(dirname "$0")/.."

# count DIR...: lines of the non-test .go files under the directories.
count() {
    find "$@" -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' -print0 |
        xargs -0 cat | wc -l | tr -d ' '
}

echo "non-test Go lines outside benchmark/: $(count .)"
echo "internal/{hy,vf}:                     $(count internal/hy internal/vf)"
echo "internal/hy:                          $(count internal/hy)"
echo "internal/vf:                          $(count internal/vf)"
echo "internal/store:                       $(count internal/store)"
echo "internal/query:                       $(count internal/query)"
echo "internal/core:                        $(count internal/core)"
echo "internal/{hy,vf}/scan.go:             $(cat internal/hy/scan.go internal/vf/scan.go | wc -l | tr -d ' ')"
echo "internal/{hy,vf}/merge.go:            $(cat internal/hy/merge.go internal/vf/merge.go | wc -l | tr -d ' ')"
echo "internal/store/compact.go:            $(wc -l < internal/store/compact.go | tr -d ' ')"
echo "query front ends (CLI, server, builder): $(count cmd/decibel/main.go internal/server builder.go)"
echo "public options (func With* in options.go): $(grep -c '^func With' options.go)"

stray=$(grep -rln --include='*.go' 'os\.Rename(' . | grep -v '_test\.go$' | grep -v '^\./internal/wal/' || true)
if [ -n "$stray" ]; then
    echo "os.Rename( outside internal/wal (use wal.ReplaceFile):" >&2
    echo "$stray" >&2
    exit 1
fi

stray=$(grep -rln --include='*.go' 'lockBranches(' . | grep -v '_test\.go$' |
    grep -v '^\./internal/core/tx\.go$' || true)
if [ -n "$stray" ]; then
    echo "branch locks taken outside internal/core/tx.go (use core's Transact / BranchFromHead / MergeContext):" >&2
    echo "$stray" >&2
    exit 1
fi

if [ -e internal/lock ]; then
    echo "internal/lock is gone (a branch lock is core's per-branch channel, taken by lockBranches)" >&2
    exit 1
fi

stray=$(grep -rnE --include='*.go' 'lock\.Manager|lock\.Shared|lock\.Exclusive|ErrTimeout|DefaultTimeout|nextTxn|ReleaseAll' . |
    grep -v '_test\.go:' || true)
if [ -n "$stray" ]; then
    echo "branch locks have no modes, owner ids or deadlock timeout (every call takes its locks in branch-ID order):" >&2
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
    echo "merge compaction is gone (a pass re-encodes in place through store.Catalog.Compact):" >&2
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

stray=$(grep -rnE --include='*.go' 'lru\[pos, map\[int64\]pos\]|(^|[^[:alnum:]_])(resolveLive|baseLocked|overlayWindowLocked)\(' . |
    grep -v '_test\.go:' || true)
if [ -n "$stray" ]; then
    echo "internal/vf caches only scan plans (a miss derives from a cached base plan or walks the lineage); no live-map tier:" >&2
    echo "$stray" >&2
    exit 1
fi

stray=$(grep -rnE --include='*.go' 'sortedGroups|diffLiveLocked|planGroup|map\[pos\]\*bitmap\.Bitmap' internal/vf |
    grep -v '_test\.go:' || true)
if [ -n "$stray" ]; then
    echo "internal/vf scan plans are per-position slot bitmaps (HEAD() ORs them, a diff XORs two):" >&2
    echo "$stray" >&2
    exit 1
fi

stray=$(grep -rnE --include='*.go' 'recHeap|seqRec|cmpRows|func \(p \*aggPart\) add' internal/query |
    grep -v '_test\.go:' || true)
if [ -n "$stray" ]; then
    echo "internal/query has one top-k (the ordered visit's heap) and one fold (the grouped fold; a scalar aggregate has no group columns):" >&2
    echo "$stray" >&2
    exit 1
fi

stray=$(grep -rnE --include='*.go' 'map\[string\]\*groupAcc|func\(rel int\) \*record\.Record' internal/query |
    grep -v '_test\.go:' || true)
if [ -n "$stray" ]; then
    echo "the grouped fold reads columns through resolved handles into a group index table (no per-row pick closure, no group pointers):" >&2
    echo "$stray" >&2
    exit 1
fi

if grep -n '^func WithCompactionFailPoint' options.go >&2; then
    echo "the compaction fail point is a test hook (export_test.go), not a public option" >&2
    exit 1
fi

stray=$(grep -rnE --include='*.go' 'DeclaredJoinOrder|DeclaredOrder' . | grep -v '_test\.go:' || true)
if [ -n "$stray" ]; then
    echo "the declared join order is an ablation (set Plan.NoReorder in a test or benchmark):" >&2
    echo "$stray" >&2
    exit 1
fi

stray=$(grep -rnE --include='*.go' 'ScanKind|DiffAux|MemberAux|core\.Pins|bitmap\.Xor' internal/hy internal/vf |
    grep -v '_test\.go:' || true)
if [ -n "$stray" ]; then
    echo "engines say which slots each version holds (Engine.Live); combining versions, the unit walk and merge key discovery live in internal/core:" >&2
    echo "$stray" >&2
    exit 1
fi

stray=$(ls internal/hy/compact.go internal/vf/compact.go 2>/dev/null || true)
stray="$stray$(grep -rnE --include='*.go' 'persistLocked|persistExtentsLocked|sweepOrphans|SweepOrphans|SwapCompressed|segFilePath|extFilePath|buildVersions|wal\.ReplaceFile' internal/hy internal/vf |
    grep -v '_test\.go:' || true)"
if [ -n "$stray" ]; then
    echo "engines keep only liveness; segments, file names, the catalog file, the sweep, compaction and the version index live in internal/store's Catalog:" >&2
    echo "$stray" >&2
    exit 1
fi

stray=$(grep -rnE --include='*.go' 'posIn|ResolveChanged|ChangedKeys|func \(t \*mergeTarget\) ReadAt' internal/hy internal/vf |
    grep -v '_test\.go:' || true)
stray="$stray$(grep -n 'resolveLive' internal/vf/merge.go || true)"
if [ -n "$stray" ]; then
    echo "merge keys are found and read in core (Merge.Changed, MergeKeys); an engine gives its slot spaces and applies outcomes:" >&2
    echo "$stray" >&2
    exit 1
fi

if [ -e internal/compact ]; then
    echo "internal/compact is gone (compaction's stats and fail points live in internal/store)" >&2
    exit 1
fi

stray=$(grep -rnE --include='*.go' 'startCompactor|WithCompactionInterval|ModeAuto|ScanLive|Bitmapper|offsetBitmap' . |
    grep -v '_test\.go:' || true)
if [ -n "$stray" ]; then
    echo "compaction is one call with no background loop, and the live-page walk is core's walkSlots over SegFile.Scan:" >&2
    echo "$stray" >&2
    exit 1
fi

stray=$(grep -rnE --include='*.go' 'runPool|UnitSink|NoParallel|ParallelScanCounters|scanSem|mergeFrom' . |
    grep -v '_test\.go:' || true)
if [ -n "$stray" ]; then
    echo "the scan pool is gone (every scan runs its units in order on the calling goroutine):" >&2
    echo "$stray" >&2
    exit 1
fi

if [ -e internal/tf ]; then
    echo "internal/tf is gone (tuple-first is internal/hy's chained placement, hy.TupleFirstFactory)" >&2
    exit 1
fi

stray=$(grep -rn --include='*.go' '"container/list"' internal/heap | grep -v '_test\.go:' || true)
if [ -n "$stray" ]; then
    echo "internal/heap's LRU is intrusive (frame prev/next links); no container/list:" >&2
    echo "$stray" >&2
    exit 1
fi

stray=$(grep -rnE --include='*.go' 'intervalTable|tableEntry|tablesLocked|invalidateSeg|claimAt\(|stepClaim' internal/vf |
    grep -v '_test\.go:' || true)
if [ -n "$stray" ]; then
    echo "internal/vf resolves keys through the shared store.VersionIndex; no per-interval key tables:" >&2
    echo "$stray" >&2
    exit 1
fi

if [ -e bench ] || [ -e gitstore ]; then
    echo "the decibel/bench and decibel/gitstore wrappers are gone (bench_test.go imports internal/bench and internal/gitstore)" >&2
    exit 1
fi

stray=$(grep -rnE --include='*.go' 'RegisterEngine\(|LookupEngine\(|EngineNames\(' . | grep -v '_test\.go:' || true)
if [ -n "$stray" ]; then
    echo "the engine registry is gone (the engines are one static table in decibel.go):" >&2
    echo "$stray" >&2
    exit 1
fi

stray=$(grep -rnE --include='*.go' 'SchemaEpoch\(|TopoOrder\(|FirstParentChain\(|IsAncestor\(|BranchOf\(|UnmarshalSchema\(|PhysLatest\(|ScanMulti\(|MultiScanFunc|CacheCounters\(|SegmentScanCounters\(|PageScanCounters\(|CountOrderedSkips\(|CountPointLookups\(' . |
    grep -v '_test\.go:' || true)
if [ -n "$stray" ]; then
    echo "names only tests called are gone (a multi-branch scan is Compiled.Annotated; tests read counters by published name):" >&2
    echo "$stray" >&2
    exit 1
fi

stray=$(grep -rn --include='*.go' 'expvar\.Publish(' . | grep -v '_test\.go:' | grep -v '^\./internal/server/' || true)
if [ -n "$stray" ]; then
    echo "a process-global counter is one expvar.NewInt in the package that increments it (only internal/server's gauge publishes a Func):" >&2
    echo "$stray" >&2
    exit 1
fi

stray=$(grep -rnE --include='*.go' 'PageZones|EnablePageZones|SkipPage|pageZone\(' . | grep -v '_test\.go:' || true)
if [ -n "$stray" ]; then
    echo "tuple-first's page zones are gone (zone maps prune segments; the walk decides each live page by its planes or its rows):" >&2
    echo "$stray" >&2
    exit 1
fi

stray=$(grep -rnE --include='*.go' 'migrateLegacy|sweepLogs|pre-crc' . | grep -v '_test\.go:' || true)
stray="$stray$(grep -rnE --include='*.go' '(^|[^[:alnum:]_])byID([^[:alnum:]_]|$)' internal/hy | grep -v '_test\.go:' || true)"
if [ -n "$stray" ]; then
    echo "readers of older dataset formats are gone (open checks catalog.json's format version; a hybrid segment's id is its position):" >&2
    echo "$stray" >&2
    exit 1
fi

stray=$(grep -rnE --include='*.go' 'extents\.json|data\.heap|extMeta|StartSeq' . | grep -v '_test\.go:' || true)
if [ -n "$stray" ]; then
    echo "tuple-first and hybrid share one on-disk layout (segments.json, seg<id>.dat|.dcz, logs b<branch>_s<space>_<first>.hist):" >&2
    echo "$stray" >&2
    exit 1
fi

stray=$(grep -rnE --include='*.go' 'tx\.touched|func \(tx \*Tx\) written|Opt(ions)?\.Compaction\b|func asDefInt|func asInt64\(' . | grep -v '_test\.go:' || true)
if [ -n "$stray" ]; then
    echo "an aborted transaction is undone by its engines (Engine.Rollback), compaction has no mode, and value coercion is record.As*:" >&2
    echo "$stray" >&2
    exit 1
fi

stray=$(grep -rnE --include='*.go' 'keepInA|keep func\(core\.UnitAux\) bool' . | grep -v '_test\.go:' || true)
if [ -n "$stray" ]; then
    echo "a positive diff walks A AND NOT B (core.ScanKindPositiveDiff); no row filter drops B's rows after the walk:" >&2
    echo "$stray" >&2
    exit 1
fi
