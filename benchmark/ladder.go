package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"time"

	"decibel"
	"decibel/client"
	"decibel/internal/bitmap"
	"decibel/internal/core"
	"decibel/internal/heap"
	iquery "decibel/internal/query"
	"decibel/internal/record"
	"decibel/internal/store"
	"decibel/internal/wal"
)

// The per-layer ladder of the traced run. Every number here is a
// public function of one layer timed from outside it, under a span, so
// a layer's cost is a subtraction between two rungs and not a guess.
// The numbers are ungated: they name where an end-to-end change came
// from (README.md lists which end-to-end metric each should move).

const sampleRows = 1 << 16 // rows the bottom rungs of the Q1 ladder run over

func expInt(name string) int64 {
	v := expvar.Get(name)
	if v == nil {
		return 0
	}
	n, _ := strconv.ParseInt(v.String(), 10, 64) // a missing counter reads 0
	return n
}

// bench runs fn reps times under one span and returns the mean
// duration of a call.
func (r *runner) bench(name string, reps int, fn func()) time.Duration {
	end := r.tr.span(name)
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		fn()
	}
	d := time.Since(t0)
	end()
	return d / time.Duration(reps)
}

// benchSet times the fns in turn, reps times over, each call under its
// own span, and returns each fn's fastest call. Rungs measured this way
// see the same host conditions, and the turn order rotates so no rung
// always pays for (or profits from) what the one before it left in a
// cache. The fastest, not the median: the ladder is read by subtracting
// rungs, each rung does the same work every time, and the host only ever
// adds time, so the floors are what nest.
func (r *runner) benchSet(names []string, reps int, fns ...func()) []time.Duration {
	times := make([][]float64, len(fns))
	for i := 0; i < reps; i++ {
		for j := range fns {
			k := (i + j) % len(fns)
			times[k] = append(times[k], float64(r.bench(names[k], 1, fns[k])))
		}
	}
	out := make([]time.Duration, len(fns))
	for k := range fns {
		out[k] = time.Duration(slices.Min(times[k]))
	}
	return out
}

// calibrate runs two fixed kernels once per traced round — a
// cache-resident CRC and a 64 MB stride walk — so the report says how
// contended the host's cores and memory were while the run measured.
func (r *runner) calibrate() {
	if r.calibBuf == nil {
		r.calibBuf = make([]byte, 64<<20)
	}
	t0 := time.Now()
	var crc uint32
	for i := 0; i < 64; i++ {
		crc = crc32.Update(crc, crc32.IEEETable, r.calibBuf[:256<<10])
	}
	t1 := time.Now()
	var sum byte
	for i := 0; i < len(r.calibBuf); i += 64 {
		sum += r.calibBuf[i]
	}
	r.calibBuf[0] = sum ^ byte(crc) // keep both loops live
	r.samples["calib.cpu_ms"] = append(r.samples["calib.cpu_ms"], t1.Sub(t0).Seconds()*1e3)
	r.samples["calib.mem_ms"] = append(r.samples["calib.mem_ms"], time.Since(t1).Seconds()*1e3)
}

var vfCounters = []string{
	"decibel.vf.lineage_cache_hits", "decibel.vf.lineage_cache_misses",
	"decibel.vf.lineage_cache_evictions", "decibel.vf.delta_resolves",
}

func vfSnapshot() (s [4]int64) {
	for i, name := range vfCounters {
		s[i] = expInt(name)
	}
	return s
}

var storeCounters = []string{
	"decibel.segments_scanned", "decibel.segments_skipped",
	"decibel.pages_scanned", "decibel.pages_skipped", "decibel.compressed_page_decodes",
}

func storeSnapshot() (s [5]int64) {
	for i, name := range storeCounters {
		s[i] = expInt(name)
	}
	return s
}

// base is the facade under either target.
func (r *runner) base() *facade {
	if s, ok := r.t.(*served); ok {
		return s.facade
	}
	return r.t.(*facade)
}

// reconfigure closes the database (through the server when there is
// one) and opens it again with extra options; the last call, with none,
// restores the workload's own configuration and its server.
func (r *runner) reconfigure(restore bool, extra ...decibel.Option) error {
	f := r.base()
	var err error
	if s, ok := r.t.(*served); ok && s.stop != nil {
		err = s.shutdown()
		s.stop = nil
	} else if f.db != nil {
		err = f.db.Close()
	}
	f.db = nil
	if err != nil {
		return err
	}
	if f.db, err = decibel.Open(f.dir, r.w.options(extra...)...); err != nil {
		return err
	}
	if s, ok := r.t.(*served); ok && restore {
		return s.start()
	}
	return nil
}

// layers walks the ladder and fills rep.Layers.
func (r *runner) layers(rep *report, scratch string) error {
	set := func(name string, v float64, unit string) { rep.Layers[name] = metric{Value: v, Unit: unit, N: 1} }
	master := decibel.Master
	ctx := context.Background()

	// How the gated metrics were distributed over their blocks, and how
	// contended the host was.
	for _, name := range append([]string{"setup_s"}, timedMetrics...) {
		m := rep.Metrics[name]
		set("dist."+name+"_p95", m.P95, m.Unit)
		set("dist."+name+"_min", m.Min, m.Unit)
		set("dist."+name+"_n", float64(m.N), "count")
		set("raw."+name, summarize(r.raw[name], m.Unit).Value, m.Unit)
	}
	set("calib.unit_ms", summarize(r.cal.units, "ms").Value, "ms")
	set("calib.cpu_ms", summarize(r.samples["calib.cpu_ms"], "ms").Value, "ms")
	set("calib.mem_ms", summarize(r.samples["calib.mem_ms"], "ms").Value, "ms")

	// vf counters over the timed rounds.
	d := vfSnapshot()
	for i := range d {
		d[i] -= r.vf0[i]
	}
	hitRate := 0.0
	if d[0]+d[1] > 0 {
		hitRate = float64(d[0]) / float64(d[0]+d[1])
	}
	set("vf.cache_hit_rate", hitRate, "ratio")
	set("vf.cache_evictions", float64(d[2]), "count")
	set("vf.delta_resolves", float64(d[3]), "count")

	f := r.base()
	db := f.db
	schema := r.g.schema
	recSize := schema.RecordSize()
	liveRows := float64(r.s.m.liveRows(master))
	perRow := func(d time.Duration, rows float64) float64 { return float64(d.Nanoseconds()) / rows }
	micros := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

	// Tracing overhead: one full read cycle, spans on and off in turn.
	var cycle []func()
	for _, b := range r.blocks() {
		if isRead(b.metric) {
			_, timed := b.prepare()
			cycle = append(cycle, timed)
		}
	}
	readCycle := func(paused bool) func() {
		return func() {
			r.tr.off = paused
			for _, timed := range cycle {
				timed()
			}
			r.tr.off = false
		}
	}
	onOff := r.benchSet([]string{"trace.cycle_traced", "trace.cycle_untraced"}, 5, readCycle(false), readCycle(true))
	on, off := onOff[0], onOff[1]
	set("trace.overhead_pct", (float64(on)/float64(off)-1)*100, "%")

	// The Q1 ladder, bottom rungs: the same sampleRows master rows as a
	// raw heap file behind a pool sized like the workload's, and as a
	// dcz file.
	rows := make([]byte, 0, sampleRows*recSize)
	seq, errf := db.Rows(table, master)
	for rec := range seq {
		if rows = append(rows, rec.Bytes()...); len(rows) == cap(rows) {
			break
		}
	}
	if err := errf(); err != nil {
		return err
	}
	n := len(rows) / recSize
	pool := heap.NewPool(r.w.poolPages, r.w.pageSize)
	hf, err := heap.Open(pool, filepath.Join(scratch, "ladder.dat"), recSize)
	if err != nil {
		return err
	}
	defer hf.Close()
	cw := store.NewCompressedWriter(schema, hf.PerPage())
	for i := 0; i < n; i++ {
		row := rows[i*recSize : (i+1)*recSize]
		if _, err := hf.Append(row); err != nil {
			return err
		}
		if err := cw.Append(row); err != nil {
			return err
		}
	}
	if err := hf.Flush(); err != nil {
		return err
	}
	dczPath := filepath.Join(scratch, "ladder.dcz")
	if err := cw.WriteFile(dczPath); err != nil {
		return err
	}

	expr := r.q.q1.expr()
	pred, err := iquery.CompileExpr(expr, schema)
	if err != nil {
		return err
	}
	var sink int64
	decode := func(buf []byte) {
		if rec, err := record.FromBytes(schema, buf); err == nil {
			sink += rec.PK() + rec.Get(colCat) + int64(rec.GetFloat64(colAmt))
		}
	}
	var scanErr error
	heapScan := func(fn func(int64, []byte) bool) func() {
		return func() { scanErr = errors.Join(scanErr, hf.Scan(0, int64(n), fn)) }
	}
	h0, m0, _ := pool.Stats()
	bottom := r.benchSet([]string{"ladder.heap", "ladder.heap+pred", "ladder.heap+pred+decode"}, 30,
		heapScan(func(int64, []byte) bool { return true }),
		heapScan(func(_ int64, buf []byte) bool {
			if pred(buf) {
				sink++
			}
			return true
		}),
		heapScan(func(_ int64, buf []byte) bool {
			if pred(buf) {
				decode(buf)
			}
			return true
		}))
	rungHeap, rungPred, rungDecode := bottom[0], bottom[1], bottom[2]
	h1, m1, _ := pool.Stats()
	// A file keeps every page it has decoded, so each rep opens its own:
	// the rung is the decode, not the cache.
	dcz := r.bench("store.dcz_scan", 10, func() {
		cf, err := store.OpenCompressed(dczPath)
		if err != nil {
			scanErr = errors.Join(scanErr, err)
			return
		}
		scanErr = errors.Join(scanErr, cf.Scan(0, int64(n), func(int64, []byte) bool { return true }), cf.Close())
	})
	if scanErr != nil {
		return scanErr
	}
	set("heap.scan_ns_per_row", perRow(rungHeap, float64(n)), "ns")
	set("heap.pool_miss_rate", float64(m1-m0)/float64(max(h1-h0+m1-m0, 1)), "ratio")
	set("store.dcz_decode_ns_per_row", perRow(dcz, float64(n)), "ns")
	set("record.decode_ns_per_row", perRow(r.bench("record.decode", 20, func() {
		for i := 0; i < n; i++ {
			decode(rows[i*recSize : (i+1)*recSize])
		}
	}), float64(n)), "ns")
	set("query.pred_ns_per_row", perRow(r.bench("query.pred", 20, func() {
		for i := 0; i < n; i++ {
			if pred(rows[i*recSize : (i+1)*recSize]) {
				sink++
			}
		}
	}), float64(n)), "ns")

	// Upper rungs: the same Q1 on master through the engine's scan
	// units, the planner's executor, the facade iterator and the wire.
	tbl, err := db.TableByName(table)
	if err != nil {
		return err
	}
	mb, err := db.BranchNamed(master)
	if err != nil {
		return err
	}
	cols := []int{colID, colAmt, colCat}
	units := func() {
		spec, err := core.NewScanSpecAt(tbl.History(), tbl.BranchEpoch(mb.ID), pred, cols)
		if err != nil {
			scanErr = err
			return
		}
		if r.q.q1.tsGe != 0 {
			// The bound the planner derives from the ts range, so this rung
			// prunes the segments the rungs above it prune.
			spec.SetBounds([]core.Bound{{Col: colTS, Type: record.Int64, HasMin: true, MinI: r.q.q1.tsGe}})
		}
		units, release, _, err := tbl.PartitionUnits(core.ScanRequest{Kind: core.ScanKindBranch, Branch: mb.ID})
		if err != nil {
			scanErr = err
			return
		}
		scanErr = errors.Join(scanErr, core.RunUnitsSequential(units, spec, func(rec *record.Record, _ core.UnitAux) bool {
			sink += rec.PK()
			return true
		}))
		release()
	}
	plan := iquery.Plan{Table: table, Branches: []string{master}, AtSeq: -1, Where: expr, Cols: projected}
	var compiled *iquery.Compiled
	planTime := r.bench("query.plan", 200, func() {
		if compiled, err = plan.Compile(db.Database); err != nil {
			scanErr = err
		}
	})
	if scanErr != nil {
		return scanErr
	}
	want := r.wantScan(master, r.q.q1, 0)
	top := r.benchSet([]string{"ladder.engine_units", "ladder.query_exec", "ladder.facade_rows"}, 21, units,
		func() {
			scanErr = errors.Join(scanErr, compiled.Scan(ctx, func(rec *record.Record) bool {
				sink += rec.PK()
				return true
			}))
		},
		func() {
			got, err := f.scan(master, r.q.q1, 0)
			r.check("ladder q1", got, err, want)
		})
	rungUnit, rungExec, rungFacade := top[0], top[1], top[2]
	if scanErr != nil {
		return scanErr
	}
	set("engine.unit_ns_per_row", perRow(rungUnit, liveRows), "ns")
	set("query.plan_us", micros(planTime), "us")
	set("query.exec_ns_per_row", perRow(rungExec, liveRows), "ns")
	set("facade.iter_ns_per_row", perRow(rungFacade, liveRows), "ns")

	// Storage counters per Q1, as counted around the timed Q1 blocks.
	for i, name := range []string{"segments_scanned", "segments_skipped", "pages_scanned", "pages_skipped", "dcz_page_decodes"} {
		set("store."+name+"_per_query", float64(r.q1Store[i])/float64(max(r.q1Queries, 1)), "count")
	}
	// Decoded pages stay cached until Close, and the hybrid engine reads
	// every live slot to rebuild its key indexes at Open: there the decode
	// is part of the reopen, not of any query.
	set("store.dcz_page_decodes_per_reopen", float64(r.reopenDec)/float64(max(len(r.samples["reopen_ms"]), 1)), "count")

	// bitmap, commit log, version graph, write-ahead log: the layers
	// under commit, merge and the multi-branch scans.
	bits := r.w.rows
	a, b := bitmap.New(bits), bitmap.New(bits)
	for i := 0; i < bits; i += 2 {
		a.Set(i)
		b.Set(i + i%3)
	}
	set("bitmap.or_ns_per_kbit", float64(r.bench("bitmap.or", 2000, func() { a.Or(b) }).Nanoseconds())/(float64(bits)/1000), "ns")
	cl, err := bitmap.OpenCommitLog(filepath.Join(scratch, "ladder.hist"), 0)
	if err != nil {
		return err
	}
	defer cl.Close()
	const logCommits = 64
	var logErr error
	step := 0
	set("bitmap.commitlog_append_us", micros(r.bench("bitmap.commitlog_append", logCommits, func() {
		for i := 0; i < 300; i++ {
			step = (step + 7919) % bits
			a.SetTo(step, !a.Get(step))
		}
		if _, err := cl.Append(a); err != nil {
			logErr = err
		}
	})), "us")
	at := 0
	set("bitmap.commitlog_checkout_us", micros(r.bench("bitmap.commitlog_checkout", logCommits, func() {
		if _, err := cl.Checkout(at % logCommits); err != nil {
			logErr = err
		}
		at += 17
	})), "us")
	if logErr != nil {
		return logErr
	}
	g := db.Graph()
	mhead, _ := g.Head(mb.ID)
	branches := g.Branches()
	k := 0
	set("vgraph.lca_us", micros(r.bench("vgraph.lca", 200, func() {
		sink += int64(g.LCA(mhead, branches[k%len(branches)].Head))
		k++
	})), "us")
	wl, err := wal.Open(filepath.Join(scratch, "ladder.wal"))
	if err != nil {
		return err
	}
	defer wl.Close()
	payload := make([]byte, 4096)
	var walErr error
	set("wal.append_us", micros(r.bench("wal.append", 256, func() {
		if _, err := wl.AppendGroup(payload); err != nil {
			walErr = err
		}
	})), "us")
	set("wal.sync_us", micros(r.bench("wal.sync", 8, func() {
		if _, err := wl.AppendGroup(payload); err != nil {
			walErr = err
		}
		walErr = errors.Join(walErr, wl.Sync())
	})), "us")
	if walErr != nil {
		return walErr
	}

	// The commit path under the facade: core.Table.InsertBatch/Delete +
	// Database.Commit, without sessions and locks; then the facade's own
	// commit block with write syscalls counted.
	recs := make([]*decibel.Record, 0, 2*r.w.commitRows)
	var coreErr error
	set("core.commit_ms", r.bench("core.commit", 8, func() {
		o := r.s.edit(master, r.w.commitRows, r.w.commitRows, r.w.commitRows)
		recs = recs[:0]
		for _, w := range o.writes {
			if w.st != stateDead {
				rec := decibel.NewRecord(schema)
				r.g.fill(rec, w.pk, w.st)
				recs = append(recs, rec)
			}
		}
		coreErr = errors.Join(coreErr, tbl.InsertBatch(mb.ID, recs))
		for _, w := range o.writes {
			if w.st == stateDead {
				coreErr = errors.Join(coreErr, tbl.Delete(mb.ID, w.pk))
			}
		}
		_, err := db.Database.Commit(mb.ID, "ladder")
		coreErr = errors.Join(coreErr, err)
	}).Seconds()*1e3, "ms")
	r.vers[master]++
	r.dirty[master] = true
	nb := 0
	set("core.branch_us", micros(r.bench("core.branch", 4, func() {
		name := fmt.Sprintf("ladder%d", nb)
		nb++
		head, _ := g.Head(mb.ID)
		_, err := db.Database.Branch(name, head)
		coreErr = errors.Join(coreErr, err)
		r.s.branch(master, name)
		r.index[name] = len(r.index)
	})), "us")
	if coreErr != nil {
		return coreErr
	}
	commits := func(t target, n int) time.Duration {
		return r.bench("ladder.commits", n, func() {
			r.doOn(t, r.s.edit(master, r.w.commitRows, r.w.commitRows, r.w.commitRows))
		})
	}
	sys0, err := procIO("syscw")
	if err != nil {
		return err
	}
	commits(r.t, 8)
	sys1, err := procIO("syscw")
	if err != nil {
		return err
	}
	set("io.write_syscalls_per_commit", float64(sys1-sys0)/8, "count")
	r.s.take()

	// vf.resolve_cold_ms: the first Q1 on a branch after a reopen.
	if _, err := r.t.reopen(); err != nil {
		return err
	}
	db = f.db
	cold := r.reads[0]
	set("vf.resolve_cold_ms", r.bench("ladder.cold_q1", 1, func() {
		got, err := f.scan(cold, r.q.q1, 0)
		r.check("cold q1", got, err, r.wantScan(cold, r.q.q1, 0))
	}).Seconds()*1e3, "ms")

	// The serving layer: the limit-100 Q1 through the client against
	// the same query through the facade, response bytes per row, and
	// reads while a second connection commits to another branch.
	sv, owned := r.t.(*served)
	if !owned {
		if sv, err = serve(f, 0); err != nil {
			return err
		}
	}
	wantTop := r.wantScan(master, r.q.q1, 100)
	direct := r.bench("ladder.facade_top100", 20, func() {
		got, err := f.scan(master, r.q.q1, 100)
		r.check("ladder top-100", got, err, wantTop)
	})
	wire := r.bench("ladder.client_top100", 20, func() {
		got, err := sv.scan(master, r.q.q1, 100)
		r.check("ladder served top-100", got, err, wantTop)
	})
	set("server.query_overhead_us", micros(wire-direct), "us")
	body, err := sv.rawQuery(client.QueryRequest{Table: table, Branches: []string{master}, Where: r.q.q1.wire(), Select: projected, Limit: 1000})
	if err != nil {
		return err
	}
	set("server.json_bytes_per_row", float64(body)/1000, "B")
	under, err := r.readUnderWrite(sv, wantTop)
	if err != nil {
		return err
	}
	set("server.read_ms_under_write", under.Seconds()*1e3, "ms")
	set("server.read_stall_ratio", float64(under)/float64(wire), "ratio")
	if !owned {
		if err := sv.shutdown(); err != nil { // closes the database too
			return err
		}
		f.db = nil
	}

	// core.parallel_speedup: sequential over parallel Q1 with the scan
	// pool and GOMAXPROCS at the machine's CPU count.
	procs := runtime.NumCPU()
	if err := r.reconfigure(false, decibel.WithScanWorkers(procs)); err != nil {
		return err
	}
	runtime.GOMAXPROCS(procs)
	want = r.wantScan(master, r.q.q1, 0) // master has been committed to since the ladder's Q1
	q1 := func(sequential bool) func() {
		return func() {
			q := f.db.Query(table).On(master).Where(expr).Select(projected...)
			if sequential {
				q = q.Sequential()
			}
			got, err := drain(q.Rows())
			r.check("ladder parallel q1", got, err, want)
		}
	}
	q1(false)() // warm the pool
	seqT := r.bench("ladder.q1_sequential", 5, q1(true))
	parT := r.bench("ladder.q1_parallel", 5, q1(false))
	runtime.GOMAXPROCS(1)
	set("core.parallel_speedup", float64(seqT)/float64(parT), "ratio")

	// wal.commit_fsync_ms: the commit block with fsync on.
	if err := r.reconfigure(false, decibel.WithFsync(true)); err != nil {
		return err
	}
	set("wal.commit_fsync_ms", commits(f, 8).Seconds()*1e3, "ms")

	// Compaction: one pass alone (what it rewrote and reclaimed), then
	// commits issued while a second pass runs.
	if err := r.reconfigure(false, decibel.WithCompaction("manual")); err != nil {
		return err
	}
	w0, err := procIO("wchar")
	if err != nil {
		return err
	}
	var st decibel.CompactionStats
	var cerr error
	set("compact.pass_ms", r.bench("compact.pass", 1, func() { st, cerr = f.db.Compact() }).Seconds()*1e3, "ms")
	if cerr != nil {
		return cerr
	}
	w1, err := procIO("wchar")
	if err != nil {
		return err
	}
	set("compact.bytes_rewritten", float64(w1-w0), "B")
	set("compact.bytes_reclaimed", float64(st.BytesReclaimed), "B")
	commits(f, 8) // something for the second pass to do
	done := make(chan error, 1)
	go func() {
		_, err := f.db.Compact()
		done <- err
	}()
	stalled, during := time.Duration(0), 0
	for running := true; running; {
		stalled += commits(f, 1)
		if during++; during == 64 { // enough samples; wait the pass out
			cerr, running = <-done, false
			continue
		}
		select {
		case cerr = <-done:
			running = false
		default:
		}
	}
	if cerr != nil {
		return cerr
	}
	set("compact.stall_commit_ms", stalled.Seconds()*1e3/float64(during), "ms")
	r.s.take()

	// Back to the workload's own configuration, and one last check that
	// every head still equals the model.
	if err := r.reconfigure(true); err != nil {
		return err
	}
	r.verifyAll()
	return r.tr.write(r.cfg.traceOut, map[string]any{
		"workload": r.w.name,
		"q1_ladder_ns_per_row": map[string]float64{
			"1_heap_scan":            perRow(rungHeap, float64(n)),
			"2_plus_predicate":       perRow(rungPred, float64(n)),
			"3_plus_decode":          perRow(rungDecode, float64(n)),
			"4_engine_units":         perRow(rungUnit, liveRows),
			"5_query_exec":           perRow(rungExec, liveRows),
			"6_facade_rows_and_plan": perRow(rungFacade, liveRows),
		},
	})
}

// rawQuery posts a query and returns the response body's length.
func (s *served) rawQuery(req client.QueryRequest) (int, error) {
	blob, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	resp, err := s.hc.Post(s.base+"/v1/query", "application/json", bytes.NewReader(blob))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("POST /v1/query: %s", resp.Status)
	}
	return int(n), err
}

// readUnderWrite times the limit-100 Q1 on master while a second
// connection commits update-only transactions to a feature branch. The
// transactions are generated up front and replayed in a loop (an upsert
// of the same row version is idempotent), so the model is not touched
// while the writer runs.
func (r *runner) readUnderWrite(sv *served, want result) (time.Duration, error) {
	branch := r.pool[0]
	reqs := make([]client.CommitRequest, 16)
	for i := range reqs {
		reqs[i] = commitRequest(r.g, r.s.edit(branch, r.w.commitRows, 0, 0))
	}
	r.s.take()
	r.vers[branch]++
	r.dirty[branch] = true

	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: time.Minute}
	defer hc.CloseIdleConnections()
	writer := client.New(sv.base, client.WithHTTPClient(hc))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			if _, err := writer.Commit(ctx, reqs[i%len(reqs)]); err != nil {
				if ctx.Err() != nil {
					err = nil
				}
				done <- err
				return
			}
		}
	}()
	d := r.bench("ladder.client_top100_under_write", 20, func() {
		got, err := sv.scan(decibel.Master, r.q.q1, 100)
		r.check("served top-100 under write", got, err, want)
	})
	cancel()
	if err := <-done; err != nil {
		return d, err
	}
	// The model already holds all the transactions; the writer may have
	// been stopped before its first full cycle.
	for _, req := range reqs {
		r.attempted++
		if _, err := sv.c.Commit(context.Background(), req); err != nil {
			r.fail("replay of the concurrent writer's commits", err)
		}
	}
	return d, nil
}
