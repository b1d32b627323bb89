package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"decibel"
	"decibel/client"
)

// target is the system under test as a user reaches it: the decibel
// facade in process, or decibel/client against a decibel.NewServer on
// loopback. Both answer the same operations with a count and checksum
// the runner compares with the model.
type target interface {
	scan(branch string, p pred, limit int) (result, error)
	diff(a, b string, p pred, limit int) (result, error)
	join(left, right string, p pred) (result, error)
	heads(p pred, index map[string]int) (result, error)
	groupBy(branch string, verify bool) (*groups, error)
	point(branch string, pk int64) (result, error)
	apply(o op) error
	// reopen is Close -> Open -> Count on master.
	reopen() (int, error)
	close() error
}

// facade drives the public decibel package.
type facade struct {
	db   *decibel.DB
	dir  string
	opts []decibel.Option
	g    *generator
	tr   *tracer
	recs []*decibel.Record // reused across commits
}

// create opens a fresh dataset at dir with the events table.
func create(dir string, opts []decibel.Option, g *generator, tr *tracer) (*facade, error) {
	db, err := decibel.Open(dir, opts...)
	if err != nil {
		return nil, err
	}
	if _, err := db.CreateTable(table, g.schema); err != nil {
		return nil, errors.Join(err, db.Close())
	}
	if _, _, err := db.Init("init"); err != nil {
		return nil, errors.Join(err, db.Close())
	}
	return &facade{db: db, dir: dir, opts: opts, g: g, tr: tr}, nil
}

func (f *facade) close() error { return f.db.Close() }

// drain consumes a projected row sequence into a result.
func drain(rows func(func(*decibel.Record) bool), errf func() error) (result, error) {
	var res result
	ia, ic := -1, -1
	for rec := range rows {
		if ia < 0 {
			ia, ic = rec.Schema().ColumnIndex("amt"), rec.Schema().ColumnIndex("cat")
		}
		res.add(rowDigest(rec.PK(), rec.GetFloat64(ia), rec.Get(ic)))
	}
	return res, errf()
}

func ordered(q *decibel.Query, limit int) *decibel.Query {
	if limit > 0 {
		// ts must survive the projection to be ordered on.
		return q.Select("id", "amt", "cat", "ts").OrderBy("ts", true).Limit(limit)
	}
	return q.Select(projected...)
}

func (f *facade) scan(branch string, p pred, limit int) (result, error) {
	defer f.tr.span("facade.scan")()
	return drain(ordered(f.db.Query(table).On(branch).Where(p.expr()), limit).Rows())
}

func (f *facade) diff(a, b string, p pred, limit int) (result, error) {
	defer f.tr.span("facade.diff")()
	return drain(ordered(f.db.Query(table).Where(p.expr()), limit).Diff(a, b))
}

func (f *facade) join(left, right string, p pred) (result, error) {
	defer f.tr.span("facade.join")()
	tuples, errf := f.db.Query(table).On(left).Where(p.expr()).Select(projected...).
		JoinOn(f.db.Query(table).On(right).Select(projected...), decibel.On("id", "id")).
		Tuples()
	var res result
	for t := range tuples {
		l, r := t[0], t[1]
		res.add(rowDigest(l.PK(), l.GetFloat64(1), l.Get(2)) + 31*rowDigest(r.PK(), r.GetFloat64(1), r.Get(2)))
	}
	return res, errf()
}

func (f *facade) heads(p pred, index map[string]int) (result, error) {
	defer f.tr.span("facade.heads")()
	rows, errf := f.db.Query(table).Heads().Where(p.expr()).Select(projected...).Annotated()
	var res result
	for rec, names := range rows {
		var m uint64
		for _, name := range names {
			m = memberDigest(m, index[name])
		}
		res.add(rowDigest(rec.PK(), rec.GetFloat64(1), rec.Get(2)) ^ mix(m))
	}
	return res, errf()
}

func (f *facade) groupBy(branch string, verify bool) (*groups, error) {
	defer f.tr.span("facade.groupby")()
	aggs := []decibel.Agg{decibel.Count(), decibel.Sum("amt"), decibel.Avg("qty")}
	if verify {
		aggs = append(aggs, decibel.Sum("ts"), decibel.Sum("qty"))
	}
	rows, errf := f.db.Query(table).On(branch).GroupBy("cat").Groups(aggs...)
	var gs groups
	for g := range rows {
		cat, ok := g.Key[0].(int64)
		if !ok || cat < 0 || cat >= numCats {
			return nil, fmt.Errorf("group key %v is not a category", g.Key[0])
		}
		gs[cat] = groupOf(g.Aggs)
	}
	return &gs, errf()
}

func groupOf(aggs []float64) group {
	g := group{n: int64(aggs[0]), amt: aggs[1], avg: aggs[2]}
	if len(aggs) == 5 {
		g.ts, g.qty = aggs[3], aggs[4]
	}
	return g
}

func (f *facade) point(branch string, pk int64) (result, error) {
	defer f.tr.span("facade.point")()
	rows, errf := f.db.Query(table).On(branch).Where(decibel.Col("id").Eq(pk)).Rows()
	var res result
	for rec := range rows {
		res.add(rowDigest(rec.PK(), rec.GetFloat64(colAmt), rec.Get(colCat)) + uint64(rec.Get(colTS)) + uint64(rec.Get(colQty)))
	}
	return res, errf()
}

func (f *facade) apply(o op) error {
	switch o.kind {
	case opCommit:
		defer f.tr.span("facade.commit")()
		_, err := f.db.Commit(o.branch, func(tx *decibel.Tx) error {
			n := 0
			for _, w := range o.writes {
				if w.st == stateDead {
					continue
				}
				if n == len(f.recs) {
					f.recs = append(f.recs, decibel.NewRecord(f.g.schema))
				}
				f.g.fill(f.recs[n], w.pk, w.st)
				n++
			}
			if err := tx.InsertBatch(table, f.recs[:n]); err != nil {
				return err
			}
			for _, w := range o.writes {
				if w.st == stateDead {
					if err := tx.Delete(table, w.pk); err != nil {
						return err
					}
				}
			}
			return nil
		})
		return err
	case opBranch:
		defer f.tr.span("facade.branch")()
		_, err := f.db.Branch(o.from, o.branch)
		return err
	case opMerge:
		defer f.tr.span("facade.merge")()
		_, st, err := f.db.Merge(o.branch, o.from)
		if err == nil && st.Conflicts != 0 {
			err = fmt.Errorf("merge %s into %s: %d conflicts in a conflict-free script", o.from, o.branch, st.Conflicts)
		}
		return err
	default:
		defer f.tr.span("facade.compact")()
		_, err := f.db.Compact()
		return err
	}
}

func (f *facade) reopen() (int, error) {
	defer f.tr.span("facade.reopen")()
	if err := f.db.Close(); err != nil {
		return 0, err
	}
	db, err := decibel.Open(f.dir, f.opts...)
	if err != nil {
		return 0, err
	}
	f.db = db
	return db.Query(table).On(decibel.Master).Count()
}

// served drives the same operations through decibel/client against an
// in-process decibel.NewServer on a loopback listener, over one
// keep-alive connection. Set-up still loads through the facade.
type served struct {
	*facade
	c      *client.Client
	hc     *http.Client
	base   string
	stop   context.CancelFunc
	done   chan error
	every  int // POST /v1/compact every n commits
	sinceC int
}

func serve(f *facade, compactEvery int) (*served, error) {
	s := &served{facade: f, every: compactEvery}
	return s, s.start()
}

func (s *served) start() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.stop, s.done = cancel, make(chan error, 1)
	srv := decibel.NewServer(s.db)
	go func() { s.done <- srv.Serve(ctx, ln) }()
	s.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: time.Minute}
	s.base = "http://" + ln.Addr().String()
	s.c = client.New(s.base, client.WithHTTPClient(s.hc))
	return nil
}

// shutdown stops the server, which drains requests and closes the
// database.
func (s *served) shutdown() error {
	s.hc.CloseIdleConnections()
	s.stop()
	return <-s.done
}

func (s *served) close() error { return s.shutdown() }

func (s *served) reopen() (int, error) {
	defer s.tr.span("client.reopen")()
	if err := s.shutdown(); err != nil {
		return 0, err
	}
	db, err := decibel.Open(s.dir, s.opts...)
	if err != nil {
		return 0, err
	}
	s.db = db
	if err := s.start(); err != nil {
		return 0, err
	}
	resp, err := s.c.Query(context.Background(), client.QueryRequest{Table: table, Branches: []string{decibel.Master}, Agg: "count"})
	if err != nil {
		return 0, err
	}
	return resp.Count, nil
}

func num(v any) (float64, error) {
	n, ok := v.(json.Number)
	if !ok {
		return 0, fmt.Errorf("wire value %v is not a number", v)
	}
	return n.Float64()
}

func wireDigest(row client.Row) (uint64, error) {
	id, ok := row["id"].(json.Number)
	if !ok {
		return 0, fmt.Errorf("row without id: %v", row)
	}
	pk, err := id.Int64()
	if err != nil {
		return 0, err
	}
	amt, err := num(row["amt"])
	if err != nil {
		return 0, err
	}
	cat, err := num(row["cat"])
	if err != nil {
		return 0, err
	}
	return rowDigest(pk, amt, int64(cat)), nil
}

func (s *served) rows(req client.QueryRequest, limit int) (result, error) {
	req.Table, req.Select = table, projected
	if limit > 0 {
		req.Select = []string{"id", "amt", "cat", "ts"}
		req.OrderBy, req.Desc, req.Limit = "ts", true, limit
	}
	resp, err := s.c.Query(context.Background(), req)
	if err != nil {
		return result{}, err
	}
	var res result
	for _, row := range resp.Rows {
		d, err := wireDigest(row)
		if err != nil {
			return res, err
		}
		res.add(d)
	}
	return res, nil
}

func (s *served) scan(branch string, p pred, limit int) (result, error) {
	defer s.tr.span("client.scan")()
	return s.rows(client.QueryRequest{Branches: []string{branch}, Where: p.wire()}, limit)
}

func (s *served) diff(a, b string, p pred, limit int) (result, error) {
	defer s.tr.span("client.diff")()
	return s.rows(client.QueryRequest{Diff: []string{a, b}, Where: p.wire()}, limit)
}

func (s *served) join(left, right string, p pred) (result, error) {
	defer s.tr.span("client.join")()
	resp, err := s.c.Query(context.Background(), client.QueryRequest{
		Table: table, Branches: []string{left}, Where: p.wire(), Select: projected,
		Join: []client.JoinClause{{Table: table, Branch: right, On: [2]string{"id", "id"}, Select: projected}},
	})
	if err != nil {
		return result{}, err
	}
	var res result
	for _, t := range resp.Tuples {
		if len(t) != 2 {
			return res, fmt.Errorf("join tuple of %d rows", len(t))
		}
		l, err := wireDigest(t[0])
		if err != nil {
			return res, err
		}
		r, err := wireDigest(t[1])
		if err != nil {
			return res, err
		}
		res.add(l + 31*r)
	}
	return res, nil
}

func (s *served) heads(p pred, index map[string]int) (result, error) {
	defer s.tr.span("client.heads")()
	resp, err := s.c.Query(context.Background(), client.QueryRequest{Table: table, Heads: true, Where: p.wire(), Select: projected})
	if err != nil {
		return result{}, err
	}
	var res result
	for _, row := range resp.Rows {
		d, err := wireDigest(row)
		if err != nil {
			return res, err
		}
		names, _ := row["_branches"].([]any)
		var m uint64
		for _, name := range names {
			s, _ := name.(string)
			m = memberDigest(m, index[s])
		}
		res.add(d ^ mix(m))
	}
	return res, nil
}

func (s *served) groupBy(branch string, verify bool) (*groups, error) {
	defer s.tr.span("client.groupby")()
	aggs := []client.AggClause{{Agg: "count"}, {Agg: "sum", Col: "amt"}, {Agg: "avg", Col: "qty"}}
	if verify {
		aggs = append(aggs, client.AggClause{Agg: "sum", Col: "ts"}, client.AggClause{Agg: "sum", Col: "qty"})
	}
	resp, err := s.c.Query(context.Background(), client.QueryRequest{Table: table, Branches: []string{branch}, GroupBy: []string{"cat"}, Aggs: aggs})
	if err != nil {
		return nil, err
	}
	var gs groups
	for _, g := range resp.Groups {
		cat, err := num(g.Key[0])
		if err != nil || cat < 0 || cat >= numCats {
			return nil, fmt.Errorf("group key %v is not a category", g.Key[0])
		}
		gs[int(cat)] = groupOf(g.Aggs)
	}
	return &gs, nil
}

func (s *served) point(branch string, pk int64) (result, error) {
	defer s.tr.span("client.point")()
	resp, err := s.c.Query(context.Background(), client.QueryRequest{
		Table: table, Branches: []string{branch}, Where: &client.Expr{Col: "id", Op: "eq", Val: pk},
	})
	if err != nil {
		return result{}, err
	}
	var res result
	for _, row := range resp.Rows {
		d, err := wireDigest(row)
		if err != nil {
			return res, err
		}
		ts, err := num(row["ts"])
		if err != nil {
			return res, err
		}
		qty, err := num(row["qty"])
		if err != nil {
			return res, err
		}
		res.add(d + uint64(ts) + uint64(qty))
	}
	return res, nil
}

func (s *served) apply(o op) error {
	ctx := context.Background()
	switch o.kind {
	case opCommit:
		defer s.tr.span("client.commit")()
		_, err := s.c.Commit(ctx, commitRequest(s.g, o))
		if err == nil {
			s.sinceC++
		}
		return err
	case opBranch:
		defer s.tr.span("client.branch")()
		_, err := s.c.Branch(ctx, o.from, o.branch)
		return err
	case opMerge:
		defer s.tr.span("client.merge")()
		resp, err := s.c.Merge(ctx, client.MergeRequest{Into: o.branch, From: o.from})
		if err == nil && resp.Conflicts != 0 {
			err = fmt.Errorf("merge %s into %s: %d conflicts in a conflict-free script", o.from, o.branch, resp.Conflicts)
		}
		return err
	default:
		return s.compact()
	}
}

// commitRequest is the wire form of a commit op.
func commitRequest(g *generator, o op) client.CommitRequest {
	rec := decibel.NewRecord(g.schema)
	ops := make([]client.Op, 0, len(o.writes))
	for _, w := range o.writes {
		if w.st == stateDead {
			ops = append(ops, client.Op{Op: "delete", Table: table, PK: w.pk})
			continue
		}
		g.fill(rec, w.pk, w.st)
		ops = append(ops, client.Op{Op: "insert", Table: table, Values: map[string]any{
			"id": w.pk, "ts": rec.Get(colTS), "cat": rec.Get(colCat), "region": string(rec.GetBytes(colRegion)),
			"amt": rec.GetFloat64(colAmt), "qty": rec.Get(colQty), "tag": string(rec.GetBytes(colTag)),
			"pad": string(rec.GetBytes(colPad)),
		}})
	}
	return client.CommitRequest{Branch: o.branch, Ops: ops}
}

// compact is POST /v1/compact; decibel/client has no method for it.
func (s *served) compact() error {
	defer s.tr.span("client.compact")()
	resp, err := s.hc.Post(s.base+"/v1/compact", "application/json", bytes.NewReader(nil))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /v1/compact: %s", resp.Status)
	}
	return nil
}

// compactDue reports whether the served workload's count-triggered
// compaction should run now: one pass every n acknowledged commits,
// never on a timer.
func (s *served) compactDue() bool {
	if s.every == 0 || s.sinceC < s.every {
		return false
	}
	s.sinceC = 0
	return true
}
