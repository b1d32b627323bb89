package decibel_test

// Serving-layer tests: the HTTP/JSON protocol end to end through the
// decibel/client package (queries of every shape, transactional
// commits, branch/merge, schema alters, error codes), snapshot-pinned
// reads via AtCommit, and graceful shutdown (drain then
// ErrDatabaseClosed, never a hang). The concurrent-serving stress test
// lives in serve_stress_test.go so CI's -race pass picks it up by
// name.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math"
	"net"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"decibel"
	"decibel/client"
)

// newServeClient opens a products dataset on the engine, mounts a
// Server on an httptest listener and returns a client for it.
func newServeClient(t *testing.T, engine string) (*decibel.DB, *client.Client) {
	t.Helper()
	db := newServeDB(t, engine)
	ts := httptest.NewServer(decibel.NewServer(db).Handler())
	t.Cleanup(ts.Close)
	return db, client.New(ts.URL)
}

func newServeDB(t *testing.T, engine string) *decibel.DB {
	t.Helper()
	db, err := decibel.Open(t.TempDir(), decibel.WithEngine(engine))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	schema := decibel.NewSchema().Int64("id").Int64("qty").Float64("price").Bytes("sku", 8).MustBuild()
	if _, err := db.CreateTable("products", schema); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Init("init"); err != nil {
		t.Fatal(err)
	}
	return db
}

func insertOp(pk, qty int64, price float64, sku string) client.Op {
	return client.Op{Op: "insert", Table: "products", Values: map[string]any{
		"id": pk, "qty": qty, "price": price, "sku": sku,
	}}
}

// rowInt reads an integer column out of a wire row (the client decodes
// numbers as json.Number to keep int64 values exact).
func rowInt(t *testing.T, row client.Row, col string) int64 {
	t.Helper()
	n, ok := row[col].(json.Number)
	if !ok {
		t.Fatalf("row[%q] = %T(%v), want json.Number", col, row[col], row[col])
	}
	v, err := n.Int64()
	if err != nil {
		t.Fatalf("row[%q] = %v: %v", col, n, err)
	}
	return v
}

func TestServeEndToEnd(t *testing.T) {
	for _, engine := range facadeEngines {
		t.Run(engine, func(t *testing.T) {
			_, c := newServeClient(t, engine)
			ctx := context.Background()

			// Ten products committed as one transaction.
			ops := make([]client.Op, 0, 10)
			for pk := int64(1); pk <= 10; pk++ {
				ops = append(ops, insertOp(pk, pk, float64(pk)*1.5, fmt.Sprintf("sku-%03d", pk)))
			}
			cm, err := c.Commit(ctx, client.CommitRequest{Branch: "master", Message: "ten products", Ops: ops})
			if err != nil {
				t.Fatal(err)
			}
			if cm.Commit == 0 {
				t.Fatal("commit reported ID 0")
			}

			// Full single-branch read: ten rows, pinned to a commit.
			head, err := c.Query(ctx, client.QueryRequest{Table: "products", Branches: []string{"master"}})
			if err != nil {
				t.Fatal(err)
			}
			if head.Count != 10 || len(head.Rows) != 10 {
				t.Fatalf("head read: count=%d rows=%d, want 10", head.Count, len(head.Rows))
			}
			if head.Commit != cm.Commit || head.Branch != "master" {
				t.Fatalf("head read pinned to commit %d on %q, want %d on master", head.Commit, head.Branch, cm.Commit)
			}

			// Predicate + projection + order + limit.
			resp, err := c.Query(ctx, client.QueryRequest{
				Table:    "products",
				Branches: []string{"master"},
				Where:    &client.Expr{Col: "price", Op: "le", Val: 9.0},
				Select:   []string{"sku", "price"},
				OrderBy:  "price", Desc: true, Limit: 3,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(resp.Rows) != 3 {
				t.Fatalf("ordered read: %d rows, want 3", len(resp.Rows))
			}
			if sku := resp.Rows[0]["sku"]; sku != "sku-006" { // price 9.0 is pk 6
				t.Fatalf("top row sku = %v, want sku-006", sku)
			}
			if _, ok := resp.Rows[0]["qty"]; ok {
				t.Fatal("projection leaked the qty column")
			}

			// Aggregates.
			if resp, err = c.Query(ctx, client.QueryRequest{Table: "products", Branches: []string{"master"}, Agg: "count"}); err != nil {
				t.Fatal(err)
			} else if resp.Count != 10 {
				t.Fatalf("count = %d, want 10", resp.Count)
			}
			if resp, err = c.Query(ctx, client.QueryRequest{Table: "products", Branches: []string{"master"}, Agg: "sum", AggCol: "qty"}); err != nil {
				t.Fatal(err)
			} else if resp.Agg != 55 {
				t.Fatalf("sum(qty) = %v, want 55", resp.Agg)
			}

			// Branch, diverge, diff, multi-branch annotated read.
			if _, err := c.Branch(ctx, "master", "dev"); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Commit(ctx, client.CommitRequest{Branch: "dev", Ops: []client.Op{insertOp(11, 11, 16.5, "sku-011")}}); err != nil {
				t.Fatal(err)
			}
			if resp, err = c.Query(ctx, client.QueryRequest{Table: "products", Diff: []string{"dev", "master"}}); err != nil {
				t.Fatal(err)
			} else if len(resp.Rows) != 1 || rowInt(t, resp.Rows[0], "id") != 11 {
				t.Fatalf("diff(dev, master) = %v, want the one dev record", resp.Rows)
			}
			if resp, err = c.Query(ctx, client.QueryRequest{Table: "products", Branches: []string{"master", "dev"}}); err != nil {
				t.Fatal(err)
			} else {
				if len(resp.Rows) != 11 {
					t.Fatalf("multi-branch read: %d rows, want 11", len(resp.Rows))
				}
				for _, row := range resp.Rows {
					names, ok := row["_branches"].([]any)
					if !ok {
						t.Fatalf("multi-branch row lacks _branches: %v", row)
					}
					want := 2
					if rowInt(t, row, "id") == 11 {
						want = 1
					}
					if len(names) != want {
						t.Fatalf("row %v live on %v branches, want %d", row, names, want)
					}
				}
			}
			if resp, err = c.Query(ctx, client.QueryRequest{Table: "products", Heads: true, Agg: "count"}); err != nil {
				t.Fatal(err)
			} else if resp.Count != 11 {
				t.Fatalf("heads count = %d, want 11", resp.Count)
			}

			// Time travel: the n-th commit on the branch, and the listing
			// that tells us what n is.
			branches, err := c.Branches(ctx)
			if err != nil {
				t.Fatal(err)
			}
			i := slices.IndexFunc(branches, func(b client.BranchResponse) bool { return b.Name == "master" })
			if i < 0 {
				t.Fatalf("branch listing %v lacks master", branches)
			}
			at := branches[i].Commit - 1 // head's zero-based seq
			if resp, err = c.Query(ctx, client.QueryRequest{Table: "products", Branches: []string{"master"}, At: &at}); err != nil {
				t.Fatal(err)
			} else if len(resp.Rows) != 10 {
				t.Fatalf("At(%d) read: %d rows, want 10", at, len(resp.Rows))
			}

			// Snapshot pinning: a head captured before later commits
			// re-reads identically via AtCommit.
			pinned := head.Commit
			if _, err := c.Commit(ctx, client.CommitRequest{Branch: "master", Ops: []client.Op{insertOp(20, 20, 30, "sku-020")}}); err != nil {
				t.Fatal(err)
			}
			if resp, err = c.Query(ctx, client.QueryRequest{Table: "products", Branches: []string{"master"}, AtCommit: pinned}); err != nil {
				t.Fatal(err)
			} else if len(resp.Rows) != 10 || resp.Commit != pinned {
				t.Fatalf("AtCommit(%d) read: %d rows at commit %d, want 10 at %d", pinned, len(resp.Rows), resp.Commit, pinned)
			}
			if resp, err = c.Query(ctx, client.QueryRequest{Table: "products", Branches: []string{"master"}}); err != nil {
				t.Fatal(err)
			} else if len(resp.Rows) != 11 {
				t.Fatalf("post-commit head read: %d rows, want 11", len(resp.Rows))
			}

			// Delete op round trip.
			if _, err := c.Commit(ctx, client.CommitRequest{Branch: "master", Ops: []client.Op{{Op: "delete", Table: "products", PK: 20}}}); err != nil {
				t.Fatal(err)
			}
			if resp, err = c.Query(ctx, client.QueryRequest{Table: "products", Branches: []string{"master"},
				Where: &client.Expr{Col: "id", Op: "eq", Val: 20}}); err != nil {
				t.Fatal(err)
			} else if len(resp.Rows) != 0 {
				t.Fatalf("deleted key still read back: %v", resp.Rows)
			}

			// Merge dev back into master.
			mr, err := c.Merge(ctx, client.MergeRequest{Into: "master", From: "dev"})
			if err != nil {
				t.Fatal(err)
			}
			if mr.Commit == 0 || mr.Conflicts != 0 {
				t.Fatalf("merge = %+v, want a conflict-free commit", mr)
			}
			if resp, err = c.Query(ctx, client.QueryRequest{Table: "products", Branches: []string{"master"},
				Where: &client.Expr{Col: "id", Op: "eq", Val: 11}}); err != nil {
				t.Fatal(err)
			} else if len(resp.Rows) != 1 {
				t.Fatalf("merged record missing: %v", resp.Rows)
			}

			// Schema alter: add a column with a default, insert with it,
			// read the default back off a pre-existing row.
			if _, err := c.Alter(ctx, client.AlterRequest{Branch: "master", Table: "products",
				Add: &client.ColumnDef{Name: "tag", Type: "bytes", Cap: 4, Default: "new"}}); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Commit(ctx, client.CommitRequest{Branch: "master", Ops: []client.Op{
				{Op: "insert", Table: "products", Values: map[string]any{"id": 21, "qty": 21, "price": 1.0, "sku": "sku-021", "tag": "abc"}},
			}}); err != nil {
				t.Fatal(err)
			}
			for pk, want := range map[int64]string{21: "abc", 1: "new"} {
				resp, err = c.Query(ctx, client.QueryRequest{Table: "products", Branches: []string{"master"},
					Where: &client.Expr{Col: "id", Op: "eq", Val: pk}, Select: []string{"tag"}})
				if err != nil {
					t.Fatal(err)
				}
				if len(resp.Rows) != 1 || resp.Rows[0]["tag"] != want {
					t.Fatalf("tag of pk %d = %v, want %q", pk, resp.Rows, want)
				}
			}

			// Listings and liveness.
			tables, err := c.Tables(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) != 1 || tables[0].Name != "products" || len(tables[0].Columns) != 5 {
				t.Fatalf("tables = %+v, want products with 5 columns", tables)
			}
			if !c.Healthy(ctx) {
				t.Fatal("healthz reported unhealthy on a live server")
			}
			vars, err := c.Vars(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if n, ok := vars["decibel.server.requests"].(json.Number); !ok || n.String() == "0" {
				t.Fatalf("decibel.server.requests = %v, want a moved counter", vars["decibel.server.requests"])
			}
		})
	}
}

// TestServeErrorCodes checks the protocol's stable error mapping: each
// failure class arrives as a client.Error with the documented HTTP
// status and code.
func TestServeErrorCodes(t *testing.T) {
	_, c := newServeClient(t, "hybrid")
	ctx := context.Background()

	cases := []struct {
		name   string
		do     func() error
		status int
		code   string
	}{
		{"no_such_table", func() error {
			_, err := c.Query(ctx, client.QueryRequest{Table: "nope", Branches: []string{"master"}})
			return err
		}, 404, "no_such_table"},
		{"no_such_branch", func() error {
			_, err := c.Query(ctx, client.QueryRequest{Table: "products", Branches: []string{"nope"}})
			return err
		}, 404, "no_such_branch"},
		{"no_such_column", func() error {
			_, err := c.Query(ctx, client.QueryRequest{Table: "products", Branches: []string{"master"},
				Where: &client.Expr{Col: "nope", Op: "eq", Val: 1}})
			return err
		}, 400, "no_such_column"},
		{"type_mismatch", func() error {
			_, err := c.Query(ctx, client.QueryRequest{Table: "products", Branches: []string{"master"},
				Where: &client.Expr{Col: "price", Op: "prefix", Val: "x"}})
			return err
		}, 400, "type_mismatch"},
		{"no_such_commit", func() error {
			at := 99
			_, err := c.Query(ctx, client.QueryRequest{Table: "products", Branches: []string{"master"}, At: &at})
			return err
		}, 404, "no_such_commit"},
		{"negative_at", func() error {
			// A negative commit number names no commit; it must not
			// read the head.
			at := -3
			_, err := c.Query(ctx, client.QueryRequest{Table: "products", Branches: []string{"master"}, At: &at})
			return err
		}, 404, "no_such_commit"},
		{"bad_query_diff_arity", func() error {
			_, err := c.Query(ctx, client.QueryRequest{Table: "products", Diff: []string{"master"}})
			return err
		}, 400, "bad_query"},
		{"diff_with_agg", func() error {
			// A scalar aggregate would fold the union of both heads, not
			// the diff.
			if _, err := c.Branch(ctx, "master", "dev"); err != nil {
				return err
			}
			_, err := c.Query(ctx, client.QueryRequest{Table: "products", Diff: []string{"dev", "master"}, Agg: "count"})
			return err
		}, 400, "bad_query"},
		{"bad_predicate_node", func() error {
			_, err := c.Query(ctx, client.QueryRequest{Table: "products", Branches: []string{"master"},
				Where: &client.Expr{Col: "qty", Op: "eq", Val: 1, And: []client.Expr{{Col: "qty", Op: "eq", Val: 1}}}})
			return err
		}, 400, "bad_request"},
		{"unknown_agg", func() error {
			_, err := c.Query(ctx, client.QueryRequest{Table: "products", Branches: []string{"master"}, Agg: "median"})
			return err
		}, 400, "bad_request"},
		{"unknown_op", func() error {
			_, err := c.Commit(ctx, client.CommitRequest{Branch: "master", Ops: []client.Op{{Op: "upsertish", Table: "products"}}})
			return err
		}, 400, "bad_request"},
		{"unknown_insert_column", func() error {
			_, err := c.Commit(ctx, client.CommitRequest{Branch: "master", Ops: []client.Op{
				{Op: "insert", Table: "products", Values: map[string]any{"id": 1, "nope": 2}}}})
			return err
		}, 400, "bad_request"},
		{"missing_pk", func() error {
			_, err := c.Commit(ctx, client.CommitRequest{Branch: "master", Ops: []client.Op{
				{Op: "insert", Table: "products", Values: map[string]any{"qty": 2}}}})
			return err
		}, 400, "bad_request"},
		{"alter_needs_one_change", func() error {
			_, err := c.Alter(ctx, client.AlterRequest{Branch: "master", Table: "products"})
			return err
		}, 400, "bad_request"},
		{"no_rows", func() error {
			_, err := c.Query(ctx, client.QueryRequest{Table: "products", Branches: []string{"master"},
				Where: &client.Expr{Col: "qty", Op: "lt", Val: 0}, Agg: "min", AggCol: "qty"})
			return err
		}, 404, "no_rows"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.do()
			var ce *client.Error
			if !errors.As(err, &ce) {
				t.Fatalf("err = %v (%T), want *client.Error", err, err)
			}
			if ce.Status != tc.status || ce.Code != tc.code {
				t.Fatalf("err = (%d, %q), want (%d, %q): %v", ce.Status, ce.Code, tc.status, tc.code, ce)
			}
		})
	}
}

// TestServeRejectsInt32Overflow: an insert whose value does not fit an
// int32 column is a 400 bad_request naming the column and commits
// nothing, instead of storing the value wrapped (4294967297 as 1).
func TestServeRejectsInt32Overflow(t *testing.T) {
	db, err := decibel.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.CreateTable("r", decibel.NewSchema().Int64("id").Int32("qty").MustBuild()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Init("init"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(decibel.NewServer(db).Handler())
	defer ts.Close()
	c := client.New(ts.URL)
	ctx := context.Background()
	insert := func(pk, qty int64) error {
		_, err := c.Commit(ctx, client.CommitRequest{Branch: "master", Ops: []client.Op{
			{Op: "insert", Table: "r", Values: map[string]any{"id": pk, "qty": qty}}}})
		return err
	}
	for _, qty := range []int64{1<<32 + 1, math.MinInt32 - 1} {
		var ce *client.Error
		if err := insert(1, qty); !errors.As(err, &ce) || ce.Status != 400 || ce.Code != "bad_request" || !strings.Contains(ce.Message, `"qty"`) {
			t.Fatalf("qty %d: err = %v, want 400 bad_request naming \"qty\"", qty, err)
		}
	}
	if err := insert(2, math.MaxInt32); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Query(ctx, client.QueryRequest{Table: "r", Branches: []string{"master"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 1 || rowInt(t, resp.Rows[0], "id") != 2 || rowInt(t, resp.Rows[0], "qty") != math.MaxInt32 {
		t.Fatalf("master holds %v, want only id 2 with qty %d", resp.Rows, math.MaxInt32)
	}
}

// TestServeAbortedCommitRollsBack: a served commit whose op fails is a
// facade commit whose callback fails — the op's error is the response
// (not a rollback's), the branch head is back at its committed rows and
// no commit is added. An alter whose default does not fit its column
// commits no schema change either.
func TestServeAbortedCommitRollsBack(t *testing.T) {
	for _, engine := range facadeEngines {
		t.Run(engine, func(t *testing.T) {
			db, c := newServeClient(t, engine)
			ctx := context.Background()
			if _, err := c.Commit(ctx, client.CommitRequest{Branch: "master", Ops: []client.Op{
				insertOp(1, 10, 1.5, "one"), insertOp(2, 20, 2.5, "two"),
			}}); err != nil {
				t.Fatal(err)
			}
			headQty := func() map[int64]int64 {
				t.Helper()
				got := map[int64]int64{}
				rows, rowsErr := db.Rows("products", "master")
				for rec := range rows {
					got[rec.PK()] = rec.Get(1)
				}
				if err := rowsErr(); err != nil {
					t.Fatal(err)
				}
				return got
			}
			want := headQty()
			commits := db.Graph().NumCommits()

			_, err := c.Commit(ctx, client.CommitRequest{Branch: "master", Ops: []client.Op{
				insertOp(3, 30, 3.5, "fresh"), // a fresh pk
				insertOp(1, 99, 9.9, "upd"),   // an update of a committed pk
				{Op: "insert", Table: "missing", Values: map[string]any{"id": 4}},
			}})
			var ce *client.Error
			if !errors.As(err, &ce) || ce.Status != 404 || ce.Code != "no_such_table" || !strings.Contains(ce.Message, `"missing"`) {
				t.Fatalf("aborted commit: err = %v, want 404 no_such_table naming \"missing\"", err)
			}
			if got := headQty(); !maps.Equal(got, want) {
				t.Fatalf("head after the aborted commit = %v, want the committed %v", got, want)
			}
			if got := db.Graph().NumCommits(); got != commits {
				t.Fatalf("aborted commit left %d commits, want %d", got, commits)
			}

			master, err := db.BranchNamed("master")
			if err != nil {
				t.Fatal(err)
			}
			head, _ := db.Graph().Head(master.ID)
			before, _ := db.Graph().Commit(head)
			if _, err := c.Alter(ctx, client.AlterRequest{Branch: "master", Table: "products",
				Add: &client.ColumnDef{Name: "tiny", Type: "int32", Default: int64(1) << 40}}); err == nil {
				t.Fatal("alter with an int32 default of 2^40 succeeded")
			}
			next, err := db.Commit("master", func(*decibel.Tx) error { return nil })
			if err != nil {
				t.Fatal(err)
			}
			if next.SchemaVer != before.SchemaVer {
				t.Fatalf("next commit's SchemaVer = %d after the refused alter, want %d", next.SchemaVer, before.SchemaVer)
			}
		})
	}
}

// TestSelectKeepsKeyFirst: a projection that lists the key after other
// columns still keys its records by id, moved to the front, and one
// whose first listed column is not an Int64 reads at all. Every
// projection reads each column by name as the full row holds it, and
// served rows, keyed by column name, do not depend on the order either.
func TestSelectKeepsKeyFirst(t *testing.T) {
	db := buildVersionJoinDB(t, "hybrid", false)
	full := map[int64]*decibel.Record{}
	rows, errf := db.Query("r").On("master").Rows()
	for rec := range rows {
		full[rec.PK()] = rec.Clone()
	}
	if err := errf(); err != nil || len(full) == 0 {
		t.Fatalf("%d rows (%v)", len(full), err)
	}
	ts := httptest.NewServer(decibel.NewServer(db).Handler())
	t.Cleanup(ts.Close)
	c := client.New(ts.URL)
	served := func(sel []string) map[int64]string {
		t.Helper()
		resp, err := c.Query(context.Background(), client.QueryRequest{Table: "r", Branches: []string{"master"}, Select: sel})
		if err != nil {
			t.Fatalf("served Select%q: %v", sel, err)
		}
		out := make(map[int64]string, len(resp.Rows))
		for _, row := range resp.Rows {
			out[rowInt(t, row, "id")] = fmt.Sprint(row)
		}
		return out
	}
	for _, sel := range [][]string{{"v", "id"}, {"sku", "id"}, {"sku", "v"}, {"id", "sku", "v"}} {
		rows, errf := db.Query("r").On("master").Select(sel...).Rows()
		n := 0
		for rec := range rows {
			n++
			want := full[rec.PK()]
			if want == nil || rec.Schema().Column(0).Name != "id" {
				t.Fatalf("Select%q: record %v is not keyed by id", sel, rec)
			}
			for _, name := range sel {
				got := rec.ColumnBytes(rec.Schema().ColumnIndex(name))
				if !bytes.Equal(got, want.ColumnBytes(want.Schema().ColumnIndex(name))) {
					t.Fatalf("Select%q: key %d column %s differs from the full row", sel, rec.PK(), name)
				}
			}
		}
		if err := errf(); err != nil || n != len(full) {
			t.Fatalf("Select%q: %d rows (%v), want %d", sel, n, err, len(full))
		}
		idFirst := append([]string{"id"}, slices.DeleteFunc(slices.Clone(sel), func(s string) bool { return s == "id" })...)
		if got, want := served(sel), served(idFirst); !maps.Equal(got, want) {
			t.Fatalf("served Select%q differs from Select%q", sel, idFirst)
		}
	}
}

// TestServeOrderedLimitUsesOrderedVisit: a served orderBy+limit read —
// which pins the head commit it resolved — returns exactly the facade's
// rows and takes the facade's order-aware unit visit, skipping the
// segments whose zone bound cannot reach the top-k instead of gathering
// the whole commit scan.
func TestServeOrderedLimitUsesOrderedVisit(t *testing.T) {
	db := buildPruningDB(t, "hybrid")
	ts := httptest.NewServer(decibel.NewServer(db).Handler())
	t.Cleanup(ts.Close)
	c := client.New(ts.URL)
	for _, desc := range []bool{false, true} {
		want, err := collectRows(db.Query("r").On("master").Select("v").OrderBy("v", desc).Limit(5).Rows())
		if err != nil {
			t.Fatal(err)
		}
		skips := expvarInt(t, "decibel.ordered_skips")
		resp, err := c.Query(context.Background(), client.QueryRequest{
			Table: "r", Branches: []string{"master"}, Select: []string{"v"},
			OrderBy: "v", Desc: desc, Limit: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Rows) != len(want) {
			t.Fatalf("desc=%v: served %d rows, facade %d", desc, len(resp.Rows), len(want))
		}
		for i, row := range resp.Rows {
			if got := fmt.Sprintf("(pk=%d, v=%d)", rowInt(t, row, "id"), rowInt(t, row, "v")); got != want[i] {
				t.Fatalf("desc=%v row %d: served %s, facade %s", desc, i, got, want[i])
			}
		}
		if expvarInt(t, "decibel.ordered_skips") == skips {
			t.Fatalf("desc=%v: the served read skipped no scan unit: it is not taking the ordered visit", desc)
		}
	}
}

// TestServePointReadAtCommit: a served point read is a lookup of the
// commit it pins — the head resolved for the request, or an older
// atCommit — so after a later rewrite the older pin still reads its
// own version of the key, and the head read the new one.
func TestServePointReadAtCommit(t *testing.T) {
	for _, engine := range facadeEngines {
		t.Run(engine, func(t *testing.T) {
			_, c := newServeClient(t, engine)
			ctx := context.Background()
			old, err := c.Commit(ctx, client.CommitRequest{Branch: "master", Ops: []client.Op{insertOp(1, 10, 1, "old"), insertOp(2, 20, 2, "two")}})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Commit(ctx, client.CommitRequest{Branch: "master", Ops: []client.Op{insertOp(1, 11, 1, "new")}}); err != nil {
				t.Fatal(err)
			}
			for _, tc := range []struct {
				atCommit uint64
				wantQty  int64
			}{{old.Commit, 10}, {0, 11}} {
				before := expvarInt(t, "decibel.point_lookups")
				resp, err := c.Query(ctx, client.QueryRequest{Table: "products", Branches: []string{"master"},
					AtCommit: tc.atCommit, Where: &client.Expr{Col: "id", Op: "eq", Val: 1}})
				if err != nil {
					t.Fatal(err)
				}
				if len(resp.Rows) != 1 || rowInt(t, resp.Rows[0], "qty") != tc.wantQty {
					t.Fatalf("atCommit=%d: rows %v, want pk 1 with qty %d", tc.atCommit, resp.Rows, tc.wantQty)
				}
				if expvarInt(t, "decibel.point_lookups") == before {
					t.Fatalf("atCommit=%d: the served point read scanned instead of looking the key up", tc.atCommit)
				}
			}
		})
	}
}

// TestQueryAtCommit covers the new builder verb directly on the
// facade: pin a head, commit past it, re-read the pinned version.
func TestQueryAtCommit(t *testing.T) {
	for _, engine := range facadeEngines {
		t.Run(engine, func(t *testing.T) {
			db := newServeDB(t, engine)
			rec := func(pk int64) *decibel.Record {
				r := decibel.NewRecord(db.Tables()[0].Schema())
				r.SetPK(pk)
				return r
			}
			pinned, err := db.Commit("master", func(tx *decibel.Tx) error { return tx.Insert("products", rec(1)) })
			if err != nil {
				t.Fatal(err)
			}
			if _, err := db.Commit("master", func(tx *decibel.Tx) error { return tx.Insert("products", rec(2)) }); err != nil {
				t.Fatal(err)
			}
			n, err := db.Query("products").On("master").AtCommit(pinned.ID).Count()
			if err != nil {
				t.Fatal(err)
			}
			if n != 1 {
				t.Fatalf("pinned count = %d, want 1", n)
			}
			if n, err = db.Query("products").On("master").Count(); err != nil || n != 2 {
				t.Fatalf("head count = %d (%v), want 2", n, err)
			}
			// Structural misuse fails with ErrBadQuery.
			if _, err := db.Query("products").On("master").At(0).AtCommit(pinned.ID).Count(); !errors.Is(err, decibel.ErrBadQuery) {
				t.Fatalf("At+AtCommit err = %v, want ErrBadQuery", err)
			}
			if _, err := db.Query("products").Heads().AtCommit(pinned.ID).Count(); !errors.Is(err, decibel.ErrBadQuery) {
				t.Fatalf("Heads+AtCommit err = %v, want ErrBadQuery", err)
			}
		})
	}
}

// TestCloseContextDrainsSessions: Close with an in-flight transaction
// waits for it, while new work started during the drain is refused
// with ErrDatabaseClosed.
func TestCloseContextDrainsSessions(t *testing.T) {
	db := newServeDB(t, "hybrid")
	// The drain poll below must not contend for the blocked writer's
	// branch lock, so it commits on its own branch.
	if _, err := db.Branch("master", "side"); err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	release := make(chan struct{})
	commitDone := make(chan error, 1)
	go func() {
		_, err := db.Commit("master", func(tx *decibel.Tx) error {
			close(started)
			<-release
			r := decibel.NewRecord(db.Tables()[0].Schema())
			r.SetPK(1)
			return tx.Insert("products", r)
		})
		commitDone <- err
	}()
	<-started

	closeDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		closeDone <- db.CloseContext(ctx)
	}()

	// Wait for the drain to begin: once it has, fresh transactions are
	// refused rather than queued or hung.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := db.Commit("side", func(tx *decibel.Tx) error { return nil })
		if errors.Is(err, decibel.ErrDatabaseClosed) {
			break
		}
		if err != nil {
			t.Fatalf("commit during drain: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("drain never refused new sessions")
		}
	}
	select {
	case err := <-closeDone:
		t.Fatalf("CloseContext returned (%v) with a session still active", err)
	default:
	}

	close(release)
	if err := <-commitDone; err != nil {
		t.Fatalf("in-flight commit failed during drain: %v", err)
	}
	if err := <-closeDone; err != nil {
		t.Fatalf("CloseContext = %v", err)
	}
}

// TestServeGracefulShutdown runs the managed lifecycle on a real
// listener: cancel the serve context, Serve drains and closes the
// database, late arrivals are refused instead of hanging.
func TestServeGracefulShutdown(t *testing.T) {
	db := newServeDB(t, "hybrid")
	srv := decibel.NewServer(db)
	srv.SetShutdownTimeout(5 * time.Second)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()

	c := client.New("http://" + ln.Addr().String())
	deadline := time.Now().Add(5 * time.Second)
	for !c.Healthy(context.Background()) {
		if time.Now().After(deadline) {
			t.Fatal("server never became healthy")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := c.Commit(context.Background(), client.CommitRequest{Branch: "master", Ops: []client.Op{insertOp(1, 1, 1, "a")}}); err != nil {
		t.Fatal(err)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve = %v, want clean shutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after cancellation")
	}
	if c.Healthy(context.Background()) {
		t.Fatal("server still serving after shutdown")
	}
	if _, err := db.Commit("master", func(tx *decibel.Tx) error { return nil }); !errors.Is(err, decibel.ErrDatabaseClosed) {
		t.Fatalf("post-shutdown commit err = %v, want ErrDatabaseClosed", err)
	}
}
