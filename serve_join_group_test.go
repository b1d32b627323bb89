package decibel_test

// Wire round-trips for the relational-algebra clauses of /v1/query:
// join compositions and grouped aggregations issued through
// decibel/client must return exactly what the facade computes locally
// on the same database, and each failure class of the new clauses must
// arrive as its documented stable error code.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"testing"

	"decibel"
	"decibel/client"
)

// newJoinServeClient mounts a server over the three-table join dataset.
func newJoinServeClient(t *testing.T, engine string) (*decibel.DB, *client.Client) {
	t.Helper()
	db := buildJoinDB(t, engine)
	ts := httptest.NewServer(decibel.NewServer(db).Handler())
	t.Cleanup(ts.Close)
	return db, client.New(ts.URL)
}

// wireKey renders one group key value off the wire (numbers decode as
// json.Number) the way formatGroup renders the facade's.
func wireKey(v any) string {
	if n, ok := v.(json.Number); ok {
		if i, err := n.Int64(); err == nil {
			return fmt.Sprintf("%v", i)
		}
		f, _ := n.Float64()
		return fmt.Sprintf("%v", f)
	}
	return fmt.Sprintf("%v", v)
}

func TestServeJoinRoundTrip(t *testing.T) {
	for _, engine := range facadeEngines {
		t.Run(engine, func(t *testing.T) {
			db, c := newJoinServeClient(t, engine)
			ctx := context.Background()

			req := client.QueryRequest{
				Table: "orders", Branches: []string{"master"},
				Where: &client.Expr{Col: "qty", Op: "lt", Val: 2},
				Join: []client.JoinClause{
					{Table: "users", On: [2]string{"user_id", "id"}},
					{Table: "items", On: [2]string{"item_id", "id"},
						Where: &client.Expr{Col: "price", Op: "lt", Val: 8.5}},
				},
			}
			resp, err := c.Query(ctx, req)
			if err != nil {
				t.Fatal(err)
			}

			mk := func() *decibel.Query {
				return db.Query("orders").On("master").Where(decibel.Col("qty").Lt(2)).
					JoinOn(db.Query("users"), decibel.On("user_id", "id")).
					JoinOn(db.Query("items").Where(decibel.Col("price").Lt(8.5)), decibel.On("item_id", "id"))
			}
			tuples, errFn := mk().Tuples()
			var local []decibel.JoinTuple
			for tup := range tuples {
				cp := make(decibel.JoinTuple, len(tup))
				for i, rec := range tup {
					cp[i] = rec.Clone()
				}
				local = append(local, cp)
			}
			if err := errFn(); err != nil {
				t.Fatal(err)
			}
			if len(local) == 0 {
				t.Fatal("join fixture selected no tuples; the round-trip checks nothing")
			}
			if resp.Count != len(resp.Tuples) || len(resp.Tuples) != len(local) {
				t.Fatalf("wire count=%d tuples=%d, facade %d", resp.Count, len(resp.Tuples), len(local))
			}
			for i, wt := range resp.Tuples {
				if len(wt) != len(local[i]) {
					t.Fatalf("tuple %d: wire %d relations, facade %d", i, len(wt), len(local[i]))
				}
				for r, row := range wt {
					if got, want := rowInt(t, row, "id"), local[i][r].PK(); got != want {
						t.Fatalf("tuple %d relation %d: wire pk %d, facade pk %d", i, r, got, want)
					}
				}
			}

			// A leg pinned to another branch scans that branch's head: the
			// alt branch deleted orders 0..29, so joining users against alt
			// from a master root still works while rooting on alt shrinks.
			altResp, err := c.Query(ctx, client.QueryRequest{
				Table: "orders", Branches: []string{"alt"},
				Where: &client.Expr{Col: "qty", Op: "lt", Val: 2},
				Join:  []client.JoinClause{{Table: "users", Branch: "master", On: [2]string{"user_id", "id"}}},
			})
			if err != nil {
				t.Fatal(err)
			}
			n, err := db.Query("orders").On("alt").Where(decibel.Col("qty").Lt(2)).
				JoinOn(db.Query("users").On("master"), decibel.On("user_id", "id")).Count()
			if err != nil {
				t.Fatal(err)
			}
			if altResp.Count != n {
				t.Fatalf("alt-rooted join: wire %d tuples, facade %d", altResp.Count, n)
			}
		})
	}
}

func TestServeGroupByRoundTrip(t *testing.T) {
	for _, engine := range facadeEngines {
		t.Run(engine, func(t *testing.T) {
			db, c := newJoinServeClient(t, engine)
			ctx := context.Background()

			// Single-table groupings by integer keys: qty (5 groups),
			// user_id (40, so the group table grows) and the two together,
			// a key of two columns.
			for _, gcols := range [][]string{{"qty"}, {"user_id"}, {"user_id", "qty"}} {
				resp, err := c.Query(ctx, client.QueryRequest{
					Table: "orders", Branches: []string{"master"},
					GroupBy: gcols,
					Aggs: []client.AggClause{{Agg: "count"}, {Agg: "sum", Col: "item_id"}, {Agg: "avg", Col: "user_id"},
						{Agg: "min", Col: "item_id"}, {Agg: "max", Col: "id"}},
				})
				if err != nil {
					t.Fatal(err)
				}
				groups, errFn := db.Query("orders").On("master").GroupBy(gcols...).
					Groups(decibel.Count(), decibel.Sum("item_id"), decibel.Avg("user_id"), decibel.Min("item_id"), decibel.Max("id"))
				var local []string
				for g := range groups {
					local = append(local, formatGroup(g.Key, g.Aggs))
				}
				if err := errFn(); err != nil {
					t.Fatal(err)
				}
				if resp.Count != len(resp.Groups) || len(resp.Groups) != len(local) {
					t.Fatalf("%v: wire count=%d groups=%d, facade %d", gcols, resp.Count, len(resp.Groups), len(local))
				}
				for i, g := range resp.Groups {
					keys := make([]any, len(g.Key))
					for k, v := range g.Key {
						keys[k] = wireKey(v)
					}
					if got := formatGroup(keys, g.Aggs); got != local[i] {
						t.Fatalf("%v: group %d: wire %q, facade %q", gcols, i, got, local[i])
					}
				}
			}

			// Grouping over a join composition, keyed across relations.
			jresp, err := c.Query(ctx, client.QueryRequest{
				Table: "orders", Branches: []string{"master"},
				Join:    []client.JoinClause{{Table: "users", On: [2]string{"user_id", "id"}}},
				GroupBy: []string{"region"},
				Aggs:    []client.AggClause{{Agg: "count"}, {Agg: "sum", Col: "qty"}},
			})
			if err != nil {
				t.Fatal(err)
			}
			jgroups, jerrFn := db.Query("orders").On("master").
				JoinOn(db.Query("users"), decibel.On("user_id", "id")).
				GroupBy("region").Groups(decibel.Count(), decibel.Sum("qty"))
			var jlocal []string
			for g := range jgroups {
				jlocal = append(jlocal, formatGroup(g.Key, g.Aggs))
			}
			if err := jerrFn(); err != nil {
				t.Fatal(err)
			}
			if len(jresp.Groups) != len(jlocal) {
				t.Fatalf("joined grouping: wire %d groups, facade %d", len(jresp.Groups), len(jlocal))
			}
			for i, g := range jresp.Groups {
				keys := make([]any, len(g.Key))
				for k, v := range g.Key {
					keys[k] = wireKey(v)
				}
				if got := formatGroup(keys, g.Aggs); got != jlocal[i] {
					t.Fatalf("joined group %d: wire %q, facade %q", i, got, jlocal[i])
				}
			}
		})
	}
}

// TestServeJoinGroupErrorCodes extends the protocol's stable error
// mapping to the join and groupBy clauses.
func TestServeJoinGroupErrorCodes(t *testing.T) {
	_, c := newJoinServeClient(t, "hybrid")
	ctx := context.Background()
	root := func() client.QueryRequest {
		return client.QueryRequest{Table: "orders", Branches: []string{"master"}}
	}

	cases := []struct {
		name   string
		req    client.QueryRequest
		status int
		code   string
	}{
		{"join_float_key", func() client.QueryRequest {
			r := root()
			r.Join = []client.JoinClause{{Table: "items", On: [2]string{"qty", "price"}}}
			return r
		}(), 400, "bad_query"},
		{"join_key_type_mismatch", func() client.QueryRequest {
			r := root()
			r.Join = []client.JoinClause{{Table: "users", On: [2]string{"user_id", "name"}}}
			return r
		}(), 400, "type_mismatch"},
		{"join_unknown_key", func() client.QueryRequest {
			r := root()
			r.Join = []client.JoinClause{{Table: "users", On: [2]string{"nope", "id"}}}
			return r
		}(), 400, "no_such_column"},
		{"join_unknown_table", func() client.QueryRequest {
			r := root()
			r.Join = []client.JoinClause{{Table: "nope", On: [2]string{"user_id", "id"}}}
			return r
		}(), 404, "no_such_table"},
		{"join_with_heads", func() client.QueryRequest {
			r := client.QueryRequest{Table: "orders", Heads: true}
			r.Join = []client.JoinClause{{Table: "users", On: [2]string{"user_id", "id"}}}
			return r
		}(), 400, "bad_query"},
		{"groupby_unknown_column", func() client.QueryRequest {
			r := root()
			r.GroupBy = []string{"nope"}
			return r
		}(), 400, "no_such_column"},
		{"groupby_with_orderby", func() client.QueryRequest {
			r := root()
			r.GroupBy = []string{"qty"}
			r.OrderBy = "qty"
			return r
		}(), 400, "bad_query"},
		{"groupby_agg_over_bytes", func() client.QueryRequest {
			r := client.QueryRequest{Table: "users", Branches: []string{"master"}}
			r.GroupBy = []string{"region"}
			r.Aggs = []client.AggClause{{Agg: "sum", Col: "name"}}
			return r
		}(), 400, "type_mismatch"},
		{"aggs_without_groupby", func() client.QueryRequest {
			r := root()
			r.Aggs = []client.AggClause{{Agg: "count"}}
			return r
		}(), 400, "bad_query"},
		{"scalar_agg_with_groupby", func() client.QueryRequest {
			r := root()
			r.GroupBy = []string{"qty"}
			r.Agg = "count"
			return r
		}(), 400, "bad_query"},
		{"unknown_group_agg", func() client.QueryRequest {
			r := root()
			r.GroupBy = []string{"qty"}
			r.Aggs = []client.AggClause{{Agg: "median", Col: "qty"}}
			return r
		}(), 400, "bad_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := c.Query(ctx, tc.req)
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

// TestServeVersionJoin: a served Q3 — one table's branch joined to
// another branch on the key — runs as a version join although the
// server pins its root leg to the head commit it resolved (the join leg
// reads the live head), and returns the facade's tuples.
func TestServeVersionJoin(t *testing.T) {
	for _, engine := range facadeEngines {
		t.Run(engine, func(t *testing.T) {
			db := buildVersionJoinDB(t, engine, false)
			ts := httptest.NewServer(decibel.NewServer(db).Handler())
			t.Cleanup(ts.Close)
			c := client.New(ts.URL)

			before := expvarInt(t, "decibel.version_joins")
			resp, err := c.Query(context.Background(), client.QueryRequest{
				Table: "r", Branches: []string{"master"}, Select: []string{"v", "sku"},
				Where: &client.Expr{Col: "v", Op: "lt", Val: 350},
				Join: []client.JoinClause{{Table: "r", Branch: "dev", On: [2]string{"id", "id"},
					Where: &client.Expr{Col: "sku", Op: "prefix", Val: "a"}}},
			})
			if err != nil {
				t.Fatal(err)
			}
			if ran := expvarInt(t, "decibel.version_joins") - before; ran != 1 {
				t.Fatalf("served Q3 ran %d version joins, want 1", ran)
			}
			tuples, errFn := db.Query("r").On("master").Select("v", "sku").Where(decibel.Col("v").Lt(int64(350))).
				JoinOn(db.Query("r").On("dev").Where(decibel.Col("sku").HasPrefix("a")), decibel.On("id", "id")).Tuples()
			var local []decibel.JoinTuple
			for tup := range tuples {
				local = append(local, tup)
			}
			if err := errFn(); err != nil {
				t.Fatal(err)
			}
			if len(local) == 0 || len(resp.Tuples) != len(local) {
				t.Fatalf("wire %d tuples, facade %d", len(resp.Tuples), len(local))
			}
			for i, wt := range resp.Tuples {
				for r, row := range wt {
					rec := local[i][r]
					if rowInt(t, row, "id") != rec.PK() || rowInt(t, row, "v") != rec.Get(1) ||
						row["sku"] != string(rec.GetBytes(rec.Schema().ColumnIndex("sku"))) {
						t.Fatalf("tuple %d relation %d: wire %v, facade %v", i, r, row, rec)
					}
				}
			}
		})
	}
}
