package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"decibel/client"
	"decibel/internal/core"
	"decibel/internal/record"
)

// fuzzSchema has one column of each type a request value can land in.
var fuzzSchema = record.MustSchema(
	record.Column{Name: "id", Type: record.Int64},
	record.Column{Name: "qty", Type: record.Int32},
	record.Column{Name: "price", Type: record.Float64},
	record.Column{Name: "sku", Type: record.Bytes, Size: 8},
)

// FuzzDecodeRequest throws arbitrary bytes at the request decoders: the
// body decode of a query and a commit, the query-to-plan translation
// and the insert-record encoder. None may panic; every error the
// translation returns must be bad_request (a shape error there would
// mean a rule leaked out of the planner) or, for a negative "at",
// no_such_commit; and every record buildRecord
// accepts must read back exactly the values it was given — an integer
// wrapped to fit its column is a failure, not an encoding.
func FuzzDecodeRequest(f *testing.F) {
	at, neg := 2, -2
	insert := func(values map[string]any) client.Op {
		return client.Op{Op: "insert", Table: "r", Values: values}
	}
	// The bodies serve_test.go sends.
	for _, req := range []any{
		client.QueryRequest{Table: "products", Branches: []string{"master"}},
		client.QueryRequest{Table: "products", Branches: []string{"master"},
			Where:  &client.Expr{Col: "price", Op: "le", Val: 9.0},
			Select: []string{"sku", "price"}, OrderBy: "price", Desc: true, Limit: 3},
		client.QueryRequest{Table: "products", Branches: []string{"master"}, Agg: "sum", AggCol: "qty"},
		client.QueryRequest{Table: "products", Diff: []string{"dev", "master"}},
		client.QueryRequest{Table: "products", Heads: true, Agg: "count"},
		client.QueryRequest{Table: "products", Branches: []string{"master"}, At: &at},
		client.QueryRequest{Table: "products", Branches: []string{"master"}, At: &neg},
		client.QueryRequest{Table: "products", Branches: []string{"master"},
			Where: &client.Expr{Col: "qty", Op: "eq", Val: 1, And: []client.Expr{{Col: "qty", Op: "eq", Val: 1}}}},
		client.QueryRequest{Table: "products", Branches: []string{"master"},
			Where: &client.Expr{Not: &client.Expr{Or: []client.Expr{
				{Col: "sku", Op: "prefix", Val: "sku-"}, {Col: "qty", Op: "lt", Val: 0}}}}},
		client.QueryRequest{Table: "products", Diff: []string{"master"}},
		client.QueryRequest{Table: "products", Diff: []string{"dev", "master"}, Agg: "count"},
		client.QueryRequest{Table: "orders", Heads: true, Join: []client.JoinClause{
			{Table: "users", On: [2]string{"user_id", "id"}, Where: &client.Expr{Col: "id", Op: "gt", Val: 2}}}},
		client.QueryRequest{Table: "orders", Branches: []string{"master"}, GroupBy: []string{"qty"}, Agg: "count"},
		client.QueryRequest{Table: "orders", Branches: []string{"master"}, Aggs: []client.AggClause{{Agg: "count"}}},
		client.CommitRequest{Branch: "master", Message: "ten products", Ops: []client.Op{
			insert(map[string]any{"id": 1, "qty": 1, "price": 1.5, "sku": "sku-001"}),
			insert(map[string]any{"id": 2, "qty": 2, "price": 3.0, "sku": "sku-002"}),
		}},
		client.CommitRequest{Branch: "master", Ops: []client.Op{{Op: "delete", Table: "products", PK: 3}}},
		client.CommitRequest{Branch: "master", Ops: []client.Op{insert(map[string]any{"id": 1, "nope": 2})}},
		client.CommitRequest{Branch: "master", Ops: []client.Op{insert(map[string]any{"qty": 2})}},
		client.CommitRequest{Branch: "master", Ops: []client.Op{insert(map[string]any{"id": 1, "qty": int64(1)<<32 + 1})}},
		client.CommitRequest{Branch: "master", Ops: []client.Op{insert(map[string]any{"id": 2, "qty": math.MaxInt32})}},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		post := func(v any) error {
			return decodeJSON(httptest.NewRequest("POST", "/", bytes.NewReader(body)), v)
		}
		var q client.QueryRequest
		if post(&q) == nil {
			schemaOf := func(string) (*record.Schema, error) { return fuzzSchema, nil }
			if _, err := planOf(&q, schemaOf); err != nil && !errors.Is(err, errBadRequest) && !errors.Is(err, core.ErrNoSuchCommit) {
				t.Fatalf("planOf: %v is neither bad_request nor no_such_commit", err)
			}
		}
		var c client.CommitRequest
		if post(&c) != nil {
			return
		}
		for _, op := range c.Ops {
			if op.Op != "insert" {
				continue
			}
			rec, err := buildRecord(fuzzSchema, op.Values)
			if err != nil {
				continue
			}
			for i := 0; i < fuzzSchema.NumColumns(); i++ {
				col := fuzzSchema.Column(i)
				if got, want := readBack(rec, i), given(t, col, op.Values[col.Name]); got != want {
					t.Fatalf("column %q given %v reads back %v", col.Name, want, got)
				}
			}
		}
	})
}

// TestDecodeJSONTrailingData: a body is one JSON value and nothing after it
// but whitespace; anything else is bad_request.
func TestDecodeJSONTrailingData(t *testing.T) {
	for _, tc := range []struct {
		body string
		ok   bool
	}{
		{`{"table":"r"}`, true},
		{"{\"table\":\"r\"}\n\t ", true},
		{`{"table":"r"} {"table":"x","bogus":1} garbage`, false},
		{`{"table":"r"}{"table":"x"}`, false},
		{`{"table":"r"} garbage`, false},
		{`{"table":"r"}}`, false},
	} {
		var q client.QueryRequest
		err := decodeJSON(httptest.NewRequest("POST", "/", strings.NewReader(tc.body)), &q)
		if tc.ok && (err != nil || q.Table != "r") {
			t.Errorf("%q: table %q, err %v; want table r", tc.body, q.Table, err)
		}
		if !tc.ok && !errors.Is(err, errBadRequest) {
			t.Errorf("%q: err %v, want bad_request", tc.body, err)
		}
	}
}

// TestDecodeJSONOversizeBody: a body over the cap is reported as too
// large, not as the truncated JSON the cap would leave.
func TestDecodeJSONOversizeBody(t *testing.T) {
	body := `{"table":"` + strings.Repeat("r", maxBody) + `"}`
	var q client.QueryRequest
	err := decodeJSON(httptest.NewRequest("POST", "/", strings.NewReader(body)), &q)
	if !errors.Is(err, errBadRequest) || !strings.Contains(err.Error(), "exceeds 16 MiB") {
		t.Fatalf("oversize body: err %v, want bad_request exceeding 16 MiB", err)
	}
}

// readBack returns column i of rec in the comparable form given uses.
func readBack(rec *record.Record, i int) any {
	switch rec.Schema().Column(i).Type {
	case record.Float64:
		return math.Float64bits(rec.GetFloat64(i))
	case record.Bytes:
		return string(rec.GetBytes(i))
	}
	return rec.Get(i)
}

// given returns the value an accepted request gave the column — its
// type's zero when omitted — in the form readBack returns.
func given(t *testing.T, col record.Column, v any) any {
	t.Helper()
	switch col.Type {
	case record.Float64:
		var f float64
		if v != nil {
			n, ok := v.(json.Number)
			if !ok {
				t.Fatalf("column %q accepted %T", col.Name, v)
			}
			var err error
			if f, err = n.Float64(); err != nil {
				t.Fatalf("column %q accepted %v: %v", col.Name, n, err)
			}
		}
		return math.Float64bits(f)
	case record.Bytes:
		if v == nil {
			return ""
		}
		s, ok := v.(string)
		if !ok {
			t.Fatalf("column %q accepted %T", col.Name, v)
		}
		return s
	}
	if v == nil {
		return int64(0)
	}
	n, ok := v.(json.Number)
	if !ok {
		t.Fatalf("column %q accepted %T", col.Name, v)
	}
	i, err := n.Int64()
	if err != nil {
		t.Fatalf("column %q accepted %v: %v", col.Name, n, err)
	}
	return i
}
