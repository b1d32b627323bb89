package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"decibel/client"
	"decibel/internal/core"
	iquery "decibel/internal/query"
	"decibel/internal/record"
	"decibel/internal/vgraph"
)

const maxBody = 16 << 20 // request body cap

// decodeJSON reads one request body: exactly one JSON value, followed
// by nothing but whitespace, in at most maxBody bytes. UseNumber keeps
// int64 column values exact — JSON has one number type, Decibel has
// three, and the schema decides which one each value becomes (see
// coerce).
func decodeJSON(r *http.Request, v any) error {
	body := &io.LimitedReader{R: r.Body, N: maxBody + 1}
	dec := json.NewDecoder(body)
	dec.UseNumber()
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, rest := dec.Token(); rest != io.EOF {
			err = errors.New("data after the request's JSON value")
		}
	}
	switch {
	case body.N <= 0:
		return badRequestf("request body exceeds %d MiB", maxBody>>20)
	case err != nil:
		return badRequestf("decoding body: %v", err)
	}
	return nil
}

// coerce converts a decoded JSON value into the Go type the column's
// accessors expect: int64 for integer columns, float64 for floats,
// []byte for byte strings. The predicate compiler and Record setters
// reject mistyped values, so coerce only bridges JSON's single number
// type — it never changes a value.
func coerce(v any, t record.Type) (any, error) {
	switch t {
	case record.Int32, record.Int64:
		switch n := v.(type) {
		case json.Number:
			i, err := n.Int64()
			if err != nil {
				return nil, badRequestf("integer column value %v: %v", n, err)
			}
			return i, nil
		case float64: // decoded without UseNumber (defensive)
			if n == float64(int64(n)) {
				return int64(n), nil
			}
			return nil, badRequestf("integer column value %v has a fraction", n)
		}
	case record.Float64:
		switch n := v.(type) {
		case json.Number:
			f, err := n.Float64()
			if err != nil {
				return nil, badRequestf("float column value %v: %v", n, err)
			}
			return f, nil
		case float64:
			return n, nil
		}
	case record.Bytes:
		if s, ok := v.(string); ok {
			return []byte(s), nil
		}
	}
	return v, nil // let the typed layer produce its sentinel error
}

// planOf translates a wire query into the logical plan it names, with
// no database at hand: schemaOf returns a table's schema, against
// which predicate values are coerced. Its own errors are bad_request —
// a body that cannot be read as a query — except a negative "at", which
// names no commit (no_such_commit, as the builder's At reports it);
// whether the plan's shape is legal is for Plan.Compile and the
// terminal to decide. Diff's branches
// follow Branches in the plan's scan set, as the builder's Diff(a, b)
// follows On.
func planOf(req *client.QueryRequest, schemaOf func(table string) (*record.Schema, error)) (iquery.Plan, error) {
	where, err := decodeWhere(req.Table, req.Where, schemaOf)
	if err != nil {
		return iquery.Plan{}, err
	}
	plan := iquery.Plan{
		Table:     req.Table,
		Branches:  req.Branches,
		AllHeads:  req.Heads,
		AtSeq:     -1,
		AtCommit:  vgraph.CommitID(req.AtCommit),
		Where:     where,
		Cols:      req.Select,
		OrderCol:  req.OrderBy,
		OrderDesc: req.Desc,
		Limit:     req.Limit,
		GroupCols: req.GroupBy,
	}
	if req.At != nil {
		if *req.At < 0 {
			return iquery.Plan{}, fmt.Errorf("%w: commit number %d", core.ErrNoSuchCommit, *req.At)
		}
		plan.AtSeq = *req.At
	}
	if len(req.Diff) > 0 {
		plan.Branches = append(req.Branches[:len(req.Branches):len(req.Branches)], req.Diff...)
		plan.Diff = true
	}
	for _, jc := range req.Join {
		jw, err := decodeWhere(jc.Table, jc.Where, schemaOf)
		if err != nil {
			return iquery.Plan{}, err
		}
		leg := iquery.Plan{Table: jc.Table, Where: jw, Cols: jc.Select, AtSeq: -1}
		if jc.Branch != "" {
			leg.Branches = []string{jc.Branch}
		}
		plan.Joins = append(plan.Joins, iquery.JoinLeg{Plan: leg, LeftCol: jc.On[0], RightCol: jc.On[1]})
	}
	return plan, nil
}

// decodeWhere decodes a table's wire predicate against its schema.
func decodeWhere(table string, e *client.Expr, schemaOf func(string) (*record.Schema, error)) (iquery.Expr, error) {
	sch, err := schemaOf(table)
	if err != nil {
		return iquery.Expr{}, err
	}
	return decodeExpr(e, sch)
}

// decodeExpr translates a wire predicate into the typed AST, coercing
// leaf values against the schema the query addresses. A nil wire
// expression is the match-all predicate.
func decodeExpr(e *client.Expr, sch *record.Schema) (iquery.Expr, error) {
	if e == nil {
		return iquery.All(), nil
	}
	set := 0
	for _, on := range []bool{e.Col != "", len(e.And) > 0, len(e.Or) > 0, e.Not != nil} {
		if on {
			set++
		}
	}
	if set != 1 {
		return iquery.Expr{}, badRequestf("predicate node must set exactly one of col/and/or/not")
	}
	switch {
	case len(e.And) > 0:
		return decodeKids(e.And, sch, iquery.Expr.And)
	case len(e.Or) > 0:
		return decodeKids(e.Or, sch, iquery.Expr.Or)
	case e.Not != nil:
		k, err := decodeExpr(e.Not, sch)
		if err != nil {
			return iquery.Expr{}, err
		}
		return k.Not(), nil
	}
	val := e.Val
	if i := sch.ColumnIndex(e.Col); i >= 0 {
		var err error
		if val, err = coerce(val, sch.Column(i).Type); err != nil {
			return iquery.Expr{}, err
		}
	} // unknown columns flow through to the planner's ErrNoSuchColumn
	c := iquery.Col(e.Col)
	switch e.Op {
	case "eq":
		return c.Eq(val), nil
	case "ne":
		return c.Ne(val), nil
	case "lt":
		return c.Lt(val), nil
	case "le":
		return c.Le(val), nil
	case "gt":
		return c.Gt(val), nil
	case "ge":
		return c.Ge(val), nil
	case "prefix":
		return c.HasPrefix(val), nil
	default:
		return iquery.Expr{}, badRequestf("unknown predicate op %q", e.Op)
	}
}

func decodeKids(kids []client.Expr, sch *record.Schema, join func(iquery.Expr, iquery.Expr) iquery.Expr) (iquery.Expr, error) {
	acc, err := decodeExpr(&kids[0], sch)
	if err != nil {
		return iquery.Expr{}, err
	}
	for i := 1; i < len(kids); i++ {
		k, err := decodeExpr(&kids[i], sch)
		if err != nil {
			return iquery.Expr{}, err
		}
		acc = join(acc, k)
	}
	return acc, nil
}

// buildRecord encodes a values map against the schema writes to the
// branch head must carry. Omitted columns take the type's zero value;
// unknown names are rejected (a typo would otherwise silently drop a
// field).
func buildRecord(sch *record.Schema, values map[string]any) (*record.Record, error) {
	for name := range values {
		if sch.ColumnIndex(name) < 0 {
			return nil, badRequestf("unknown column %q", name)
		}
	}
	rec := record.New(sch)
	for i := 0; i < sch.NumColumns(); i++ {
		col := sch.Column(i)
		v, ok := values[col.Name]
		if !ok {
			if i == 0 {
				return nil, badRequestf("insert is missing the primary key column %q", col.Name)
			}
			continue
		}
		if v == nil {
			return nil, badRequestf("column %q is null", col.Name) // SetValue would read nil as zero
		}
		cv, err := coerce(v, col.Type)
		if err != nil {
			return nil, err
		}
		if err := rec.SetValue(i, cv); err != nil {
			return nil, badRequestf("%v", err)
		}
	}
	return rec, nil
}

// rowOf materializes one emitted record as a wire row under its
// (possibly projected) schema.
func rowOf(rec *record.Record) client.Row {
	sch := rec.Schema()
	row := make(client.Row, sch.NumColumns())
	for i := 0; i < sch.NumColumns(); i++ {
		col := sch.Column(i)
		switch col.Type {
		case record.Int32, record.Int64:
			row[col.Name] = rec.Get(i)
		case record.Float64:
			row[col.Name] = rec.GetFloat64(i)
		case record.Bytes:
			row[col.Name] = string(rec.GetBytes(i))
		}
	}
	return row
}

// columnDef renders a schema column for listings and parses the wire
// form for alters.
func columnDef(c record.Column) client.ColumnDef {
	d := client.ColumnDef{Name: c.Name}
	switch c.Type {
	case record.Int32:
		d.Type = "int32"
	case record.Int64:
		d.Type = "int64"
	case record.Float64:
		d.Type = "float64"
	case record.Bytes:
		d.Type = "bytes"
		d.Cap = c.Size
	}
	return d
}

func parseColumnDef(d *client.ColumnDef) (record.Column, any, error) {
	var t record.Type
	switch d.Type {
	case "int32":
		t = record.Int32
	case "int64":
		t = record.Int64
	case "float64":
		t = record.Float64
	case "bytes":
		t = record.Bytes
		if d.Cap <= 0 {
			return record.Column{}, nil, badRequestf("bytes column %q needs a positive cap", d.Name)
		}
	default:
		return record.Column{}, nil, badRequestf("unknown column type %q", d.Type)
	}
	col := record.Column{Name: d.Name, Type: t, Size: d.Cap}
	var def any
	if d.Default != nil {
		var err error
		if def, err = coerce(d.Default, t); err != nil {
			return record.Column{}, nil, err
		}
	}
	return col, def, nil
}
