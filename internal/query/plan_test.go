package query

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"
	"unsafe"

	"decibel/internal/core"
	"decibel/internal/record"
)

// planFixture builds the same dataset as fixture (master pks 1..10,
// dev with 3 updated, 10 deleted, 11 added) and returns the database.
func planFixture(t *testing.T, factory core.Factory) *core.Database {
	t.Helper()
	db, _, _, _ := fixture(t, factory)
	return db
}

func TestCompileExprRawBuffer(t *testing.T) {
	s := record.MustSchema(
		record.Column{Name: "id", Type: record.Int64},
		record.Column{Name: "n32", Type: record.Int32},
		record.Column{Name: "f", Type: record.Float64},
		record.Column{Name: "b", Type: record.Bytes, Size: 6},
	)
	r := record.New(s)
	r.SetPK(7)
	r.Set(1, -5) // negative Int32: sign extension must survive raw reads
	r.SetFloat64(2, 2.25)
	if err := r.SetBytes(3, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		e    Expr
		want bool
	}{
		{"int64 eq", Col("id").Eq(7), true},
		{"int32 neg lt", Col("n32").Lt(0), true},
		{"int32 neg ge", Col("n32").Ge(-5), true},
		{"int32 gt", Col("n32").Gt(-5), false},
		{"float le", Col("f").Le(2.25), true},
		{"float int promote", Col("f").Lt(3), true},
		{"bytes eq", Col("b").Eq("abc"), true},
		{"bytes lt", Col("b").Lt("abd"), true},
		{"bytes prefix", Col("b").HasPrefix("ab"), true},
		{"bytes prefix miss", Col("b").HasPrefix("bc"), false},
		{"and", Col("id").Eq(7).And(Col("f").Gt(2.0)), true},
		{"or", Col("id").Eq(8).Or(Col("b").Eq([]byte("abc"))), true},
		{"not", Col("id").Eq(7).Not(), false},
	}
	for _, tc := range cases {
		raw, err := CompileExpr(tc.e, s)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := raw(r.Bytes()); got != tc.want {
			t.Fatalf("%s = %v, want %v", tc.name, got, tc.want)
		}
	}

	// Validation failures carry sentinels.
	if _, err := CompileExpr(Col("ghost").Eq(1), s); !errors.Is(err, core.ErrNoSuchColumn) {
		t.Fatalf("unknown column err = %v", err)
	}
	if _, err := CompileExpr(Col("n32").HasPrefix("x"), s); !errors.Is(err, core.ErrTypeMismatch) {
		t.Fatalf("prefix on int err = %v", err)
	}
	if _, err := CompileExpr(Col("b").Eq(3.5), s); !errors.Is(err, core.ErrTypeMismatch) {
		t.Fatalf("float on bytes err = %v", err)
	}
	// The zero Expr (and All) compile to nil = scan everything.
	if raw, err := CompileExpr(Expr{}, s); err != nil || raw != nil {
		t.Fatalf("zero expr = %v, %v", raw, err)
	}
	if raw, err := CompileExpr(All(), s); err != nil || raw != nil {
		t.Fatalf("All() = %v, %v", raw, err)
	}
	// A zero Expr inside a combinator matches everything too — the
	// build-a-filter-incrementally pattern starting from var e Expr.
	var zero Expr
	raw, err := CompileExpr(zero.And(Col("id").Eq(7)), s)
	if err != nil {
		t.Fatalf("zero-And compile: %v", err)
	}
	if !raw(r.Bytes()) {
		t.Fatal("zero-And should reduce to the leaf")
	}
	raw, err = CompileExpr(All().Not(), s)
	if err != nil {
		t.Fatalf("Not(All) compile: %v", err)
	}
	if raw(r.Bytes()) {
		t.Fatal("Not(All) matched")
	}
}

// annotatedRescan is the reference for Compiled.Annotated: one
// independent scan per branch, merged in memory, instead of the engines'
// single pass under the union of the branches' liveness.
func annotatedRescan(c *Compiled) func(context.Context, func(*record.Record, []string) bool) error {
	return func(ctx context.Context, fn func(*record.Record, []string) bool) error {
		type entry struct {
			rec      *record.Record
			branches []string
		}
		// Merge by record contents, not primary key: an updated key is
		// live as different copies in different branches and each copy
		// keeps its own branches, matching what the single pass emits.
		merged := make(map[string]*entry)
		var order []string
		for _, b := range c.branches {
			req := core.ScanRequest{Kind: core.ScanKindBranch, Branch: b.ID}
			err := c.table.ScanUnitsContext(ctx, req, c.execSpec(), nil, nil, func(rec *record.Record, _ core.UnitAux) bool {
				key := string(rec.Bytes())
				en := merged[key]
				if en == nil {
					en = &entry{rec: rec.Clone()}
					merged[key] = en
					order = append(order, key)
				}
				en.branches = append(en.branches, b.Name)
				return true
			})
			if err != nil {
				return err
			}
		}
		for _, key := range order {
			if en := merged[key]; !fn(en.rec, en.branches) {
				return nil
			}
		}
		return nil
	}
}

// TestScanMultiPushdownMatchesRescan checks the single-pass execution
// of the multi-branch scan (Annotated) and the per-branch rescan
// reference agree record-for-record on every engine, with and without a
// predicate.
func TestScanMultiPushdownMatchesRescan(t *testing.T) {
	for name, f := range factories() {
		t.Run(name, func(t *testing.T) {
			db := planFixture(t, f)
			for _, where := range []Expr{{}, Col("v").Lt(8)} {
				plan := Plan{Table: "r", AllHeads: true, AtSeq: -1, Where: where}
				collect := func(scan func(context.Context, func(*record.Record, []string) bool) error) map[int64]string {
					t.Helper()
					out := map[int64]string{}
					err := scan(context.Background(), func(rec *record.Record, branches []string) bool {
						out[rec.Get(1)*1000+rec.PK()] = fmt.Sprint(branches)
						return true
					})
					if err != nil {
						t.Fatal(err)
					}
					return out
				}
				c1, err := plan.Compile(db)
				if err != nil {
					t.Fatal(err)
				}
				push := collect(c1.Annotated)
				c2, err := plan.Compile(db)
				if err != nil {
					t.Fatal(err)
				}
				rescan := collect(annotatedRescan(c2))
				if len(push) == 0 || len(push) != len(rescan) {
					t.Fatalf("pushdown %d records, rescan %d", len(push), len(rescan))
				}
				for k, m := range push {
					if rescan[k] != m {
						t.Fatalf("membership diverged for %d: pushdown %s, rescan %s", k, m, rescan[k])
					}
				}
			}
		})
	}
}

// TestPlanProjection checks Select narrows the emitted schema on every
// engine through the pushdown path.
func TestPlanProjection(t *testing.T) {
	for name, f := range factories() {
		t.Run(name, func(t *testing.T) {
			db := planFixture(t, f)
			plan := Plan{Table: "r", Branches: []string{"dev"}, AtSeq: -1,
				Where: Col("v").Eq(33), Cols: []string{"v"}}
			c, err := plan.Compile(db)
			if err != nil {
				t.Fatal(err)
			}
			if nc := c.OutSchema().NumColumns(); nc != 2 {
				t.Fatalf("projected schema has %d columns", nc)
			}
			var got []int64
			if err := c.Scan(context.Background(), func(rec *record.Record) bool {
				got = append(got, rec.PK(), rec.Get(1))
				return true
			}); err != nil {
				t.Fatal(err)
			}
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			if len(got) != 2 || got[0] != 3 || got[1] != 33 {
				t.Fatalf("projected scan = %v", got)
			}
		})
	}
}

// TestCompiledReuse guards the planner-reuse contract: one Compiled
// executes repeatedly — including with a projection, whose scratch
// record used to make plans single-use — and later executions see
// writes that happened after compilation (the plan re-reads the
// engine; only names, schema and predicate are bound at compile time).
func TestCompiledReuse(t *testing.T) {
	for name, factory := range factories() {
		t.Run(name, func(t *testing.T) {
			db, tbl, master, _ := fixture(t, factory)
			c, err := Plan{
				Table:    "r",
				Branches: []string{"master"},
				AtSeq:    -1,
				Where:    Col("v").Ge(1),
				Cols:     []string{"v"},
			}.Compile(db)
			if err != nil {
				t.Fatal(err)
			}
			count := func() int {
				n := 0
				if err := c.Scan(context.Background(), func(r *record.Record) bool {
					if r.Schema().NumColumns() != 2 { // pk + projected v
						t.Fatalf("projection lost on reuse: %d columns", r.Schema().NumColumns())
					}
					n++
					return true
				}); err != nil {
					t.Fatal(err)
				}
				return n
			}
			if got := count(); got != 10 {
				t.Fatalf("first execution scanned %d, want 10", got)
			}
			if got := count(); got != 10 {
				t.Fatalf("second execution scanned %d, want 10", got)
			}
			// New data lands in later executions of the same Compiled.
			if err := tbl.Insert(master.ID, rec(tbl.Schema(), 12, 12)); err != nil {
				t.Fatal(err)
			}
			if got := count(); got != 11 {
				t.Fatalf("execution after insert scanned %d, want 11", got)
			}
			// Aggregates reuse the same compiled predicate too.
			for i := 0; i < 2; i++ {
				n, err := c.Aggregate(context.Background(), AggCount, "")
				if err != nil {
					t.Fatal(err)
				}
				if int(n) != 11 {
					t.Fatalf("aggregate run %d = %v, want 11", i, n)
				}
			}
		})
	}
}

// TestDiffPlanShapes: a plan says it is a diff, Compile accepts a Diff
// only over exactly two branch heads, the diff terminals run nothing
// but Diff plans, and every other row or scalar terminal refuses one —
// a Count over the two heads would fold their union, not the diff.
func TestDiffPlanShapes(t *testing.T) {
	db := planFixture(t, factories()["hybrid"])
	ctx := context.Background()
	diff := Plan{Table: "r", Branches: []string{"dev", "master"}, AtSeq: -1, Diff: true}

	for name, mut := range map[string]func(p *Plan){
		"one branch": func(p *Plan) { p.Branches = p.Branches[:1] },
		"three":      func(p *Plan) { p.Branches = append(p.Branches, "dev") },
		"heads":      func(p *Plan) { p.Branches, p.AllHeads = nil, true },
		"at":         func(p *Plan) { p.AtSeq = 0 },
		"group by":   func(p *Plan) { p.GroupCols = []string{"v"} },
		"join":       func(p *Plan) { p.Joins = []JoinLeg{{Plan: Plan{Table: "r", AtSeq: -1}, LeftCol: "id", RightCol: "id"}} },
	} {
		p := diff
		mut(&p)
		if _, err := p.Compile(db); !errors.Is(err, core.ErrBadQuery) {
			t.Fatalf("%s: Compile err = %v, want ErrBadQuery", name, err)
		}
	}

	c, err := diff.Compile(db)
	if err != nil {
		t.Fatal(err)
	}
	none := func(*record.Record) bool { return true }
	for name, run := range map[string]func() error{
		"Scan":      func() error { return c.Scan(ctx, none) },
		"EmitRows":  func() error { return c.EmitRows(ctx, none) },
		"Annotated": func() error { return c.Annotated(ctx, func(*record.Record, []string) bool { return true }) },
		"Count":     func() error { _, err := c.Aggregate(ctx, AggCount, ""); return err },
	} {
		if err := run(); !errors.Is(err, core.ErrBadQuery) {
			t.Fatalf("%s over a diff: err = %v, want ErrBadQuery", name, err)
		}
	}
	n := 0
	if err := c.EmitDiffRows(ctx, func(*record.Record) bool { n++; return true }); err != nil || n != 2 {
		t.Fatalf("EmitDiffRows = %d rows (%v), want 2", n, err)
	}

	multi := diff
	multi.Diff = false
	m, err := multi.Compile(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.EmitDiffRows(ctx, none); !errors.Is(err, core.ErrBadQuery) {
		t.Fatalf("EmitDiffRows over a two-branch multi plan: err = %v, want ErrBadQuery", err)
	}
	names := map[string]string{}
	if err := m.Annotated(ctx, func(r *record.Record, branches []string) bool {
		names[r.String()] = fmt.Sprint(branches)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(names) != 12 || names[rec(m.OutSchema(), 11, 11).String()] != "[dev]" || names[rec(m.OutSchema(), 10, 10).String()] != "[master]" {
		t.Fatalf("Annotated = %v", names)
	}
}

// TestCompiledSizeClass: every compiled query allocates one Compiled,
// so a field that moves it past the 448-byte size class costs each
// query more memory. The plane program's cache (planes, an atomic.Value
// of 16 B) took it from 424 B to 440 B.
func TestCompiledSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Compiled{}); n > 448 {
		t.Fatalf("Compiled is %d B, past the 448-byte size class", n)
	}
}
