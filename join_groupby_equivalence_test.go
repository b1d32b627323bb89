package decibel_test

// Equivalence harness for the relational-algebra generalization: the
// greedy-ordered N-way join must emit exactly what a naive nested-loop
// reference computes (and exactly what the declared-order run emits —
// byte-identical streams), and grouped streaming aggregates must equal
// a post-hoc fold over the plain row scan — across the pruning
// predicate corpus, the three engines, and worker counts {1,2,8}. The
// scalar aggregates are the grouped fold with no group columns, so they
// are held to the same post-hoc fold (and the join Count to the
// nested-loop reference).

import (
	"errors"
	"fmt"
	"iter"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"decibel"
	iquery "decibel/internal/query"
)

// buildJoinDB loads three joinable tables — orders (400 rows),
// users (40), items (15) — in two waves with a head-freezing branch
// between them, so every engine has multiple frozen, zone-mapped
// segments per table: what the greedy orderer estimates from. An "alt"
// branch diverges from master by deleting some orders, for
// branch-targeted join legs.
func buildJoinDB(t *testing.T, engine string, opts ...decibel.Option) *decibel.DB {
	t.Helper()
	db, err := decibel.Open(t.TempDir(), append([]decibel.Option{decibel.WithEngine(engine)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })

	users := decibel.NewSchema().Int64("id").Int64("region").Bytes("name", 12).MustBuild()
	items := decibel.NewSchema().Int64("id").Float64("price").Bytes("tag", 8).MustBuild()
	orders := decibel.NewSchema().Int64("id").Int64("user_id").Int64("item_id").Int64("qty").MustBuild()
	for _, tb := range []struct {
		name string
		s    *decibel.Schema
	}{{"users", users}, {"items", items}, {"orders", orders}} {
		if _, err := db.CreateTable(tb.name, tb.s); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := db.Init("init"); err != nil {
		t.Fatal(err)
	}

	loadUsers := func(lo, hi int64) {
		t.Helper()
		if _, err := db.Commit("master", func(tx *decibel.Tx) error {
			recs := make([]*decibel.Record, 0, hi-lo)
			for pk := lo; pk < hi; pk++ {
				rec := decibel.NewRecord(users)
				rec.SetPK(pk)
				rec.Set(1, pk%4)
				if err := rec.SetBytes(2, []byte(fmt.Sprintf("user-%04d", pk))); err != nil {
					return err
				}
				recs = append(recs, rec)
			}
			return tx.InsertBatch("users", recs)
		}); err != nil {
			t.Fatal(err)
		}
	}
	loadItems := func(lo, hi int64) {
		t.Helper()
		if _, err := db.Commit("master", func(tx *decibel.Tx) error {
			recs := make([]*decibel.Record, 0, hi-lo)
			for pk := lo; pk < hi; pk++ {
				rec := decibel.NewRecord(items)
				rec.SetPK(pk)
				rec.SetFloat64(1, float64(pk)+0.5)
				if err := rec.SetBytes(2, []byte(fmt.Sprintf("it-%03d", pk))); err != nil {
					return err
				}
				recs = append(recs, rec)
			}
			return tx.InsertBatch("items", recs)
		}); err != nil {
			t.Fatal(err)
		}
	}
	loadOrders := func(lo, hi int64) {
		t.Helper()
		if _, err := db.Commit("master", func(tx *decibel.Tx) error {
			recs := make([]*decibel.Record, 0, hi-lo)
			for pk := lo; pk < hi; pk++ {
				rec := decibel.NewRecord(orders)
				rec.SetPK(pk)
				rec.Set(1, pk%40) // user_id
				rec.Set(2, pk%15) // item_id
				rec.Set(3, pk%5)  // qty
				recs = append(recs, rec)
			}
			return tx.InsertBatch("orders", recs)
		}); err != nil {
			t.Fatal(err)
		}
	}

	loadUsers(0, 20)
	loadItems(0, 8)
	loadOrders(0, 200)
	if _, err := db.Branch("master", "freeze1"); err != nil {
		t.Fatal(err)
	}
	loadUsers(20, 40)
	loadItems(8, 15)
	loadOrders(200, 400)
	if _, err := db.Branch("master", "freeze2"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Branch("master", "alt"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Commit("alt", func(tx *decibel.Tx) error {
		for pk := int64(0); pk < 30; pk++ {
			if err := tx.Delete("orders", pk); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return db
}

// collectTuples drains a Tuples iterator into one line per tuple.
func collectTuples(seq iter.Seq[decibel.JoinTuple], errFn func() error) ([]string, error) {
	var out []string
	for tup := range seq {
		parts := make([]string, len(tup))
		for i, rec := range tup {
			parts[i] = rec.String()
		}
		out = append(out, strings.Join(parts, " | "))
	}
	return out, errFn()
}

// collectGroups drains a Groups iterator into one line per group.
func collectGroups(seq iter.Seq[*decibel.GroupRow], errFn func() error) ([]string, error) {
	var out []string
	for g := range seq {
		out = append(out, formatGroup(g.Key, g.Aggs))
	}
	return out, errFn()
}

func formatGroup(key []any, aggs []float64) string {
	parts := make([]string, len(key))
	for i, v := range key {
		if b, ok := v.([]byte); ok {
			v = string(b)
		}
		parts[i] = fmt.Sprintf("%v", v)
	}
	return strings.Join(parts, "|") + " => " + fmt.Sprint(aggs)
}

// legRows materializes one relation the naive reference joins over.
func legRows(t *testing.T, q *decibel.Query) []*decibel.Record {
	t.Helper()
	rows, errFn := q.Rows()
	var out []*decibel.Record
	for rec := range rows {
		out = append(out, rec.Clone())
	}
	if err := errFn(); err != nil {
		t.Fatal(err)
	}
	return out
}

// refTuple3 is one nested-loop 3-way tuple (orders ⋈ users ⋈ items).
type refTuple3 struct{ o, u, i *decibel.Record }

// nestedLoop3 is the naive reference join: triple loop over the
// materialized relations, sorted into the canonical composite-pk
// order the executor emits in.
func nestedLoop3(orows, urows, irows []*decibel.Record) []refTuple3 {
	var ref []refTuple3
	for _, o := range orows {
		for _, u := range urows {
			if o.Get(1) != u.PK() {
				continue
			}
			for _, it := range irows {
				if o.Get(2) != it.PK() {
					continue
				}
				ref = append(ref, refTuple3{o: o, u: u, i: it})
			}
		}
	}
	sort.Slice(ref, func(a, b int) bool {
		x, y := ref[a], ref[b]
		if x.o.PK() != y.o.PK() {
			return x.o.PK() < y.o.PK()
		}
		if x.u.PK() != y.u.PK() {
			return x.u.PK() < y.u.PK()
		}
		return x.i.PK() < y.i.PK()
	})
	return ref
}

func fmtRef3(ref []refTuple3) []string {
	out := make([]string, len(ref))
	for i, r := range ref {
		out[i] = r.o.String() + " | " + r.u.String() + " | " + r.i.String()
	}
	return out
}

// equivalenceWorkers are the WithScanWorkers values each equivalence
// test opens its database with. Every scan runs on the calling
// goroutine, so the option is a no-op: each arm must give the same
// answer as the others and as the reference.
var equivalenceWorkers = []int{1, 2, 8}

func TestJoinEquivalence3Way(t *testing.T) {
	type preds struct {
		label                  string
		oWhere, uWhere, iWhere decibel.Expr
		oHas, uHas, iHas       bool
	}
	cases := []preds{
		{label: "all"},
		{label: "orders-qty", oWhere: decibel.Col("qty").Lt(2), oHas: true},
		{label: "users-region", uWhere: decibel.Col("region").Eq(int64(1)), uHas: true},
		{label: "items-price", iWhere: decibel.Col("price").Lt(8.5), iHas: true},
		{label: "all-three",
			oWhere: decibel.Col("qty").Ge(1), oHas: true,
			uWhere: decibel.Col("region").Ne(int64(3)), uHas: true,
			iWhere: decibel.Col("price").Gt(3), iHas: true},
	}
	for _, engine := range facadeEngines {
		for _, workers := range equivalenceWorkers {
			t.Run(fmt.Sprintf("%s/workers=%d", engine, workers), func(t *testing.T) {
				db := buildJoinDB(t, engine, decibel.WithScanWorkers(workers))
				for _, pc := range cases {
					mk := func() *decibel.Query {
						q := db.Query("orders").On("master")
						if pc.oHas {
							q = q.Where(pc.oWhere)
						}
						uq := db.Query("users")
						if pc.uHas {
							uq = uq.Where(pc.uWhere)
						}
						iq := db.Query("items")
						if pc.iHas {
							iq = iq.Where(pc.iWhere)
						}
						return q.JoinOn(uq, decibel.On("user_id", "id")).JoinOn(iq, decibel.On("item_id", "id"))
					}

					greedy, gErr := collectTuples(mk().Tuples())
					declared, dErr := collectTuples(mk().DeclaredJoinOrder().Tuples())
					compareStreams(t, pc.label+" greedy-vs-declared", greedy, declared, gErr, dErr)

					mkLeg := func(table string, has bool, w decibel.Expr) *decibel.Query {
						q := db.Query(table).On("master")
						if has {
							q = q.Where(w)
						}
						return q
					}
					ref := nestedLoop3(
						legRows(t, mkLeg("orders", pc.oHas, pc.oWhere)),
						legRows(t, mkLeg("users", pc.uHas, pc.uWhere)),
						legRows(t, mkLeg("items", pc.iHas, pc.iWhere)))
					compareStreams(t, pc.label+" greedy-vs-nested-loop", greedy, fmtRef3(ref), gErr, nil)
					if n, err := mk().Count(); err != nil || n != len(ref) {
						t.Fatalf("%s: join Count = %d (%v), nested loop %d", pc.label, n, err, len(ref))
					}

					// Grouped join: group the 3-way tuples by the user's
					// region, folding across relations (qty from orders,
					// price from items), against a fold over the reference
					// tuples in the same canonical order.
					aggs := []decibel.Agg{decibel.Count(), decibel.Sum("qty"), decibel.Avg("price")}
					got, gotErr := collectGroups(mk().GroupBy("region").Groups(aggs...))
					type acc struct {
						n    int
						qsum int64
						psum float64
					}
					m := map[int64]*acc{}
					var order []int64
					for _, r := range ref {
						region := r.u.Get(1)
						a := m[region]
						if a == nil {
							a = &acc{}
							m[region] = a
							order = append(order, region)
						}
						a.n++
						a.qsum += r.o.Get(3)
						a.psum += r.i.GetFloat64(1)
					}
					want := make([]string, len(order))
					for i, region := range order {
						a := m[region]
						want[i] = formatGroup([]any{region},
							[]float64{float64(a.n), float64(a.qsum), a.psum / float64(a.n)})
					}
					compareStreams(t, pc.label+" grouped-join-vs-ref", got, want, gotErr, nil)
				}

				// The greedy order must lead with the smallest-estimate
				// relation — items (15 rows), not the declared root
				// orders (400 rows).
				c, err := iquery.Plan{Table: "orders", Branches: []string{"master"}, AtSeq: -1, Joins: []iquery.JoinLeg{
					{Plan: iquery.Plan{Table: "users", AtSeq: -1}, LeftCol: "user_id", RightCol: "id"},
					{Plan: iquery.Plan{Table: "items", AtSeq: -1}, LeftCol: "item_id", RightCol: "id"},
				}}.Compile(db.Database)
				if err != nil {
					t.Fatal(err)
				}
				ord, ests := c.JoinOrder(), c.JoinEstimates()
				for i := range ests {
					if ests[ord[0]] > ests[i] {
						t.Fatalf("greedy order %v does not lead with the smallest estimate %v", ord, ests)
					}
				}
				if ord[0] == 0 {
					t.Fatalf("greedy order %v starts at the declared root despite estimates %v", ord, ests)
				}
			})
		}
	}
}

// join3AllocCeilings is the allocations of the unfiltered 3-way join
// of buildJoinDB (400 tuples), by engine: measured + 1. The hash join
// keys integers as themselves and chains a key's tuples in one array;
// a string per build row or a list per key made 2,951–2,969.
var join3AllocCeilings = map[string]float64{"hybrid": 1902, "tuple-first": 1890, "version-first": 1884}

func TestJoin3WayAllocCeiling(t *testing.T) {
	for engine, ceiling := range join3AllocCeilings {
		t.Run(engine, func(t *testing.T) {
			db := buildJoinDB(t, engine)
			join := func() {
				tuples, errf := db.Query("orders").On("master").
					JoinOn(db.Query("users"), decibel.On("user_id", "id")).
					JoinOn(db.Query("items"), decibel.On("item_id", "id")).Tuples()
				n := 0
				for range tuples {
					n++
				}
				if err := errf(); err != nil || n != 400 {
					t.Fatalf("%d tuples (%v), want 400", n, err)
				}
			}
			if got := testing.AllocsPerRun(20, join); got > ceiling {
				t.Errorf("3-way join: %.0f allocs/op, ceiling %.0f", got, ceiling)
			}
		})
	}
}

// TestJoinCorpusEquivalence joins the same table's branch heads on the
// primary key under the pruning predicate corpus, against a nested-loop
// reference. master and b1 sit at different schema epochs, so that join
// runs as a hash join; master and b2 share one, so theirs runs as a
// version join (TestVersionJoinEquivalence), once with the predicate on
// the left leg only and once with another corpus predicate on the right.
func TestJoinCorpusEquivalence(t *testing.T) {
	rights := []struct {
		branch  string
		where   bool // the right leg takes a predicate of its own
		version bool // runs as a version join
	}{
		{"b1", false, false},
		{"b2", false, true},
		{"b2", true, true},
	}
	for _, engine := range facadeEngines {
		for _, workers := range equivalenceWorkers {
			t.Run(fmt.Sprintf("%s/workers=%d", engine, workers), func(t *testing.T) {
				db := buildPruningDB(t, engine, decibel.WithScanWorkers(workers))
				rng := rand.New(rand.NewSource(0x10b5))
				preds := []iquery.Expr{
					decibel.Col("price").Lt(7.5),
					decibel.Col("sku").HasPrefix("b"),
					decibel.Col("v").Ge(120),
				}
				for i := 0; i < 15; i++ {
					preds = append(preds, randExpr(rng, 2))
				}
				for i, where := range preds {
					// A row both versions hold is one buffer: the right
					// predicate must differ from the left's to judge it.
					rwhere := preds[len(preds)-1-i]
					for _, rt := range rights {
						label := fmt.Sprintf("pred[%d] master-%s where-right=%v", i, rt.branch, rt.where)
						rightQ := func() *decibel.Query {
							q := db.Query("r").On(rt.branch)
							if rt.where {
								q = q.Where(rwhere)
							}
							return q
						}
						mk := func() *decibel.Query {
							return db.Query("r").On("master").Where(where).
								JoinOn(rightQ(), decibel.On("id", "id"))
						}
						before := expvarInt(t, "decibel.version_joins")
						greedy, gErr := collectTuples(mk().Tuples())
						declared, dErr := collectTuples(mk().DeclaredJoinOrder().Tuples())
						ran := expvarInt(t, "decibel.version_joins") - before
						if want := map[bool]int64{true: 2, false: 0}[rt.version]; ran != want {
							t.Fatalf("%s: %d version joins ran, want %d", label, ran, want)
						}
						compareStreams(t, label+" greedy-vs-declared", greedy, declared, gErr, dErr)

						// Nested loop over the two materialized sides.
						left := legRows(t, db.Query("r").On("master").Where(where))
						right := legRows(t, rightQ())
						byPK := map[int64]*decibel.Record{}
						for _, r := range right {
							byPK[r.PK()] = r
						}
						type pair struct{ l, r *decibel.Record }
						var ref []pair
						for _, l := range left {
							if r, ok := byPK[l.PK()]; ok {
								ref = append(ref, pair{l, r})
							}
						}
						sort.Slice(ref, func(a, b int) bool { return ref[a].l.PK() < ref[b].l.PK() })
						want := make([]string, len(ref))
						for j, p := range ref {
							want[j] = p.l.String() + " | " + p.r.String()
						}
						compareStreams(t, label+" greedy-vs-nested-loop", greedy, want, gErr, nil)
					}
				}
			})
		}
	}
}

// buildVersionJoinDB loads one table r (id, v, sku) whose branches
// share most record copies and differ where a version join must match
// copies by key. master loads keys 0..299 (master@1), adds a column w
// (master@2) and loads 300..399 (master@3), so its rows sit in two
// layouts. dev, branched from it, rewrites keys 10..39, deletes 50..69,
// re-inserts 55..59 and adds 400..419; master then rewrites 100..129
// and deletes 200..204. So each head holds copies of shared keys the
// other does not, on both sides of a deleted and re-inserted key too.
// wide, branched from master, adds another column and rewrites key 7:
// it sits at a later schema epoch. compact re-encodes the frozen
// segments into dcz pages.
func buildVersionJoinDB(t *testing.T, engine string, compact bool, opts ...decibel.Option) *decibel.DB {
	t.Helper()
	db, err := decibel.Open(t.TempDir(), append([]decibel.Option{decibel.WithEngine(engine),
		decibel.WithPageSize(4096), decibel.WithCompaction("manual")}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	schema := decibel.NewSchema().Int64("id").Int64("v").Bytes("sku", 8).MustBuild()
	if _, err := db.CreateTable("r", schema); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Init("init"); err != nil {
		t.Fatal(err)
	}
	commit := func(branch string, fn func(tx *decibel.Tx) error) {
		t.Helper()
		if _, err := db.Commit(branch, fn); err != nil {
			t.Fatal(err)
		}
	}
	put := func(lo, hi, dv int64) func(tx *decibel.Tx) error {
		return func(tx *decibel.Tx) error {
			tbl, err := db.TableByName("r")
			if err != nil {
				return err
			}
			for pk := lo; pk < hi; pk++ {
				rec := decibel.NewRecord(tbl.Schema())
				rec.SetPK(pk)
				rec.Set(1, pk+dv)
				if err := rec.SetBytes(2, []byte(fmt.Sprintf("%c%03d", 'a'+pk%3, pk))); err != nil {
					return err
				}
				if err := tx.Insert("r", rec); err != nil {
					return err
				}
			}
			return nil
		}
	}
	del := func(lo, hi int64) func(tx *decibel.Tx) error {
		return func(tx *decibel.Tx) error {
			for pk := lo; pk < hi; pk++ {
				if err := tx.Delete("r", pk); err != nil {
					return err
				}
			}
			return nil
		}
	}
	commit("master", put(0, 300, 0))
	commit("master", func(tx *decibel.Tx) error {
		return tx.AddColumn("r", decibel.Column{Name: "w", Type: decibel.Int64}, decibel.Default(int64(9)))
	})
	commit("master", put(300, 400, 0))
	if _, err := db.Branch("master", "dev"); err != nil {
		t.Fatal(err)
	}
	commit("dev", put(10, 40, 1000))
	commit("dev", del(50, 70))
	commit("dev", put(55, 60, 2000))
	commit("dev", put(400, 420, 0))
	commit("master", put(100, 130, 500))
	commit("master", del(200, 205))
	if _, err := db.Branch("master", "wide"); err != nil {
		t.Fatal(err)
	}
	commit("wide", func(tx *decibel.Tx) error {
		return tx.AddColumn("r", decibel.Column{Name: "price", Type: decibel.Float64}, decibel.Default(1.5))
	})
	commit("wide", put(7, 8, 3000))
	if compact {
		st, err := db.Compact()
		if err != nil {
			t.Fatal(err)
		}
		if st.PagesCompressed == 0 {
			t.Fatalf("compaction wrote no dcz page: %+v", st)
		}
	}
	return db
}

// recLine renders every column of a record by name, whatever the
// projection put first (Record.String reads column 0 as the key).
func recLine(rec *decibel.Record) string {
	sch := rec.Schema()
	parts := make([]string, sch.NumColumns())
	for i := range parts {
		c := sch.Column(i)
		switch c.Type {
		case decibel.Float64:
			parts[i] = fmt.Sprintf("%s=%g", c.Name, rec.GetFloat64(i))
		case decibel.Bytes:
			parts[i] = fmt.Sprintf("%s=%q", c.Name, rec.GetBytes(i))
		default:
			parts[i] = fmt.Sprintf("%s=%d", c.Name, rec.Get(i))
		}
	}
	return "(" + strings.Join(parts, " ") + ")"
}

// recID reads a record's id column wherever its projection put it.
func recID(rec *decibel.Record) int64 { return rec.Get(rec.Schema().ColumnIndex("id")) }

// pkJoinLines is the nested-loop reference of a primary-key join of
// two materialized legs, sorted by key, one line per pair.
func pkJoinLines(left, right []*decibel.Record) []string {
	type pair struct{ l, r *decibel.Record }
	var ref []pair
	for _, l := range left {
		for _, r := range right {
			if recID(l) == recID(r) {
				ref = append(ref, pair{l, r})
			}
		}
	}
	sort.Slice(ref, func(a, b int) bool { return recID(ref[a].l) < recID(ref[b].l) })
	out := make([]string, len(ref))
	for i, p := range ref {
		out[i] = recLine(p.l) + " | " + recLine(p.r)
	}
	return out
}

// tupleLines drains a Tuples iterator through recLine.
func tupleLines(seq iter.Seq[decibel.JoinTuple], errFn func() error) ([]string, error) {
	var out []string
	for tup := range seq {
		parts := make([]string, len(tup))
		for i, rec := range tup {
			parts[i] = recLine(rec)
		}
		out = append(out, strings.Join(parts, " | "))
	}
	return out, errFn()
}

// TestVersionJoinEquivalence holds the version join — a primary-key
// join of two versions of one table at one schema epoch, read from one
// snapshot of both — to the nested-loop reference over the two legs'
// own rows: predicates on either leg, keys pinned to one value on
// either leg or both, projections that move or omit the key, commits
// on either leg, one branch on both sides, keys whose
// copies differ (rewritten, deleted and re-inserted), dcz pages, and a
// two-frame pool under version-first. Legs at different schema epochs
// run the hash join, which must give the same answer;
// decibel.version_joins says which path ran.
func TestVersionJoinEquivalence(t *testing.T) {
	type leg struct {
		branch string
		at     int          // -1: the head
		where  decibel.Expr // the zero Expr matches every row
		cols   []string
	}
	all := decibel.Expr{}
	head := func(b string) leg { return leg{branch: b, at: -1} }
	cases := []struct {
		label       string
		left, right leg
		version     bool // runs as a version join
	}{
		{"heads", head("master"), head("dev"), true},
		{"left-pred", leg{"master", -1, decibel.Col("v").Lt(int64(150)), nil}, head("dev"), true},
		{"right-pred", head("master"), leg{"dev", -1, decibel.Col("sku").HasPrefix("b"), nil}, true},
		{"both-preds", leg{"dev", -1, decibel.Col("v").Ge(int64(20)), nil},
			leg{"master", -1, decibel.Col("v").Lt(int64(560)).And(decibel.Col("sku").HasPrefix("a").Not()), nil}, true},
		{"id-last", leg{"master", -1, all, []string{"v", "id"}}, leg{"dev", -1, all, []string{"v", "sku", "id"}}, true},
		{"id-omitted", leg{"dev", -1, decibel.Col("v").Gt(int64(30)), []string{"v"}}, leg{"master", -1, all, []string{"sku"}}, true},
		{"left-at", leg{"master", 3, all, nil}, head("dev"), true},
		{"right-at", head("dev"), leg{"master", 3, decibel.Col("v").Ge(int64(5)), nil}, true},
		{"both-at", leg{"master", 1, decibel.Col("sku").HasPrefix("a"), nil}, leg{"master", 1, decibel.Col("v").Lt(int64(120)), nil}, true},
		{"same-branch", head("master"), head("master"), true},
		{"same-branch-at", leg{"master", 3, decibel.Col("sku").HasPrefix("c"), nil}, head("master"), true},
		{"left-point", leg{"master", -1, decibel.Col("id").Eq(int64(120)), nil}, head("dev"), true},
		{"right-point", head("master"), leg{"dev", -1, decibel.Col("id").Eq(int64(57)), nil}, true},
		{"both-point", leg{"master", 3, decibel.Col("id").Eq(int64(250)), nil}, leg{"dev", -1, decibel.Col("id").Eq(int64(250)), nil}, true},
		{"epochs", head("wide"), leg{"master", -1, decibel.Col("v").Lt(int64(300)), nil}, false},
		{"epochs-at", leg{"master", 1, all, nil}, head("dev"), false},
		{"epochs-id-last", leg{"wide", -1, all, []string{"v", "price", "id"}}, head("master"), false},
	}
	query := func(db *decibel.DB, l leg) *decibel.Query {
		q := db.Query("r").On(l.branch)
		if l.at >= 0 {
			q = q.At(l.at)
		}
		q = q.Where(l.where)
		if l.cols != nil {
			q = q.Select(l.cols...)
		}
		return q
	}
	configs := []struct {
		label   string
		engines []string
		compact bool
		opts    []decibel.Option
	}{
		{"raw", facadeEngines, false, nil},
		{"dcz", facadeEngines, true, nil},
		{"tiny-pool", []string{"version-first"}, false, []decibel.Option{decibel.WithPoolPages(2)}},
	}
	for _, cfg := range configs {
		for _, engine := range cfg.engines {
			t.Run(cfg.label+"/"+engine, func(t *testing.T) {
				db := buildVersionJoinDB(t, engine, cfg.compact, cfg.opts...)
				for _, tc := range cases {
					mk := func() *decibel.Query {
						return query(db, tc.left).JoinOn(query(db, tc.right), decibel.On("id", "id"))
					}
					before := expvarInt(t, "decibel.version_joins")
					got, gErr := tupleLines(mk().Tuples())
					declared, dErr := tupleLines(mk().DeclaredJoinOrder().Tuples())
					ran := expvarInt(t, "decibel.version_joins") - before
					if want := map[bool]int64{true: 2, false: 0}[tc.version]; ran != want {
						t.Fatalf("%s: %d version joins ran, want %d", tc.label, ran, want)
					}
					want := pkJoinLines(legRows(t, query(db, tc.left)), legRows(t, query(db, tc.right)))
					if len(want) == 0 {
						t.Fatalf("%s: the reference joins nothing", tc.label)
					}
					compareStreams(t, tc.label+" vs nested loop", got, want, gErr, nil)
					compareStreams(t, tc.label+" declared order", declared, want, dErr, nil)
					if n, err := mk().Count(); err != nil || n != len(want) {
						t.Fatalf("%s: Count = %d (%v), want %d", tc.label, n, err, len(want))
					}
				}
			})
		}
	}
}

// scalarFold runs the five scalar terminals over one query shape,
// formatted as refGroupFold formats the one group of a fold with no
// group columns. An empty scan has no group: Count and Sum must answer
// 0 and Min, Max and Avg ErrNoRows.
func scalarFold(t *testing.T, label string, mk func() *decibel.Query) ([]string, error) {
	t.Helper()
	n, err := mk().Count()
	if err != nil {
		return nil, err
	}
	sum, err := mk().Sum("v")
	if err != nil {
		return nil, err
	}
	lo, loErr := mk().Min("price")
	hi, hiErr := mk().Max("price")
	avg, avgErr := mk().Avg("price")
	if n == 0 {
		for _, err := range []error{loErr, hiErr, avgErr} {
			if !errors.Is(err, decibel.ErrNoRows) {
				t.Fatalf("%s: Min/Max/Avg over an empty scan: %v, want ErrNoRows", label, err)
			}
		}
		if sum != 0 {
			t.Fatalf("%s: Sum over an empty scan = %v, want 0", label, sum)
		}
		return nil, nil
	}
	if err := errors.Join(loErr, hiErr, avgErr); err != nil {
		return nil, err
	}
	return []string{formatGroup(nil, []float64{float64(n), sum, lo, hi, avg})}, nil
}

// refAgg mirrors one Agg for the post-hoc reference fold.
type refAgg struct {
	kind byte // c,s,m,M,a
	col  string
}

// refGroupFold folds the rows of a sequential ungrouped scan post hoc,
// replicating the streaming fold's arithmetic exactly (int columns
// accumulate as int64, first-arrival emission order).
func refGroupFold(rows []*decibel.Record, groupCols []string, aggs []refAgg) []string {
	type acc struct {
		key  []any
		n    []int
		isum []int64
		fsum []float64
		fmin []float64
		fmax []float64
	}
	m := map[string]*acc{}
	var order []string
	isFloat := make([]bool, len(aggs))
	for _, rec := range rows {
		sch := rec.Schema()
		keyParts := make([]string, len(groupCols))
		keyVals := make([]any, len(groupCols))
		for i, name := range groupCols {
			ci := sch.ColumnIndex(name)
			var v any
			switch sch.Column(ci).Type {
			case decibel.Float64:
				v = rec.GetFloat64(ci)
			case decibel.Bytes:
				v = string(append([]byte(nil), rec.GetBytes(ci)...))
			default:
				v = rec.Get(ci)
			}
			keyVals[i] = v
			keyParts[i] = fmt.Sprintf("%v", v)
		}
		key := strings.Join(keyParts, "|")
		a := m[key]
		if a == nil {
			a = &acc{key: keyVals,
				n: make([]int, len(aggs)), isum: make([]int64, len(aggs)),
				fsum: make([]float64, len(aggs)), fmin: make([]float64, len(aggs)), fmax: make([]float64, len(aggs))}
			m[key] = a
			order = append(order, key)
		}
		for i, ag := range aggs {
			a.n[i]++
			if ag.kind == 'c' {
				continue
			}
			ci := sch.ColumnIndex(ag.col)
			var f float64
			if sch.Column(ci).Type == decibel.Float64 {
				isFloat[i] = true
				f = rec.GetFloat64(ci)
				a.fsum[i] += f
			} else {
				iv := rec.Get(ci)
				a.isum[i] += iv
				f = float64(iv)
			}
			if a.n[i] == 1 || f < a.fmin[i] {
				a.fmin[i] = f
			}
			if a.n[i] == 1 || f > a.fmax[i] {
				a.fmax[i] = f
			}
		}
	}
	out := make([]string, len(order))
	for j, key := range order {
		a := m[key]
		res := make([]float64, len(aggs))
		for i, ag := range aggs {
			sum := float64(a.isum[i])
			if isFloat[i] {
				sum = a.fsum[i]
			}
			switch ag.kind {
			case 'c':
				res[i] = float64(a.n[i])
			case 's':
				res[i] = sum
			case 'm':
				res[i] = a.fmin[i]
			case 'M':
				res[i] = a.fmax[i]
			default: // avg
				res[i] = sum / float64(a.n[i])
			}
		}
		out[j] = formatGroup(a.key, res)
	}
	return out
}

func TestGroupByEquivalence(t *testing.T) {
	aggs := []decibel.Agg{decibel.Count(), decibel.Sum("v"), decibel.Min("price"), decibel.Max("price"), decibel.Avg("price")}
	refs := []refAgg{{'c', ""}, {'s', "v"}, {'m', "price"}, {'M', "price"}, {'a', "price"}}
	type shape struct {
		label    string
		branches []string
		heads    bool
		at       int // >= 0: At(at) on the one branch
	}
	shapes := []shape{
		{"master", []string{"master"}, false, -1},
		{"b2", []string{"b2"}, false, -1},
		{"at", []string{"master"}, false, 2},
		{"multi", []string{"master", "b1"}, false, -1},
		{"heads", nil, true, -1},
	}
	// v is an Int64 key with one group per row, so the group table grows
	// through every size a scan reaches.
	groupings := [][]string{{"price"}, {"sku"}, {"price", "sku"}, {"v"}, {"v", "sku"}}
	for _, engine := range facadeEngines {
		for _, workers := range equivalenceWorkers {
			t.Run(fmt.Sprintf("%s/workers=%d", engine, workers), func(t *testing.T) {
				db := buildPruningDB(t, engine, decibel.WithScanWorkers(workers))
				preds := []iquery.Expr{
					{},
					decibel.Col("price").Lt(7.5),
					decibel.Col("price").Ge(7.5),
					decibel.Col("sku").HasPrefix("c"),
					decibel.Col("v").Ge(120).And(decibel.Col("sku").HasPrefix("b")),
					decibel.Col("v").Lt(-1000), // empty scan
				}
				rng := rand.New(rand.NewSource(0x96f0))
				for i := 0; i < 20; i++ {
					preds = append(preds, randExpr(rng, 2))
				}
				for pi, where := range preds {
					for _, sh := range shapes {
						mk := func() *decibel.Query {
							q := db.Query("r").Where(where)
							if sh.heads {
								return q.Heads()
							}
							if q = q.On(sh.branches...); sh.at >= 0 {
								q = q.At(sh.at)
							}
							return q
						}
						// The scalar aggregates: the fold with no group
						// columns, against the same post-hoc fold.
						label := fmt.Sprintf("pred[%d] %s scalar", pi, sh.label)
						got, gotErr := scalarFold(t, label, mk)
						compareStreams(t, label+" streaming-vs-posthoc", got, refGroupFold(legRows(t, mk()), nil, refs), gotErr, nil)
						for gi, gcols := range groupings {
							label := fmt.Sprintf("pred[%d] %s group[%d]", pi, sh.label, gi)
							got, gotErr := collectGroups(mk().GroupBy(gcols...).Groups(aggs...))
							want := refGroupFold(legRows(t, mk()), gcols, refs)
							compareStreams(t, label+" streaming-vs-posthoc", got, want, gotErr, nil)
						}
					}
				}
			})
		}
	}
}

// TestGroupKeySemantics pins what a group key is. An Int32 key groups
// by its value, negative ones included, and emits it as an int64. A
// Float64 key groups by its bits: -0.0 and +0.0 are two groups, and two
// NaNs with one bit pattern are one group, though neither pair compares
// as a Go map[float64] key would. Groups emit in first-arrival order.
func TestGroupKeySemantics(t *testing.T) {
	db, err := decibel.Open(t.TempDir(), decibel.WithEngine("hybrid"))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := decibel.NewSchema().Int64("id").Int32("k").Float64("f").MustBuild()
	if _, err := db.CreateTable("r", s); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Init("init"); err != nil {
		t.Fatal(err)
	}
	nan := math.Float64frombits(0x7ff8000000000001)
	rows := []struct {
		k int64
		f float64
	}{{-3, 0}, {math.MinInt32, math.Copysign(0, -1)}, {-3, nan}, {7, nan}, {math.MinInt32, 0}, {7, 1.5}}
	if _, err := db.Commit("master", func(tx *decibel.Tx) error {
		for i, r := range rows {
			rec := decibel.NewRecord(s)
			rec.SetPK(int64(i))
			rec.Set(1, r.k)
			rec.SetFloat64(2, r.f)
			if err := tx.Insert("r", rec); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	type group struct {
		key any
		n   float64
	}
	groups := func(col string) []group {
		t.Helper()
		seq, errf := db.Query("r").On("master").GroupBy(col).Groups(decibel.Count())
		var out []group
		for g := range seq {
			out = append(out, group{g.Key[0], g.Aggs[0]})
		}
		if err := errf(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	ints := groups("k")
	wantInts := []group{{int64(-3), 2}, {int64(math.MinInt32), 2}, {int64(7), 2}}
	if fmt.Sprint(ints) != fmt.Sprint(wantInts) {
		t.Errorf("GroupBy(Int32 k) = %v, want %v", ints, wantInts)
	}
	floats := groups("f")
	bits := make([]uint64, len(floats))
	for i, g := range floats {
		f, ok := g.key.(float64)
		if !ok {
			t.Fatalf("Float64 key %v is a %T", g.key, g.key)
		}
		bits[i] = math.Float64bits(f)
	}
	wantBits := []uint64{0, 1 << 63, 0x7ff8000000000001, math.Float64bits(1.5)}
	wantN := []float64{2, 1, 2, 1}
	if len(floats) != len(wantBits) {
		t.Fatalf("GroupBy(Float64 f) = %v, want %d groups", floats, len(wantBits))
	}
	for i := range floats {
		if bits[i] != wantBits[i] || floats[i].n != wantN[i] {
			t.Errorf("float group %d: bits %#x count %v, want %#x count %v", i, bits[i], floats[i].n, wantBits[i], wantN[i])
		}
	}
}

// TestFloatFoldIndependentOfWorkers: a float Sum adds in scan order, so
// its answer is one value whatever the database was opened with. The
// first frozen segment holds 1e16 and a later one 1 and 1: in scan
// order each 1 rounds away (1e16+1 is a tie that rounds to even), while
// summing the later segment first would keep its 2. Both answers must
// be the in-order fold's.
func TestFloatFoldIndependentOfWorkers(t *testing.T) {
	db, err := decibel.Open(t.TempDir(), decibel.WithEngine("hybrid"), decibel.WithScanWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := decibel.NewSchema().Int64("id").Float64("v").MustBuild()
	if _, err := db.CreateTable("r", s); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Init("init"); err != nil {
		t.Fatal(err)
	}
	values := []float64{1e16, 1, 1}
	pk := int64(0)
	for i, wave := range [][]float64{values[:1], values[1:]} {
		if _, err := db.Commit("master", func(tx *decibel.Tx) error {
			for _, v := range wave {
				rec := decibel.NewRecord(s)
				pk++
				rec.SetPK(pk)
				rec.SetFloat64(1, v)
				if err := tx.Insert("r", rec); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		// Branching freezes master's head: each wave ends in its own
		// frozen segment.
		if _, err := db.Branch("master", fmt.Sprintf("freeze%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	want := 0.0
	for _, v := range values {
		want += v
	}
	if want != 1e16 {
		t.Fatalf("in-order fold = %v, want 1e16", want)
	}
	sum, err := db.Query("r").On("master").Sum("v")
	if err != nil || sum != want {
		t.Fatalf("Sum = %v (%v), want %v", sum, err, want)
	}
	avg, err := db.Query("r").On("master").Avg("v")
	if err != nil || avg != want/float64(len(values)) {
		t.Fatalf("Avg = %v (%v), want %v", avg, err, want/float64(len(values)))
	}
}

// TestJoinGroupByErrors pins the plan-time error taxonomy of the new
// shapes — the same table the server's error-code mapping serves from.
func TestJoinGroupByErrors(t *testing.T) {
	db := buildJoinDB(t, "hybrid")
	pdb := buildPruningDB(t, "hybrid")

	drainT := func(s iter.Seq[decibel.JoinTuple], e func() error) error {
		for range s {
		}
		return e()
	}
	drainG := func(s iter.Seq[*decibel.GroupRow], e func() error) error {
		for range s {
		}
		return e()
	}
	drainR := func(s iter.Seq[*decibel.Record], e func() error) error {
		for range s {
		}
		return e()
	}

	cases := []struct {
		label string
		want  error
		run   func() error
	}{
		{"float join key", decibel.ErrBadQuery, func() error {
			return drainT(db.Query("orders").On("master").JoinOn(db.Query("items"), decibel.On("qty", "price")).Tuples())
		}},
		{"int-bytes key mismatch", decibel.ErrTypeMismatch, func() error {
			return drainT(db.Query("orders").On("master").JoinOn(db.Query("users"), decibel.On("user_id", "name")).Tuples())
		}},
		{"unknown join key", decibel.ErrNoSuchColumn, func() error {
			return drainT(db.Query("orders").On("master").JoinOn(db.Query("users"), decibel.On("nope", "id")).Tuples())
		}},
		{"join key projected out", decibel.ErrBadQuery, func() error {
			return drainT(db.Query("orders").On("master").Select("id", "qty").
				JoinOn(db.Query("users"), decibel.On("user_id", "id")).Tuples())
		}},
		{"group col missing from Select", decibel.ErrBadQuery, func() error {
			return drainG(pdb.Query("r").On("master").Select("id", "v").GroupBy("sku").Groups(decibel.Count()))
		}},
		{"unknown group col", decibel.ErrNoSuchColumn, func() error {
			return drainG(pdb.Query("r").On("master").GroupBy("nope").Groups(decibel.Count()))
		}},
		{"groupBy with OrderBy", decibel.ErrBadQuery, func() error {
			return drainG(pdb.Query("r").On("master").OrderBy("v", false).GroupBy("sku").Groups(decibel.Count()))
		}},
		{"Rows on joined query", decibel.ErrBadQuery, func() error {
			return drainR(db.Query("orders").On("master").JoinOn(db.Query("users"), decibel.On("user_id", "id")).Rows())
		}},
		{"Rows on grouped query", decibel.ErrBadQuery, func() error {
			return drainR(pdb.Query("r").On("master").GroupBy("sku").Rows())
		}},
		{"scalar Sum over join", decibel.ErrBadQuery, func() error {
			_, err := db.Query("orders").On("master").JoinOn(db.Query("users"), decibel.On("user_id", "id")).Sum("qty")
			return err
		}},
		{"Tuples without join", decibel.ErrBadQuery, func() error {
			return drainT(db.Query("orders").On("master").Tuples())
		}},
		{"Groups without GroupBy", decibel.ErrBadQuery, func() error {
			return drainG(db.Query("orders").On("master").Groups(decibel.Count()))
		}},
		{"join leg scans every head", decibel.ErrBadQuery, func() error {
			return drainT(db.Query("orders").On("master").JoinOn(db.Query("users").Heads(), decibel.On("user_id", "id")).Tuples())
		}},
		{"join over multi-branch root", decibel.ErrBadQuery, func() error {
			return drainT(db.Query("orders").On("master", "alt").JoinOn(db.Query("users"), decibel.On("user_id", "id")).Tuples())
		}},
		{"aggregate over bytes column", decibel.ErrTypeMismatch, func() error {
			return drainG(db.Query("users").On("master").GroupBy("region").Groups(decibel.Sum("name")))
		}},
	}
	for _, tc := range cases {
		if err := tc.run(); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.label, err, tc.want)
		}
	}

	// Count is the one scalar fold defined over a join, and the joined
	// tuples it counts must agree with the tuple stream.
	n, err := db.Query("orders").On("master").JoinOn(db.Query("users"), decibel.On("user_id", "id")).Count()
	if err != nil {
		t.Fatal(err)
	}
	tuples, errFn := db.Query("orders").On("master").JoinOn(db.Query("users"), decibel.On("user_id", "id")).Tuples()
	m := 0
	for range tuples {
		m++
	}
	if err := errFn(); err != nil {
		t.Fatal(err)
	}
	if n != m || n != 400 {
		t.Fatalf("join Count %d, tuple stream %d (want 400)", n, m)
	}
}
