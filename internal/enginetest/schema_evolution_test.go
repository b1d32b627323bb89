package enginetest

// Core-level schema evolution across every engine: add a column with a
// default on one branch, commit on two diverging branches,
// close/reopen, and verify historical reads decode without rewrites
// and the three-way merge resolves rows from mixed schema versions.

import (
	"testing"

	"decibel/internal/core"
	"decibel/internal/record"
	"decibel/internal/vgraph"
)

func TestSchemaEvolutionAcrossReopen(t *testing.T) {
	for _, tc := range engineCases() {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			db := openDB(t, dir, tc.factory, tc.opt)
			schema := testSchema()
			if _, err := db.CreateTable("t", schema); err != nil {
				t.Fatal(err)
			}
			master, _, err := db.Init("init")
			if err != nil {
				t.Fatal(err)
			}
			tbl, _ := db.Table("t")
			for pk := int64(1); pk <= 4; pk++ {
				if err := tbl.Insert(master.ID, simpleRec(schema, pk, 10*pk)); err != nil {
					t.Fatal(err)
				}
			}
			base, err := db.Commit(master.ID, "seed")
			if err != nil {
				t.Fatal(err)
			}
			dev, err := db.Branch("dev", base.ID)
			if err != nil {
				t.Fatal(err)
			}
			// master diverges in the old shape: pk 2's value changes.
			if err := tbl.Insert(master.ID, simpleRec(schema, 2, 222)); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Commit(master.ID, "old-shape update"); err != nil {
				t.Fatal(err)
			}
			// dev evolves the schema through a transaction.
			if _, err := db.Transact(t.Context(), "dev", func(tx *core.Tx) error {
				tx.SetMessage("add extra")
				return tx.AddColumn("t", record.Column{Name: "extra", Type: record.Int64}, core.Default(int64(77)))
			}); err != nil {
				t.Fatal(err)
			}
			// dev writes the new shape: pk 2 gains an extra value while
			// keeping the branch-point v (so the merge sees disjoint
			// field changes on the two sides), pk 5 is brand new.
			wide := tbl.Schema()
			ei := wide.ColumnIndex("extra")
			if ei < 0 {
				t.Fatalf("latest schema misses extra: %v", wide)
			}
			w := record.New(wide)
			w.SetPK(2)
			w.Set(1, 20)
			w.Set(ei, 2222)
			if err := tbl.Insert(dev.ID, w); err != nil {
				t.Fatal(err)
			}
			w = record.New(wide)
			w.SetPK(5)
			w.Set(1, 50)
			w.Set(ei, 55)
			if err := tbl.Insert(dev.ID, w); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Commit(dev.ID, "wide rows"); err != nil {
				t.Fatal(err)
			}
			// Merge dev into master: pk 2's qty changed on master, its
			// extra on dev — a three-way merge across schema versions.
			if _, _, err := db.MergeContext(t.Context(), master.Name, dev.Name, "merge dev", core.ThreeWay, true); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			db = openDB(t, dir, tc.factory, tc.opt)
			defer db.Close()
			tbl, _ = db.Table("t")
			// The pre-change commit still decodes in its own shape.
			n := 0
			if err := scanCommit(tbl, base, func(rec *record.Record) bool {
				n++
				if rec.Schema().ColumnIndex("extra") >= 0 {
					t.Fatal("pre-change commit row shows the later-added column")
				}
				if rec.Schema().NumColumns() != schema.NumColumns() {
					t.Fatalf("pre-change commit row has %d columns, want %d",
						rec.Schema().NumColumns(), schema.NumColumns())
				}
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if n != 4 {
				t.Fatalf("pre-change commit has %d rows, want 4", n)
			}
			// The merged master head carries the merged fields and fills
			// the default for rows that never wrote the column.
			mb, ok := db.Graph().BranchByName(vgraph.MasterName)
			if !ok {
				t.Fatal("master branch missing after reopen")
			}
			extra := make(map[int64]int64)
			vals := make(map[int64]int64)
			if err := scanHead(tbl, mb.ID, func(rec *record.Record) bool {
				i := rec.Schema().ColumnIndex("extra")
				if i < 0 {
					t.Fatalf("merged head row lacks extra: %v", rec)
				}
				extra[rec.PK()] = rec.Get(i)
				vals[rec.PK()] = rec.Get(1)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if len(extra) != 5 {
				t.Fatalf("merged master has %d rows, want 5", len(extra))
			}
			if vals[2] != 222 || extra[2] != 2222 {
				t.Fatalf("three-way merge across versions wrong for pk2: v=%d extra=%d (want 222, 2222)",
					vals[2], extra[2])
			}
			if extra[1] != 77 || extra[5] != 55 {
				t.Fatalf("defaults wrong after merge: %v", extra)
			}
		})
	}
}
