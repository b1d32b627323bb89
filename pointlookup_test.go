package decibel_test

// Point-lookup fast-path tests: Where(Col("id").Eq(k)) on one version —
// a branch head, or a commit pinned with At or AtCommit — resolves
// through the engine's LookupPK instead of a segment scan on all three
// engines (tuple-first and hybrid through the shared version index,
// version-first through the version's lineage), observable through the
// decibel.point_lookups counter. Results must be indistinguishable from
// the scan path: residual predicates and projections still apply, and
// absent and deleted keys read back empty.

import (
	"fmt"
	"slices"
	"testing"

	"decibel"
	iquery "decibel/internal/query"
)

func TestPointLookupFastPath(t *testing.T) {
	for _, engine := range facadeEngines {
		t.Run(engine, func(t *testing.T) {
			db, err := decibel.Open(t.TempDir(), decibel.WithEngine(engine))
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			schema := decibel.NewSchema().Int64("id").Int64("v").MustBuild()
			if _, err := db.CreateTable("r", schema); err != nil {
				t.Fatal(err)
			}
			if _, _, err := db.Init("init"); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Commit("master", func(tx *decibel.Tx) error {
				for pk := int64(0); pk < 100; pk++ {
					rec := decibel.NewRecord(schema)
					rec.SetPK(pk)
					rec.Set(1, pk*10)
					if err := tx.Insert("r", rec); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}

			// All three engines serve the fast path (version-first probes
			// its lineage instead of a pk index).
			serves := true
			expect := expvarInt(t, "decibel.point_lookups")
			// check runs one query and asserts both the result and
			// whether the point-lookup counter moved.
			check := func(q *decibel.Query, wantRows int, wantV int64, served bool) {
				t.Helper()
				rows, qErr := q.Rows()
				n := 0
				for rec := range rows {
					n++
					if wantRows == 1 {
						if got := rec.Get(rec.Schema().ColumnIndex("v")); got != wantV {
							t.Fatalf("v = %d, want %d", got, wantV)
						}
					}
				}
				if err := qErr(); err != nil {
					t.Fatal(err)
				}
				if n != wantRows {
					t.Fatalf("%d rows, want %d", n, wantRows)
				}
				if served {
					expect++
				}
				if got := expvarInt(t, "decibel.point_lookups"); got != expect {
					t.Fatalf("point_lookups = %d, want %d (served=%v)", got, expect, served)
				}
			}

			// The plain point read.
			check(db.Query("r").On("master").Where(decibel.Col("id").Eq(int64(7))), 1, 70, serves)
			// An equivalent closed range [7,7] extracts the same point bound.
			check(db.Query("r").On("master").Where(decibel.Col("id").Ge(int64(7)).And(decibel.Col("id").Le(int64(7)))), 1, 70, serves)
			// Absent key: a served empty result, not a fallback scan.
			check(db.Query("r").On("master").Where(decibel.Col("id").Eq(int64(1000))), 0, 0, serves)
			// Residual predicate still filters the looked-up record.
			check(db.Query("r").On("master").Where(decibel.Col("id").Eq(int64(7)).And(decibel.Col("v").Eq(int64(0)))), 0, 0, serves)
			// Projection applies on the fast path too.
			check(db.Query("r").On("master").Where(decibel.Col("id").Eq(int64(7))).Select("v"), 1, 70, serves)
			// A historical read is served too, from the commit's version.
			check(db.Query("r").On("master").At(0).Where(decibel.Col("id").Eq(int64(7))), 0, 0, serves)
			// One key yields at most one row, so OrderBy+Limit keep the
			// lookup, at the head and at a commit.
			check(db.Query("r").On("master").Where(decibel.Col("id").Eq(int64(7))).OrderBy("v", true).Limit(3), 1, 70, serves)
			check(db.Query("r").On("master").At(1).Where(decibel.Col("id").Eq(int64(7))).OrderBy("v", false).Limit(1), 1, 70, serves)

			// Deleted key: the index reflects the head.
			if _, err := db.Commit("master", func(tx *decibel.Tx) error { return tx.Delete("r", 7) }); err != nil {
				t.Fatal(err)
			}
			check(db.Query("r").On("master").Where(decibel.Col("id").Eq(int64(7))), 0, 0, serves)
			// A range that is not a point still scans.
			check(db.Query("r").On("master").Where(decibel.Col("id").Ge(int64(7)).And(decibel.Col("id").Le(int64(9)))), 2, 0, false)
		})
	}
}

// TestPointLookupAtCommit: a point read pinned to a commit — At(seq) or
// AtCommit(id) — is served by the engine's lookup of that commit and
// returns exactly what the unpruned scan of the commit returns, for
// keys rewritten, deleted and inserted after the commit, and on a
// branch forked from a historical commit.
func TestPointLookupAtCommit(t *testing.T) {
	for _, engine := range facadeEngines {
		t.Run(engine, func(t *testing.T) {
			db, err := decibel.Open(t.TempDir(), decibel.WithEngine(engine))
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			schema := decibel.NewSchema().Int64("id").Int64("v").MustBuild()
			if _, err := db.CreateTable("r", schema); err != nil {
				t.Fatal(err)
			}
			if _, _, err := db.Init("init"); err != nil {
				t.Fatal(err)
			}
			put := func(tx *decibel.Tx, pk, v int64) error {
				rec := decibel.NewRecord(schema)
				rec.SetPK(pk)
				rec.Set(1, v)
				return tx.Insert("r", rec)
			}
			commit := func(branch string, fn func(tx *decibel.Tx) error) *decibel.Commit {
				t.Helper()
				c, err := db.Commit(branch, fn)
				if err != nil {
					t.Fatal(err)
				}
				return c
			}
			// master@1: keys 0..9.
			c1 := commit("master", func(tx *decibel.Tx) error {
				for pk := int64(0); pk < 10; pk++ {
					if err := put(tx, pk, pk*10); err != nil {
						return err
					}
				}
				return nil
			})
			// master@2: 1 rewritten, 2 deleted, 20 inserted.
			c2 := commit("master", func(tx *decibel.Tx) error {
				if err := put(tx, 1, 11); err != nil {
					return err
				}
				if err := tx.Delete("r", 2); err != nil {
					return err
				}
				return put(tx, 20, 200)
			})
			// master@3: 1 rewritten again, 2 back, 20 deleted.
			commit("master", func(tx *decibel.Tx) error {
				if err := put(tx, 1, 111); err != nil {
					return err
				}
				if err := put(tx, 2, 222); err != nil {
					return err
				}
				return tx.Delete("r", 20)
			})
			// old, forked from master@1 after master moved on: 3 rewritten,
			// 4 deleted.
			if _, err := db.Database.Branch("old", c1.ID); err != nil {
				t.Fatal(err)
			}
			oc := commit("old", func(tx *decibel.Tx) error {
				if err := put(tx, 3, 33); err != nil {
					return err
				}
				return tx.Delete("r", 4)
			})

			versions := []struct {
				branch string
				seq    int
				commit decibel.CommitID
			}{
				{"master", 0, 0}, // the empty init commit
				{"master", 1, 0},
				{"master", 2, 0},
				{"master", -1, c1.ID},
				{"master", -1, c2.ID},
				{"old", -1, c1.ID}, // the fork's branch point
				{"old", -1, oc.ID},
				{"old", -1, 0}, // the fork's head
			}
			for _, v := range versions {
				for _, pk := range []int64{0, 1, 2, 3, 4, 20, 1000} {
					label := fmt.Sprintf("%s seq=%d commit=%d pk=%d", v.branch, v.seq, v.commit, pk)
					plan := iquery.Plan{Table: "r", Branches: []string{v.branch}, AtSeq: v.seq, AtCommit: v.commit,
						Where: decibel.Col("id").Eq(pk)}
					before := expvarInt(t, "decibel.point_lookups")
					got, err := runShape(db, plan, "scan")
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if n := expvarInt(t, "decibel.point_lookups") - before; n != 1 {
						t.Fatalf("%s: %d point lookups served, want 1", label, n)
					}
					plan.NoPrune = true
					want, err := runShape(db, plan, "scan")
					if err != nil {
						t.Fatalf("%s (scan): %v", label, err)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%s: lookup %v, scan %v", label, got, want)
					}
				}
			}
			// The scan is the oracle above; pin a few answers outright so
			// an oracle that reads every version as empty cannot pass.
			for _, tc := range []struct {
				q     *decibel.Query
				wantV int64 // -1: absent
			}{
				{db.Query("r").On("master").At(2).Where(decibel.Col("id").Eq(int64(1))), 11},
				{db.Query("r").On("master").AtCommit(c1.ID).Where(decibel.Col("id").Eq(int64(2))), 20},
				{db.Query("r").On("master").At(2).Where(decibel.Col("id").Eq(int64(2))), -1},
				{db.Query("r").On("old").AtCommit(oc.ID).Where(decibel.Col("id").Eq(int64(1))), 10},
				{db.Query("r").On("old").AtCommit(oc.ID).Where(decibel.Col("id").Eq(int64(4))), -1},
			} {
				rows, errf := tc.q.Rows()
				got := int64(-1)
				for rec := range rows {
					got = rec.Get(1)
				}
				if err := errf(); err != nil || got != tc.wantV {
					t.Fatalf("v = %d (%v), want %d", got, err, tc.wantV)
				}
			}
		})
	}
}
