package decibel_test

import (
	"slices"
	"testing"

	"decibel"
)

// TestPositiveDiffReadsOnlyItsSide: Query.Diff(a, b) walks the slots a
// holds and b does not, and nothing of b's alone. Branch b updates a
// handful of rows after master has filled many pages of its own; the
// diff of b against master returns exactly the inA rows of the
// symmetric db.Diff, and its walk scans no more pages than hold b's
// rows — not master's new pages, which only the symmetric diff reads.
func TestPositiveDiffReadsOnlyItsSide(t *testing.T) {
	const pageSize, base, grown, updated = 512, 100, 2000, 5
	for _, engine := range []string{"hybrid", "tuple-first", "version-first"} {
		t.Run(engine, func(t *testing.T) {
			db, err := decibel.Open(t.TempDir(), decibel.WithEngine(engine), decibel.WithPageSize(pageSize))
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			schema := decibel.NewSchema().Int64("id").Int64("v").MustBuild()
			if _, err := db.CreateTable("t", schema); err != nil {
				t.Fatal(err)
			}
			if _, _, err := db.Init("init"); err != nil {
				t.Fatal(err)
			}
			put := func(branch string, lo, hi, v int64) {
				t.Helper()
				if _, err := db.Commit(branch, func(tx *decibel.Tx) error {
					recs := make([]*decibel.Record, 0, hi-lo)
					for pk := lo; pk < hi; pk++ {
						rec := decibel.NewRecord(schema)
						rec.SetPK(pk)
						rec.Set(1, v+pk)
						recs = append(recs, rec)
					}
					return tx.InsertBatch("t", recs)
				}); err != nil {
					t.Fatal(err)
				}
			}
			put("master", 0, base, 0)
			if _, err := db.Branch("master", "b"); err != nil {
				t.Fatal(err)
			}
			put("master", base, base+grown, 0)
			put("b", 0, updated, 1000)

			scanned := func() int64 { return expvarInt(t, "decibel.pages_scanned") }
			before := scanned()
			rows, errf := db.Query("t").Diff("b", "master")
			var got []string
			for rec := range rows {
				got = append(got, rec.String())
			}
			if err := errf(); err != nil {
				t.Fatal(err)
			}
			pages := scanned() - before

			sym, errf := db.Diff("t", "b", "master")
			var want []string
			for rec, inA := range sym {
				if inA {
					want = append(want, rec.String())
				}
			}
			if err := errf(); err != nil {
				t.Fatal(err)
			}
			slices.Sort(got)
			slices.Sort(want)
			if len(want) != updated || !slices.Equal(got, want) {
				t.Fatalf("Query.Diff: %v\ninA rows of db.Diff: %v (want %d)", got, want, updated)
			}
			if pages < 1 || pages > updated {
				t.Fatalf("Query.Diff scanned %d pages; b's %d rows lie on at most %d", pages, updated, updated)
			}
		})
	}
}
