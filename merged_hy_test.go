package decibel_test

// A hybrid dataset compacted by the merge-run compaction that no longer
// exists — a merged segment under a fresh id at its run's scan
// position, per-branch logs rewritten against it — must open unchanged,
// answer as it did, take commits and merges, and compact again (now by
// re-encoding in place only). testdata/merged_hy holds one (see its
// README for the history).

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"decibel"
)

// mergedHyRender renders a query's rows as " id=v" in key order.
func mergedHyRender(t *testing.T, q *decibel.Query) string {
	t.Helper()
	rows, errf := q.Rows()
	var recs []*decibel.Record
	for rec := range rows {
		recs = append(recs, rec.Clone())
	}
	if err := errf(); err != nil {
		t.Fatal(err)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].PK() < recs[j].PK() })
	var sb strings.Builder
	for _, rec := range recs {
		fmt.Fprintf(&sb, " %d=%d", rec.PK(), rec.Get(1))
	}
	return sb.String()
}

// mergedHyAnswers renders every branch's head and every commit of it.
func mergedHyAnswers(t *testing.T, db *decibel.DB, branches []string) string {
	t.Helper()
	var sb strings.Builder
	for _, b := range branches {
		fmt.Fprintf(&sb, "%s:%s\n", b, mergedHyRender(t, db.Query("r").On(b)))
		for seq := 0; ; seq++ {
			if _, err := db.Query("r").On(b).At(seq).Count(); err != nil {
				break
			}
			fmt.Fprintf(&sb, "%s@%d:%s\n", b, seq, mergedHyRender(t, db.Query("r").On(b).At(seq)))
		}
	}
	return sb.String()
}

// checkMergedHyPoints asserts a point lookup of every key agrees with
// each branch head.
func checkMergedHyPoints(t *testing.T, db *decibel.DB, branches []string, keys []int64) {
	t.Helper()
	for _, b := range branches {
		head := " " + mergedHyRender(t, db.Query("r").On(b)) + " "
		for _, k := range keys {
			got := mergedHyRender(t, db.Query("r").On(b).Where(decibel.Col("id").Eq(k)))
			want := ""
			if i := strings.Index(head, fmt.Sprintf(" %d=", k)); i >= 0 {
				want = " " + strings.Fields(head[i:])[0]
			}
			if got != want {
				t.Fatalf("%s: id = %d finds %q, want %q", b, k, got, want)
			}
		}
	}
}

const mergedHyAnswers0 = `master: 2=22 3=30 5=50 6=66 7=70 8=80 20=200
master@0:
master@1: 1=10 2=20 3=30
master@2: 1=10 2=22 3=30 4=40 5=50 6=66
master@3: 2=22 3=30 4=40 5=50 6=66 7=70
master@4: 2=22 3=30 4=40 5=50 6=66 7=70 8=80
master@5: 2=22 3=30 5=50 6=66 7=70 8=80 20=200
b1: 1=10 2=22 3=33 4=40 5=50 6=66 10=100
b1@0: 1=10 2=22 3=33 4=40 5=50 6=66 10=100
b2: 2=22 3=30 5=50 6=66 7=70 20=200
b2@0: 2=22 3=30 5=50 6=66 7=70 20=200
b3: 1=10 2=22 3=33 4=40 5=50 6=66 10=101 30=300
b3@0: 1=10 2=22 3=33 4=40 5=50 6=66 10=101 30=300
`

// After b1 +{11} 5→55, b3 +{31} −{2}, and b3 merged into b1.
const mergedHyAnswers1 = `master: 2=22 3=30 5=50 6=66 7=70 8=80 20=200
master@0:
master@1: 1=10 2=20 3=30
master@2: 1=10 2=22 3=30 4=40 5=50 6=66
master@3: 2=22 3=30 4=40 5=50 6=66 7=70
master@4: 2=22 3=30 4=40 5=50 6=66 7=70 8=80
master@5: 2=22 3=30 5=50 6=66 7=70 8=80 20=200
b1: 1=10 3=33 4=40 5=55 6=66 10=101 11=110 30=300 31=310
b1@0: 1=10 2=22 3=33 4=40 5=50 6=66 10=100
b1@1: 1=10 2=22 3=33 4=40 5=55 6=66 10=100 11=110
b1@2: 1=10 3=33 4=40 5=55 6=66 10=101 11=110 30=300 31=310
b2: 2=22 3=30 5=50 6=66 7=70 20=200
b2@0: 2=22 3=30 5=50 6=66 7=70 20=200
b3: 1=10 3=33 4=40 5=50 6=66 10=101 30=300 31=310
b3@0: 1=10 2=22 3=33 4=40 5=50 6=66 10=101 30=300
b3@1: 1=10 3=33 4=40 5=50 6=66 10=101 30=300 31=310
`

func TestOpensMergeCompactedHybridDataset(t *testing.T) {
	dir := t.TempDir()
	copyTree(t, filepath.Join("testdata", "merged_hy", "hy"), dir)
	open := func() *decibel.DB {
		db, err := decibel.Open(dir, decibel.WithEngine("hy"), decibel.WithPageSize(512),
			decibel.WithCompaction("manual"))
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	branches := []string{"master", "b1", "b2", "b3"}
	keys := []int64{1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 20, 30, 31}

	db := open()
	if got := mergedHyAnswers(t, db, branches); got != mergedHyAnswers0 {
		t.Fatalf("answers:\n%s\nwant:\n%s", got, mergedHyAnswers0)
	}
	checkMergedHyPoints(t, db, branches, keys)

	schema := decibel.NewSchema().Int64("id").Int64("v").MustBuild()
	// commit puts the (id, v) pairs kv and deletes del (0: none).
	commit := func(branch string, kv []int64, del int64) {
		t.Helper()
		if _, err := db.Commit(branch, func(tx *decibel.Tx) error {
			for i := 0; i < len(kv); i += 2 {
				rec := decibel.NewRecord(schema)
				rec.SetPK(kv[i])
				rec.Set(1, kv[i+1])
				if err := tx.Insert("r", rec); err != nil {
					return err
				}
			}
			if del > 0 {
				return tx.Delete("r", del)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	commit("b1", []int64{11, 110, 5, 55}, 0)
	commit("b3", []int64{31, 310}, 2)
	if _, st, err := db.Merge("b1", "b3"); err != nil || st.Conflicts != 0 {
		t.Fatalf("merge: %+v, %v", st, err)
	}
	// Branching freezes b1's head, giving the pass a heap segment to
	// re-encode beside the merged one it must leave alone.
	if _, err := db.Branch("b1", "b4"); err != nil {
		t.Fatal(err)
	}
	st, err := db.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if st.SegmentsCompressed == 0 {
		t.Fatalf("pass compressed nothing: %+v", st)
	}
	if got := mergedHyAnswers(t, db, branches); got != mergedHyAnswers1 {
		t.Fatalf("after commits, a merge and a pass:\n%s\nwant:\n%s", got, mergedHyAnswers1)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db = open()
	defer db.Close()
	if got := mergedHyAnswers(t, db, branches); got != mergedHyAnswers1 {
		t.Fatalf("after a reopen:\n%s\nwant:\n%s", got, mergedHyAnswers1)
	}
	checkMergedHyPoints(t, db, append(branches, "b4"), keys)
}
