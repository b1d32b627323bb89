package decibel_test

// A dataset written before the version graph became a log — graph.json
// rewritten whole at every operation, wal.log a journal of "op:detail"
// groups — must open unchanged, answer as it did, take commits, and be
// in the new format after its first Close: an empty log on a snapshot
// that reopens. testdata/pre_graphlog holds one per engine (see its
// README for the history they share).

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"decibel"
)

// answers renders Q1 on every branch, the master/dev diff and master at
// each of its commits.
func answers(t *testing.T, db *decibel.DB) string {
	t.Helper()
	var sb strings.Builder
	render := func(q *decibel.Query) string {
		rows, errf := q.Rows()
		var out []string
		for rec := range rows {
			out = append(out, fmt.Sprintf("%d=%d", rec.PK(), rec.Get(1)))
		}
		if err := errf(); err != nil {
			t.Fatal(err)
		}
		sort.Strings(out)
		return strings.Join(out, " ")
	}
	for _, b := range []string{"master", "dev", "idle"} {
		fmt.Fprintf(&sb, "%s: %s\n", b, render(db.Query("r").On(b)))
	}
	var inMaster, inDev []string
	diff, errf := db.Diff("r", "master", "dev")
	for rec, first := range diff {
		if first {
			inMaster = append(inMaster, fmt.Sprint(rec.PK()))
		} else {
			inDev = append(inDev, fmt.Sprint(rec.PK()))
		}
	}
	if err := errf(); err != nil {
		t.Fatal(err)
	}
	sort.Strings(inMaster)
	sort.Strings(inDev)
	fmt.Fprintf(&sb, "diff: master only %v, dev only %v\n", inMaster, inDev)
	for seq := 0; ; seq++ {
		n, err := db.Query("r").On("master").At(seq).Count()
		if err != nil {
			break
		}
		fmt.Fprintf(&sb, "master@%d: %d rows\n", seq, n)
	}
	return sb.String()
}

const preGraphLogAnswers = `master: 2=22 3=30 4=40 5=50 6=60 7=70
dev: 1=10 2=22 3=30 4=40 5=50 6=60
idle: 2=22 3=30 4=40 5=50 6=60 7=70
diff: master only [7], dev only [1]
master@0: 0 rows
master@1: 3 rows
master@2: 5 rows
master@3: 6 rows
master@4: 5 rows
master@5: 6 rows
`

func TestOpensDatasetFromBeforeGraphLog(t *testing.T) {
	for _, engine := range []string{"tf", "hy", "vf"} {
		t.Run(engine, func(t *testing.T) {
			dir := t.TempDir()
			copyTree(t, filepath.Join("testdata", "pre_graphlog", engine), dir)
			if st, err := os.Stat(filepath.Join(dir, "wal.log")); err != nil || st.Size() == 0 {
				t.Fatalf("fixture has no journal: %v", err)
			}
			open := func() *decibel.DB {
				db, err := decibel.Open(dir, decibel.WithEngine(engine), decibel.WithPageSize(512))
				if err != nil {
					t.Fatal(err)
				}
				return db
			}
			db := open()
			if got := answers(t, db); got != preGraphLogAnswers {
				t.Fatalf("answers:\n%s\nwant:\n%s", got, preGraphLogAnswers)
			}
			commit := func(pk int64) {
				schema := decibel.NewSchema().Int64("id").Int64("v").MustBuild()
				if _, err := db.Commit("master", func(tx *decibel.Tx) error {
					rec := decibel.NewRecord(schema)
					rec.SetPK(pk)
					rec.Set(1, pk*10)
					return tx.Insert("r", rec)
				}); err != nil {
					t.Fatal(err)
				}
			}
			commit(8)
			want := strings.NewReplacer("70\ndev", "70 8=80\ndev", "only [7]", "only [7 8]").Replace(preGraphLogAnswers) + "master@6: 7 rows\n"
			if got := answers(t, db); got != want {
				t.Fatalf("after a commit:\n%s\nwant:\n%s", got, want)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			// Upgraded: the journal is gone and the snapshot carries on alone.
			if st, err := os.Stat(filepath.Join(dir, "wal.log")); err != nil || st.Size() != 0 {
				t.Fatalf("wal.log after the first Close: %v bytes (%v), want an empty log", st.Size(), err)
			}
			db = open()
			defer db.Close()
			if got := answers(t, db); got != want {
				t.Fatalf("after the upgrade and a reopen:\n%s\nwant:\n%s", got, want)
			}
			commit(9)
			if n, err := db.Query("r").On("master").Count(); err != nil || n != 8 {
				t.Fatalf("master after a commit on the upgraded dataset: %d rows (%v)", n, err)
			}
		})
	}
}
