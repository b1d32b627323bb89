package decibel_test

import (
	"fmt"
	"testing"

	"decibel"
)

// TestPoolBytesAfterReopen: a reopened hybrid dataset's buffer pool
// holds what its pages hold. Every branch head is a segment whose only
// page is mostly empty; reading them all costs their records' bytes,
// not a default 4 MiB page per head.
func TestPoolBytesAfterReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := decibel.Open(dir, decibel.WithEngine("hybrid"))
	if err != nil {
		t.Fatal(err)
	}
	schema := decibel.NewSchema().Int64("id").Int64("v").MustBuild()
	if _, err := db.CreateTable("r", schema); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Init("init"); err != nil {
		t.Fatal(err)
	}
	insert := func(branch string, from int64) {
		t.Helper()
		if _, err := db.Commit(branch, func(tx *decibel.Tx) error {
			for pk := from; pk < from+50; pk++ {
				rec := decibel.NewRecord(schema)
				rec.SetPK(pk)
				rec.Set(1, pk)
				if err := tx.Insert("r", rec); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	insert("master", 0)
	const heads = 13
	for i := 1; i < heads; i++ {
		name := fmt.Sprintf("b%d", i)
		if _, err := db.Branch("master", name); err != nil {
			t.Fatal(err)
		}
		insert(name, int64(i)*1000)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	if db, err = decibel.Open(dir, decibel.WithEngine("hybrid")); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rows, errf := db.Query("r").Heads().Annotated()
	n := 0
	for range rows {
		n++
	}
	if err := errf(); err != nil {
		t.Fatal(err)
	}
	if n != heads*50 {
		t.Fatalf("Heads() scan saw %d records, want %d", n, heads*50)
	}
	st, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.PoolBytes <= 0 || st.PoolBytes >= 1<<20 {
		t.Fatalf("pool holds %d bytes after reading %d heads of 50 rows, want (0, 1 MiB)", st.PoolBytes, heads)
	}
}
