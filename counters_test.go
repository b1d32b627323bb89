package decibel_test

import (
	"expvar"
	"os"
	"regexp"
	"slices"
	"strconv"
	"testing"

	"decibel"
)

// expvarInt reads the process-global counter published under name,
// the way the benchmark driver and scripts/server-smoke.sh read it from
// /debug/vars. A name nothing publishes, or one that does not read as
// an integer, fails the test instead of reading 0.
func expvarInt(t testing.TB, name string) int64 {
	t.Helper()
	v := expvar.Get(name)
	if v == nil {
		t.Fatalf("expvar %q not published", name)
	}
	n, err := strconv.ParseInt(v.String(), 10, 64)
	if err != nil {
		t.Fatalf("expvar %q = %q: %v", name, v.String(), err)
	}
	return n
}

// counterReaders are the files outside the Go tests that read counters
// by name, with the pattern that finds each name they read.
var counterReaders = []struct {
	path string
	name *regexp.Regexp
}{
	{"benchmark/ladder.go", regexp.MustCompile(`"(decibel\.[a-z_.]+)"`)},
	{"benchmark/run.go", regexp.MustCompile(`"(decibel\.[a-z_.]+)"`)},
	{"scripts/server-smoke.sh", regexp.MustCompile(`\bvar (decibel\.[a-z_.]+)`)},
}

// TestPublishedCounters checks that every counter name the benchmark
// driver and the server smoke test read is published and reads as an
// integer. The driver reads a missing counter as 0, so a counter renamed
// or dropped would otherwise zero its per-layer numbers silently.
func TestPublishedCounters(t *testing.T) {
	for _, r := range counterReaders {
		src, err := os.ReadFile(r.path)
		if err != nil {
			t.Fatal(err)
		}
		found := r.name.FindAllSubmatch(src, -1)
		if len(found) == 0 {
			t.Fatalf("%s reads no counter by name", r.path)
		}
		for _, m := range found {
			expvarInt(t, string(m[1]))
		}
	}
}

// TestHeadReadsReadNoCommitLog: a read pinned to a branch's newest
// commit — the shape of every served read — and a merge whose common
// ancestor is that commit take the branch's bitmaps from memory and
// read no commit-log entry. A read of an older commit replays entries
// and returns the rows the head held then.
func TestHeadReadsReadNoCommitLog(t *testing.T) {
	for _, engine := range []string{"hybrid", "tuple-first"} {
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
			read := func(q *decibel.Query) []string {
				t.Helper()
				rows, errf := q.Rows()
				var out []string
				for rec := range rows {
					out = append(out, rec.String())
				}
				if err := errf(); err != nil {
					t.Fatal(err)
				}
				slices.Sort(out)
				return out
			}
			// Each commit inserts key i and rewrites key i/2, so every
			// commit changes what an older one held.
			put := func(branch string, i int64) *decibel.Commit {
				t.Helper()
				c, err := db.Commit(branch, func(tx *decibel.Tx) error {
					for _, kv := range [][2]int64{{i, i}, {i / 2, 100 * i}} {
						rec := decibel.NewRecord(schema)
						rec.SetPK(kv[0])
						rec.Set(1, kv[1])
						if err := tx.Insert("r", rec); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				return c
			}
			var head *decibel.Commit
			var atFive []string
			for i := int64(1); i <= 40; i++ {
				if head = put("master", i); head.Seq == 5 {
					atFive = read(db.Query("r").On("master"))
				}
			}
			entries := func() int64 { return expvarInt(t, "decibel.commitlog_entries_read") }
			before := entries()
			if got := read(db.Query("r").On("master").AtCommit(head.ID).Where(decibel.Col("id").Eq(int64(7)))); len(got) != 1 {
				t.Fatalf("point lookup at head: %v", got)
			}
			if got, want := read(db.Query("r").On("master").AtCommit(head.ID)), read(db.Query("r").On("master")); !slices.Equal(got, want) {
				t.Fatalf("scan at head: %d rows, head read %d", len(got), len(want))
			}
			if _, err := db.Branch("master", "dev"); err != nil {
				t.Fatal(err)
			}
			put("dev", 41)
			if _, _, err := db.Merge("master", "dev"); err != nil {
				t.Fatal(err)
			}
			if d := entries() - before; d != 0 {
				t.Fatalf("reads at master's newest commit and a merge from it read %d commit-log entries", d)
			}
			if got := read(db.Query("r").On("master").At(5)); !slices.Equal(got, atFive) {
				t.Fatalf("At(5): %v, want %v", got, atFive)
			}
			if entries() == before {
				t.Fatal("At(5) read no commit-log entry: the counter does not count replays")
			}
		})
	}
}

// TestPageCounters: decibel.pages_scanned and decibel.pages_skipped
// count the pages a scan's walk meets holding a live slot, the same on
// every engine: a page whose planes rule out every row is skipped, and
// every other is scanned. A scan of heap pages scans each of its live
// pages; a predicate the const planes of compacted pages exclude skips
// them.
func TestPageCounters(t *testing.T) {
	read := func(t *testing.T, q *decibel.Query) (rows int, scanned, skipped int64) {
		t.Helper()
		s0, k0 := expvarInt(t, "decibel.pages_scanned"), expvarInt(t, "decibel.pages_skipped")
		it, errf := q.Rows()
		for range it {
			rows++
		}
		if err := errf(); err != nil {
			t.Fatal(err)
		}
		return rows, expvarInt(t, "decibel.pages_scanned") - s0, expvarInt(t, "decibel.pages_skipped") - k0
	}
	t.Run("heap", func(t *testing.T) {
		const rows, pageSize = 2000, 2048
		db, err := decibel.Open(t.TempDir(), decibel.WithEngine("hybrid"), decibel.WithPageSize(pageSize))
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
			for pk := int64(0); pk < rows; pk++ {
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
		per := pageSize / schema.RecordSize()
		pages := int64((rows + per - 1) / per)
		if n, scanned, skipped := read(t, db.Query("r").On("master")); n != rows || scanned != pages || skipped != 0 {
			t.Fatalf("heap scan: %d rows, %d pages scanned, %d skipped; want %d, %d, 0", n, scanned, skipped, rows, pages)
		}
	})
	t.Run("dcz", func(t *testing.T) {
		// c is pk/200: keys 200..399 hold c = 1, and master deleted 200..219.
		q := func(db *decibel.DB) *decibel.Query {
			return db.Query("r").On("master").Where(decibel.Col("c").Eq(int64(1)))
		}
		n, _, skipped := read(t, q(buildPlaneDB(t, t.TempDir(), "hybrid", true)))
		if n != 180 || skipped == 0 {
			t.Fatalf("c = 1 on compacted pages: %d rows, %d pages skipped; want 180 rows and a page skipped", n, skipped)
		}
		if n, _, skipped := read(t, q(buildPlaneDB(t, t.TempDir(), "hybrid", false))); n != 180 || skipped != 0 {
			t.Fatalf("c = 1 on heap pages: %d rows, %d pages skipped; want 180 and 0", n, skipped)
		}
	})
}
