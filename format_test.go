package decibel_test

// The dataset format (docs/FORMAT.md): catalog.json carries format 2
// and the dataset's engine, Open refuses any other format before it
// touches a file and opens the recorded engine whatever it is asked
// for, and testdata/format2 holds one dataset per engine written by
// this format's writers (see its README for the script and the
// answers).

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"decibel"
)

var writeFixtures = flag.Bool("write-fixtures", false, "rewrite testdata/format2 with this tree's writers")

// format2Engines are the engines testdata/format2 holds a dataset of,
// by short name.
var format2Engines = []string{"tf", "hy", "vf"}

// format2Open opens dir as every format-2 fixture is written and read.
func format2Open(t *testing.T, dir, engine string) *decibel.DB {
	t.Helper()
	db, err := decibel.Open(dir, decibel.WithEngine(engine), decibel.WithPageSize(512),
		decibel.WithCompaction("manual"))
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// format2Put commits, on branch, the rows pk=v (and w, when given) of
// kv, taken in pairs — or triples when the schema has three columns —
// and deletes del.
func format2Put(t *testing.T, db *decibel.DB, branch string, kv []int64, del ...int64) {
	t.Helper()
	tbl, err := db.TableByName("r")
	if err != nil {
		t.Fatal(err)
	}
	schema := tbl.Schema()
	width := schema.NumColumns()
	if _, err := db.Commit(branch, func(tx *decibel.Tx) error {
		for i := 0; i < len(kv); i += width {
			rec := decibel.NewRecord(schema)
			rec.SetPK(kv[i])
			for c := 1; c < width; c++ {
				rec.Set(c, kv[i+c])
			}
			if err := tx.Insert("r", rec); err != nil {
				return err
			}
		}
		for _, pk := range del {
			if err := tx.Delete("r", pk); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// writeFormat2 writes testdata/format2's script into dir (empty).
func writeFormat2(t *testing.T, dir, engine string) {
	t.Helper()
	db := format2Open(t, dir, engine)
	if _, err := db.CreateTable("r", decibel.NewSchema().Int64("id").Int64("v").MustBuild()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Init("init"); err != nil {
		t.Fatal(err)
	}
	format2Put(t, db, "master", []int64{1, 10, 2, 20, 3, 30})
	format2Put(t, db, "master", []int64{4, 40, 5, 50})
	if _, err := db.Branch("master", "dev"); err != nil {
		t.Fatal(err)
	}
	format2Put(t, db, "dev", []int64{6, 60})
	format2Put(t, db, "dev", []int64{2, 22})
	format2Put(t, db, "master", []int64{7, 70})
	format2Put(t, db, "master", nil, 1)
	if _, _, err := db.Merge("master", "dev"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Commit("master", func(tx *decibel.Tx) error {
		return tx.AddColumn("r", decibel.Int64Column("w"), decibel.Default(5))
	}); err != nil {
		t.Fatal(err)
	}
	format2Put(t, db, "master", []int64{8, 80, 88})
	if _, err := db.Branch("master", "idle"); err != nil {
		t.Fatal(err)
	}
	if engine != "vf" {
		st, err := db.Compact()
		if err != nil {
			t.Fatal(err)
		}
		if st.SegmentsCompressed == 0 {
			t.Fatalf("the fixture's pass compressed nothing: %+v", st)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// answers renders Q1 on every branch (pk=v, and ,w where the branch
// sees w), the master/dev diff and master's row count at each commit.
func answers(t *testing.T, db *decibel.DB) string {
	t.Helper()
	var sb strings.Builder
	for _, b := range []string{"master", "dev", "idle"} {
		fmt.Fprintf(&sb, "%s: %s\n", b, renderRows(t, db.Query("r").On(b)))
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

// renderRows renders a query's rows as pk=v[,w] in key order.
func renderRows(t *testing.T, q *decibel.Query) string {
	t.Helper()
	rows, errf := q.Rows()
	var out []string
	for rec := range rows {
		s := fmt.Sprintf("%d=%d", rec.PK(), rec.Get(1))
		if rec.Schema().NumColumns() > 2 {
			s += fmt.Sprintf(",%d", rec.Get(2))
		}
		out = append(out, s)
	}
	if err := errf(); err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return strings.Join(out, " ")
}

// format2Answers is testdata/format2/README.md's table.
const format2Answers = `master: 2=22,5 3=30,5 4=40,5 5=50,5 6=60,5 7=70,5 8=80,88
dev: 1=10 2=22 3=30 4=40 5=50 6=60
idle: 2=22,5 3=30,5 4=40,5 5=50,5 6=60,5 7=70,5 8=80,88
diff: master only [7 8], dev only [1]
master@0: 0 rows
master@1: 3 rows
master@2: 5 rows
master@3: 6 rows
master@4: 5 rows
master@5: 6 rows
master@6: 6 rows
master@7: 7 rows
`

// checkPoints asserts a point lookup of every key agrees with each
// branch head.
func checkPoints(t *testing.T, db *decibel.DB, branches []string, keys []int64) {
	t.Helper()
	for _, b := range branches {
		head := " " + renderRows(t, db.Query("r").On(b)) + " "
		for _, k := range keys {
			got := renderRows(t, db.Query("r").On(b).Where(decibel.Col("id").Eq(k)))
			want := ""
			if i := strings.Index(head, fmt.Sprintf(" %d=", k)); i >= 0 {
				want = strings.Fields(head[i:])[0]
			}
			if got != want {
				t.Fatalf("%s: id = %d finds %q, want %q", b, k, got, want)
			}
		}
	}
}

// TestOpensFormat2Dataset: each format-2 fixture opens and answers as
// its README says, as does a dataset this tree writes with the same
// script; it then takes a schema change, a commit, a branch and a
// compaction pass, and answers the same after a reopen.
func TestOpensFormat2Dataset(t *testing.T) {
	for _, engine := range format2Engines {
		t.Run(engine, func(t *testing.T) {
			fixture := filepath.Join("testdata", "format2", engine)
			fresh := t.TempDir()
			writeFormat2(t, fresh, engine)
			if *writeFixtures {
				if err := os.RemoveAll(fixture); err != nil {
					t.Fatal(err)
				}
				copyTree(t, fresh, fixture)
			}
			db := format2Open(t, fresh, engine)
			if got := answers(t, db); got != format2Answers {
				t.Fatalf("a dataset written by the script answers:\n%s\nwant:\n%s", got, format2Answers)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			dir := t.TempDir()
			copyTree(t, fixture, dir)
			db = format2Open(t, dir, engine)
			if got := answers(t, db); got != format2Answers {
				t.Fatalf("answers:\n%s\nwant:\n%s", got, format2Answers)
			}
			branches := []string{"master", "dev", "idle"}
			keys := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9}
			checkPoints(t, db, branches, keys)

			// A schema change and a row at the wider layout freeze a heap
			// segment on every engine (the fixture's pass left none on
			// tuple-first), giving the pass one to re-encode.
			if _, err := db.Commit("master", func(tx *decibel.Tx) error {
				return tx.AddColumn("r", decibel.Int64Column("x"), decibel.Default(0))
			}); err != nil {
				t.Fatal(err)
			}
			format2Put(t, db, "master", []int64{9, 90, 99, 0})
			if _, err := db.Branch("master", "next"); err != nil {
				t.Fatal(err)
			}
			st, err := db.Compact()
			if err != nil {
				t.Fatal(err)
			}
			if st.SegmentsCompressed == 0 {
				t.Fatalf("the pass compressed nothing: %+v", st)
			}
			want := strings.NewReplacer("8=80,88\ndev", "8=80,88 9=90,99\ndev", "only [7 8]", "only [7 8 9]").
				Replace(format2Answers) + "master@8: 7 rows\nmaster@9: 8 rows\n"
			if got := answers(t, db); got != want {
				t.Fatalf("after a commit and a pass:\n%s\nwant:\n%s", got, want)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db = format2Open(t, dir, engine)
			defer db.Close()
			if got := answers(t, db); got != want {
				t.Fatalf("after a reopen:\n%s\nwant:\n%s", got, want)
			}
			checkPoints(t, db, append(branches, "next"), keys)
		})
	}
}

// TestOpenUsesRecordedEngine: a dataset is opened by the engine its
// catalog records, whatever WithEngine names. Each fixture, opened under
// each engine's name, answers as its README says; after Close it
// reopens and answers the same.
func TestOpenUsesRecordedEngine(t *testing.T) {
	recorded := map[string]string{"tf": "tuple-first", "hy": "hybrid", "vf": "version-first"}
	for _, engine := range format2Engines {
		for _, asked := range decibel.Engines() {
			t.Run(engine+"/as-"+asked, func(t *testing.T) {
				dir := t.TempDir()
				copyTree(t, filepath.Join("testdata", "format2", engine), dir)
				for round := 0; round < 2; round++ {
					db := format2Open(t, dir, asked)
					if got := db.Engine(); got != recorded[engine] {
						t.Fatalf("open %d: engine %q, want %q", round, got, recorded[engine])
					}
					if got := answers(t, db); got != format2Answers {
						t.Fatalf("open %d answers:\n%s\nwant:\n%s", round, got, format2Answers)
					}
					if err := db.Close(); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	}
}

// TestHybridMergesOverCompressedSegments: on the format-2 hybrid
// fixture, whose frozen segments are .dcz files, commits on two
// branches and a merge of one into the other read through those
// segments; a pass then re-encodes the heap segment a branch freezes,
// leaves the .dcz ones alone, and the answers hold across a reopen.
func TestHybridMergesOverCompressedSegments(t *testing.T) {
	dir := t.TempDir()
	copyTree(t, filepath.Join("testdata", "format2", "hy"), dir)
	db := format2Open(t, dir, "hy")
	format2Put(t, db, "idle", []int64{10, 100, 1, 5, 55, 5}, 3)
	format2Put(t, db, "master", []int64{11, 110, 11})
	if _, st, err := db.Merge("master", "idle"); err != nil || st.Conflicts != 0 {
		t.Fatalf("merge: %+v, %v", st, err)
	}
	// Branching freezes master's head, giving the pass a heap segment
	// to re-encode.
	if _, err := db.Branch("master", "next"); err != nil {
		t.Fatal(err)
	}
	dczBefore, err := filepath.Glob(filepath.Join(dir, "tables", "r", "*.dcz"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dczBefore) == 0 {
		t.Fatal("the fixture holds no .dcz segment")
	}
	st, err := db.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if st.SegmentsCompressed == 0 {
		t.Fatalf("the pass compressed nothing: %+v", st)
	}
	for _, p := range dczBefore {
		src := filepath.Join("testdata", "format2", "hy", "tables", "r", filepath.Base(p))
		if !bytes.Equal(readFile(t, p), readFile(t, src)) {
			t.Errorf("the pass rewrote %s", filepath.Base(p))
		}
	}

	const want = `master: 10=100,1 11=110,11 2=22,5 4=40,5 5=55,5 6=60,5 7=70,5 8=80,88
dev: 1=10 2=22 3=30 4=40 5=50 6=60
idle: 10=100,1 2=22,5 4=40,5 5=55,5 6=60,5 7=70,5 8=80,88
next: 10=100,1 11=110,11 2=22,5 4=40,5 5=55,5 6=60,5 7=70,5 8=80,88
`
	branches := []string{"master", "dev", "idle", "next"}
	heads := func() string {
		var sb strings.Builder
		for _, b := range branches {
			fmt.Fprintf(&sb, "%s: %s\n", b, renderRows(t, db.Query("r").On(b)))
		}
		return sb.String()
	}
	keys := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	if got := heads(); got != want {
		t.Fatalf("after commits, a merge and a pass:\n%s\nwant:\n%s", got, want)
	}
	checkPoints(t, db, branches, keys)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = format2Open(t, dir, "hy")
	defer db.Close()
	if got := heads(); got != want {
		t.Fatalf("after a reopen:\n%s\nwant:\n%s", got, want)
	}
	checkPoints(t, db, branches, keys)
}

// readFile returns the contents of path.
func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCatalogCarriesFormat: a new dataset's catalog.json, and the one a
// schema change rewrites, hold format 2 and the dataset's engine.
func TestCatalogCarriesFormat(t *testing.T) {
	dir := t.TempDir()
	db, err := decibel.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	check := func(when string) {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, "catalog.json"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(data, []byte(`"format":2,"engine":"hybrid"`)) {
			t.Fatalf("catalog.json %s: %s, want \"format\":2,\"engine\":\"hybrid\"", when, data)
		}
	}
	if _, err := db.CreateTable("r", decibel.NewSchema().Int64("id").Int64("v").MustBuild()); err != nil {
		t.Fatal(err)
	}
	check("after CreateTable")
	if _, _, err := db.Init("init"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Commit("master", func(tx *decibel.Tx) error {
		return tx.AddColumn("r", decibel.Int64Column("w"), decibel.Default(5))
	}); err != nil {
		t.Fatal(err)
	}
	check("after a schema change")
}

// TestReopenKeepsPageSize: the heap files are laid out in the page
// size a dataset was created with, which its catalog records; a reopen
// that asks for another page size still reads them in the recorded one.
func TestReopenKeepsPageSize(t *testing.T) {
	for _, engine := range format2Engines {
		t.Run(engine, func(t *testing.T) {
			dir := t.TempDir()
			db, err := decibel.Open(dir, decibel.WithEngine(engine), decibel.WithPageSize(512))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := db.CreateTable("r", decibel.NewSchema().Int64("id").Int64("v").MustBuild()); err != nil {
				t.Fatal(err)
			}
			if _, _, err := db.Init("init"); err != nil {
				t.Fatal(err)
			}
			var kv []int64
			for pk := int64(1); pk <= 100; pk++ {
				kv = append(kv, pk, pk*10)
			}
			format2Put(t, db, "master", kv)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(filepath.Join(dir, "catalog.json"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(data, []byte(`"pageSize":512`)) {
				t.Fatalf("catalog.json: %s, want \"pageSize\":512", data)
			}
			db, err = decibel.Open(dir, decibel.WithEngine(engine))
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			n, err := db.Query("r").On("master").Count()
			if err != nil {
				t.Fatal(err)
			}
			sum, err := db.Query("r").On("master").Sum("v")
			if err != nil {
				t.Fatal(err)
			}
			if n != 100 || sum != 50500 {
				t.Fatalf("reopened at the default page size: %d rows summing to %v, want 100 summing to 50500", n, sum)
			}
		})
	}
}

// treeHashes hashes every file under dir by its slash path.
func treeHashes(t *testing.T, dir string) map[string][32]byte {
	t.Helper()
	out := make(map[string][32]byte)
	if err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, p)
		out[filepath.ToSlash(rel)] = sha256.Sum256(data)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// editCatalog rewrites dir's catalog.json through edit.
func editCatalog(t *testing.T, path string, edit func(map[string]any)) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	edit(doc)
	if data, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestOpenRefusesOtherFormats: a dataset whose catalog.json carries no
// format version, format 1 (the format before engines were recorded)
// or format 3, fails Open with ErrDatasetFormat on every engine and
// keeps every file byte for byte. Each copy has a torn record at the
// end of its graph log, which an Open that got as far as the graph
// would cut off (the control case, format 2, shows it does).
func TestOpenRefusesOtherFormats(t *testing.T) {
	for _, engine := range format2Engines {
		for _, tc := range []struct {
			name string
			edit func(map[string]any)
		}{
			{"no format", func(doc map[string]any) { delete(doc, "format") }},
			{"format 1", func(doc map[string]any) { doc["format"] = 1 }},
			{"format 3", func(doc map[string]any) { doc["format"] = 3 }},
			{"format 2", nil},
		} {
			t.Run(engine+"/"+tc.name, func(t *testing.T) {
				dir := t.TempDir()
				copyTree(t, filepath.Join("testdata", "format2", engine), dir)
				log, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_WRONLY|os.O_APPEND, 0)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := log.Write([]byte{0x01, 0x05, 0x7f}); err != nil {
					t.Fatal(err)
				}
				log.Close()
				if tc.edit != nil {
					editCatalog(t, filepath.Join(dir, "catalog.json"), tc.edit)
				}
				before := treeHashes(t, dir)
				db, err := decibel.Open(dir, decibel.WithEngine(engine), decibel.WithPageSize(512))
				after := treeHashes(t, dir)
				if tc.edit == nil {
					if err != nil {
						t.Fatal(err)
					}
					db.Close()
					if after["wal.log"] == before["wal.log"] {
						t.Fatal("the control open left the torn graph-log record in place")
					}
					return
				}
				if err == nil {
					db.Close()
					t.Fatal("Open succeeded")
				}
				if !errors.Is(err, decibel.ErrDatasetFormat) {
					t.Fatalf("Open: %v, want ErrDatasetFormat", err)
				}
				for name, h := range before {
					if after[name] != h {
						t.Errorf("the refused dataset's %s changed on disk", name)
					}
				}
				for name := range after {
					if _, ok := before[name]; !ok {
						t.Errorf("the refused open wrote %s", name)
					}
				}
			})
		}
	}
}

// TestHybridRefusesMisplacedSegmentIDs: a hybrid segments.json lists
// segment i at position i; one whose ids differ from their positions is
// a corrupt catalog.
func TestHybridRefusesMisplacedSegmentIDs(t *testing.T) {
	dir := t.TempDir()
	copyTree(t, filepath.Join("testdata", "format2", "hy"), dir)
	path := filepath.Join(dir, "tables", "r", "segments.json")
	editCatalog(t, path, func(doc map[string]any) {
		segs := doc["segments"].([]any)
		segs[0], segs[1] = segs[1], segs[0]
	})
	db, err := decibel.Open(dir, decibel.WithEngine("hy"), decibel.WithPageSize(512))
	if err == nil {
		db.Close()
		t.Fatal("a catalog listing segment 1 at position 0 opened")
	}
	if !strings.Contains(err.Error(), "corrupt catalog") {
		t.Fatalf("Open: %v, want a corrupt-catalog error", err)
	}
}
