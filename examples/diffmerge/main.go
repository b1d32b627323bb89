// Versioned queries: the four benchmark query classes of Table 1 run
// against the same dataset on all three storage engines through the
// fluent query builder, demonstrating that the engines are
// interchangeable behind the facade and that typed predicates push
// down into each one.
package main

import (
	"fmt"
	"log"
	"os"

	"decibel"
)

func main() {
	for _, engine := range decibel.Engines() {
		fmt.Printf("=== %s ===\n", engine)
		run(engine)
	}
}

func run(engine string) {
	dir, err := os.MkdirTemp("", "decibel-queries-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	db, err := decibel.Open(dir, decibel.WithEngine(engine))
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	schema := decibel.NewSchema().
		Int64("id").
		Int64("name"). // name code
		Int64("age").
		MustBuild()
	if _, err := db.CreateTable("people", schema); err != nil {
		log.Fatal(err)
	}
	if _, _, err := db.Init("init"); err != nil {
		log.Fatal(err)
	}

	const sam = 42 // "Sam"
	mk := func(pk, name, age int64) *decibel.Record {
		rec := decibel.NewRecord(schema)
		rec.SetPK(pk)
		rec.Set(1, name)
		rec.Set(2, age)
		return rec
	}

	// v01 state on master, written as one name-based transaction.
	if _, err := db.Commit("master", func(tx *decibel.Tx) error {
		tx.SetMessage("v01")
		for _, rec := range []*decibel.Record{mk(1, sam, 30), mk(2, 7, 25), mk(3, sam, 41)} {
			if err := tx.Insert("people", rec); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		log.Fatal(err)
	}

	// v02 lives on a branch: Sam #1 ages, person 2 leaves, 4 arrives.
	if _, err := db.Branch("master", "v02"); err != nil {
		log.Fatal(err)
	}
	if _, err := db.Commit("v02", func(tx *decibel.Tx) error {
		tx.SetMessage("v02")
		if err := tx.Insert("people", mk(1, sam, 31)); err != nil {
			return err
		}
		if err := tx.Delete("people", 2); err != nil {
			return err
		}
		return tx.Insert("people", mk(4, 9, 19))
	}); err != nil {
		log.Fatal(err)
	}

	// Query 1: single-version scan.
	n, err := db.Query("people").On("master").Count()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Q1  SELECT * WHERE Version='v01'                -> %d rows\n", n)

	// Query 2: positive diff v01 minus v02.
	var diffPKs []int64
	diff, diffErr := db.Query("people").Diff("master", "v02")
	for rec := range diff {
		diffPKs = append(diffPKs, rec.PK())
	}
	if err := diffErr(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Q2  records in v01 but not v02                  -> pks %v\n", diffPKs)

	// Query 3: join v01 x v02 where name = 'Sam'.
	pairs, joinErr := db.Query("people").On("master").
		Where(decibel.Col("name").Eq(sam)).
		JoinOn(db.Query("people").On("v02"), decibel.On("id", "id")).
		Tuples()
	for pair := range pairs {
		left, right := pair[0], pair[1]
		fmt.Printf("Q3  join row: pk=%d age %d -> %d\n", left.PK(), left.Get(2), right.Get(2))
	}
	if err := joinErr(); err != nil {
		log.Fatal(err)
	}

	// Query 4: all branch heads with membership, one engine pass.
	fmt.Print("Q4  HEAD() scan: ")
	rows := 0
	annotated, headErr := db.Query("people").Heads().Annotated()
	for range annotated {
		rows++
	}
	if err := headErr(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d distinct records across %d heads\n\n", rows, len(db.Graph().Heads()))
}
