// Science pattern (Section 1.1): a data science team pins its analysis
// to a snapshot of an evolving dataset. The mainline keeps ingesting;
// each analyst branches from a commit, cleans and features their copy,
// and can always return to (or re-run against) the exact version the
// analysis started from — without duplicating the data.
package main

import (
	"fmt"
	"log"
	"os"

	"decibel"
)

func main() {
	dir, err := os.MkdirTemp("", "decibel-science-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// The science pattern reads single branches end-to-end — the
	// version-first engine's sweet spot.
	db, err := decibel.Open(dir, decibel.WithEngine("version-first"))
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// events(id, user, score)
	schema := decibel.NewSchema().Int64("id").Int64("user").Int64("score").MustBuild()
	if _, err := db.CreateTable("events", schema); err != nil {
		log.Fatal(err)
	}
	if _, _, err := db.Init("event stream"); err != nil {
		log.Fatal(err)
	}

	ingest := func(message string, from, to int64) *decibel.Commit {
		c, err := db.Commit("master", func(tx *decibel.Tx) error {
			tx.SetMessage(message)
			for pk := from; pk <= to; pk++ {
				rec := decibel.NewRecord(schema)
				rec.SetPK(pk)
				rec.Set(1, pk%7)     // user
				rec.Set(2, pk*3%100) // raw score
				if err := tx.Insert("events", rec); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			log.Fatal(err)
		}
		return c
	}

	// Day 1 of ingestion, committed as the analysis snapshot.
	snapshot := ingest("day-1 snapshot", 1, 1000)

	// The analyst branches from the snapshot; ingestion continues on
	// mainline concurrently. Branching from a historical commit (rather
	// than a head) goes through the ID-based core API.
	if _, err := db.Database.Branch("score-cleaning", snapshot.ID); err != nil {
		log.Fatal(err)
	}
	ingest("day-2 data", 1001, 2000)

	// Cleaning on the analysis branch: cap outlier scores at 50, found
	// and fixed inside one transaction on the branch head.
	var outliers []int64
	if _, err := db.Commit("score-cleaning", func(tx *decibel.Tx) error {
		tx.SetMessage("capped outliers")
		rows, scanErr := tx.Rows("events")
		for r := range rows {
			if r.Get(2) > 50 {
				outliers = append(outliers, r.PK())
			}
		}
		if err := scanErr(); err != nil {
			return err
		}
		for _, pk := range outliers {
			rec := decibel.NewRecord(schema)
			rec.SetPK(pk)
			rec.Set(1, pk%7)
			rec.Set(2, 50)
			if err := tx.Insert("events", rec); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		log.Fatal(err)
	}

	// The analysis branch still has exactly the day-1 population, with
	// the cleaning applied; mainline has moved on.
	nAnalysis, _ := db.Query("events").On("score-cleaning").Count()
	nMainline, _ := db.Query("events").On("master").Count()
	stillHigh, _ := db.Query("events").On("score-cleaning").Where(decibel.Col("score").Gt(50)).Count()
	fmt.Printf("analysis branch: %d events (day-1 only), capped %d outliers, scores>50 remaining: %d\n",
		nAnalysis, len(outliers), stillHigh)
	fmt.Printf("mainline:        %d events (ingestion kept going)\n", nMainline)

	// A second experiment forks from the same snapshot to try a
	// different strategy — cheap, because branches share storage.
	if _, err := db.Database.Branch("score-dropping", snapshot.ID); err != nil {
		log.Fatal(err)
	}
	if _, err := db.Commit("score-dropping", func(tx *decibel.Tx) error {
		tx.SetMessage("dropped outliers instead")
		for _, pk := range outliers {
			if err := tx.Delete("events", pk); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		log.Fatal(err)
	}
	nAlt, _ := db.Query("events").On("score-dropping").Count()
	fmt.Printf("alt strategy:    %d events after dropping outliers\n", nAlt)

	// Reproducibility: re-read the exact day-1 snapshot at any time.
	n, err := db.Query("events").On("master").AtCommit(snapshot.ID).Count()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("day-1 snapshot:  %d events, immutable\n", n)
}
