// Curation pattern (Section 1.1): a team collaboratively maintains a
// canonical dataset. Fixes are developed on branches, validated, and
// merged back; conflicting edits are detected at field granularity and
// resolved by precedence.
package main

import (
	"fmt"
	"log"
	"os"

	"decibel"
)

func main() {
	dir, err := os.MkdirTemp("", "decibel-curation-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	db, err := decibel.Open(dir, decibel.WithEngine("hybrid"))
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// pois(id, lat, lon, category) — an OpenStreetMap-style catalog.
	schema := decibel.NewSchema().Int64("id").Int64("lat").Int64("lon").Int64("category").MustBuild()
	if _, err := db.CreateTable("pois", schema); err != nil {
		log.Fatal(err)
	}
	if _, _, err := db.Init("canonical map"); err != nil {
		log.Fatal(err)
	}

	add := func(pk, lat, lon, cat int64) *decibel.Record {
		rec := decibel.NewRecord(schema)
		rec.SetPK(pk)
		rec.Set(1, lat)
		rec.Set(2, lon)
		rec.Set(3, cat)
		return rec
	}
	// commit runs one branch-head transaction and dies on failure.
	commit := func(branch, message string, fn func(tx *decibel.Tx) error) {
		if _, err := db.Commit(branch, func(tx *decibel.Tx) error {
			tx.SetMessage(message)
			return fn(tx)
		}); err != nil {
			log.Fatal(err)
		}
	}

	// Seed the canonical catalog.
	commit("master", "seed catalog", func(tx *decibel.Tx) error {
		for pk := int64(1); pk <= 100; pk++ {
			if err := tx.Insert("pois", add(pk, pk*10, pk*20, pk%5)); err != nil {
				return err
			}
		}
		return nil
	})

	// Curator A fixes geometry in one region on a dev branch.
	if _, err := db.Branch("master", "fix-geometry"); err != nil {
		log.Fatal(err)
	}
	commit("fix-geometry", "geometry pass", func(tx *decibel.Tx) error {
		for pk := int64(1); pk <= 10; pk++ {
			if err := tx.Insert("pois", add(pk, pk*10+1, pk*20+1, pk%5)); err != nil { // nudge lat/lon
				return err
			}
		}
		return nil
	})

	// Curator B re-categorizes some of the same POIs on another branch.
	if _, err := db.Branch("master", "fix-categories"); err != nil {
		log.Fatal(err)
	}
	commit("fix-categories", "category pass", func(tx *decibel.Tx) error {
		for pk := int64(5); pk <= 15; pk++ {
			if err := tx.Insert("pois", add(pk, pk*10, pk*20, 4)); err != nil { // category only
				return err
			}
		}
		return nil
	})

	// Meanwhile production edits the canonical version too: POI 7 moves.
	commit("master", "hotfix POI 7", func(tx *decibel.Tx) error {
		return tx.Insert("pois", add(7, 777, 7777, 7%5))
	})

	// Merge the geometry pass. POI 7 was moved both in master and in the
	// branch: a field-level conflict on lat/lon, resolved in favor of
	// the canonical version (precedence first).
	_, st1, err := db.Merge("master", "fix-geometry", decibel.WithMergeMessage("merge geometry pass"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("merge fix-geometry:  %d records from branch, %d conflicts (canonical wins)\n", st1.ChangedB, st1.Conflicts)

	// Merge the category pass. Its edits touch the *category* field of
	// POIs whose *geometry* just changed — disjoint fields, so they
	// auto-merge without conflicts.
	_, st2, err := db.Merge("master", "fix-categories", decibel.WithMergeMessage("merge category pass"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("merge fix-categories: %d records from branch, %d conflicts\n", st2.ChangedB, st2.Conflicts)

	// Verify the merged canonical state: POI 7 keeps the hotfix
	// position, POI 5 has both the geometry nudge and category 4.
	rows, scanErr := db.Query("pois").On("master").
		Where(decibel.Col("id").Ge(5).And(decibel.Col("id").Le(7))).
		OrderBy("id", false).
		Rows()
	for rec := range rows {
		switch rec.PK() {
		case 5:
			fmt.Printf("POI 5: lat=%d lon=%d category=%d (geometry + category merged)\n",
				rec.Get(1), rec.Get(2), rec.Get(3))
		case 7:
			fmt.Printf("POI 7: lat=%d lon=%d category=%d (hotfix preserved)\n",
				rec.Get(1), rec.Get(2), rec.Get(3))
		}
	}
	if err := scanErr(); err != nil {
		log.Fatal(err)
	}
}
