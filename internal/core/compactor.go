package core

import (
	"time"

	"decibel/internal/compact"
)

// Compact runs one compaction pass over every relation
// (Engine.CompactSegments), returning the aggregated stats. With
// compaction off it is a no-op; a pass error returns the stats
// accumulated so far. Completed passes that changed anything feed the
// process-wide expvar counters.
func (db *Database) Compact() (compact.Stats, error) {
	var agg compact.Stats
	if db.opt.Compaction.Mode == compact.ModeOff {
		return agg, nil
	}
	if err := db.beginOp(); err != nil {
		return agg, err
	}
	defer db.endOp()
	for _, t := range db.Tables() {
		st, err := t.engine.CompactSegments(db.opt.Compaction)
		agg.Add(st)
		if err != nil {
			return agg, err
		}
	}
	compact.CountRun(agg)
	return agg, nil
}

// startCompactor launches the auto-mode background loop: one Compact
// pass per interval tick until Close. Pass errors are swallowed — the
// loop is best-effort maintenance; the next tick retries — except that
// a closed database ends the loop via the quit channel.
func (db *Database) startCompactor() {
	interval := db.opt.Compaction.Defaults().Interval
	db.compactQuit = make(chan struct{})
	db.compactWG.Add(1)
	go func() {
		defer db.compactWG.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-db.compactQuit:
				return
			case <-tick.C:
				db.Compact()
			}
		}
	}()
}
