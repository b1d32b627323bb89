package core

import (
	"expvar"

	"decibel/internal/store"
)

// Process-wide compaction counters: the server's smoke test asserts
// they move when a compaction is triggered mid-load.
var (
	compactions     = expvar.NewInt("decibel.compactions")
	bytesReclaimed  = expvar.NewInt("decibel.bytes_reclaimed")
	compressedPages = expvar.NewInt("decibel.compressed_pages")
)

// Compact runs one compaction pass over every relation
// (Engine.CompactSegments), returning the aggregated stats. A pass
// error stops at the failing table and returns it with the stats
// accumulated so far. Every pass feeds the process-wide expvar counters
// with what it installed, a failed one included: a table whose catalog
// swap committed before the error has reclaimed its bytes.
func (db *Database) Compact() (store.CompactStats, error) {
	var agg store.CompactStats
	if err := db.beginOp(); err != nil {
		return agg, err
	}
	defer db.endOp()
	var err error
	for _, t := range db.Tables() {
		var st store.CompactStats
		st, err = t.engine.CompactSegments()
		agg.Add(st)
		if err != nil {
			break
		}
	}
	compactions.Add(1)
	bytesReclaimed.Add(agg.BytesReclaimed)
	compressedPages.Add(agg.PagesCompressed)
	return agg, err
}
