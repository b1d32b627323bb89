package query

// Pool-mode sinks for the plan's row shapes. Every terminal runs its
// scan through Compiled.run; when core's driver fans the frozen units
// out on the scan pool it asks for one sink per unit, and runRows
// builds them for the row shapes (the fold in group.go builds its own).
//
// Each unit buffers its kept rows (records cloned on the worker) and
// the buffers flush in unit order, reproducing the sequential stream
// exactly. An unordered plan with a Limit stops each unit after
// `limit` kept rows, which is all the global cut can take from it. An
// ordered plan buffers each unit whole: a unit's first rows are not its
// best (OrderBy+Limit reads take the ordered visit instead).

import (
	"context"

	"decibel/internal/core"
	"decibel/internal/record"
)

// bufRow is one record a scan unit retained: cloned, with its
// annotation (diff side, cloned membership).
type bufRow struct {
	rec *record.Record
	aux core.UnitAux
}

// runRows runs a row-emitting shape (branch, commit, multi or diff)
// under spec, one execution's clone of the compiled prototype.
// keep filters on the unit annotation before a row counts — the diff
// terminal's side selection; a unit's Limit counts only kept rows.
// In pool mode each unit buffers clones of its kept rows and replays
// them through emit at flush with their annotation: the membership of
// the multi shape, the side of the symmetric diff.
func (c *Compiled) runRows(ctx context.Context, req core.ScanRequest, spec *core.ScanSpec, keep func(core.UnitAux) bool, emit core.UnitFunc) error {
	fn := emit
	if keep != nil {
		fn = func(rec *record.Record, aux core.UnitAux) bool { return !keep(aux) || emit(rec, aux) }
	}
	limit := 0
	if !c.Ordered() {
		limit = c.plan.Limit
	}
	return c.run(ctx, req, spec, fn, func(int, int) core.UnitSink {
		var rows []bufRow
		return core.UnitSink{
			Fn: func(rec *record.Record, aux core.UnitAux) bool {
				if keep != nil && !keep(aux) {
					return true
				}
				row := bufRow{rec: rec.Clone(), aux: aux}
				if aux.Member != nil {
					row.aux.Member = aux.Member.Clone()
				}
				rows = append(rows, row)
				return limit <= 0 || len(rows) < limit
			},
			// The ctx guard keeps the flush phase (the only part that
			// outlives the workers) stopping within one record of
			// cancellation; the driver then surfaces ctx.Err().
			Flush: func() bool {
				for _, row := range rows {
					if ctx.Err() != nil || !emit(row.rec, row.aux) {
						return false
					}
				}
				return true
			},
		}
	})
}
