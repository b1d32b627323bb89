package record

import (
	"bytes"
	"testing"
)

func baseSchema(t *testing.T) *Schema {
	t.Helper()
	return MustSchema(
		Column{Name: "id", Type: Int64},
		Column{Name: "qty", Type: Int32},
	)
}

func TestHistoryAddColumnVisibility(t *testing.T) {
	h := NewHistory(baseSchema(t))
	if err := h.AddColumn(1, Column{Name: "price", Type: Float64}, 9.5); err != nil {
		t.Fatal(err)
	}
	if err := h.AddColumn(2, Column{Name: "sku", Type: Bytes, Size: 8}, "none"); err != nil {
		t.Fatal(err)
	}
	if got := h.Epoch(); got != 2 {
		t.Fatalf("epoch = %d, want 2", got)
	}
	if n := h.VisibleAt(0).NumColumns(); n != 2 {
		t.Fatalf("visible@0 has %d columns, want 2", n)
	}
	if n := h.VisibleAt(1).NumColumns(); n != 3 {
		t.Fatalf("visible@1 has %d columns, want 3", n)
	}
	if n := h.VisibleLatest().NumColumns(); n != 4 {
		t.Fatalf("visible latest has %d columns, want 4", n)
	}
	// Epochs beyond the newest change clamp.
	if h.VisibleAt(99) != h.VisibleLatest() {
		t.Fatal("visible schema beyond the last change should clamp to latest")
	}
	// Pointer stability: same inputs, same schema.
	if h.VisibleAt(1) != h.VisibleAt(1) {
		t.Fatal("VisibleAt is not pointer-stable")
	}
	if h.NumPhysAt(0) != 2 || h.NumPhysAt(1) != 3 || h.NumPhysAt(2) != 4 {
		t.Fatalf("NumPhysAt = %d/%d/%d, want 2/3/4", h.NumPhysAt(0), h.NumPhysAt(1), h.NumPhysAt(2))
	}
}

func TestHistoryAddColumnValidation(t *testing.T) {
	h := NewHistory(baseSchema(t))
	if err := h.AddColumn(1, Column{Name: "qty", Type: Int32}, nil); err == nil {
		t.Fatal("duplicate column name accepted")
	}
	if err := h.AddColumn(0, Column{Name: "x", Type: Int32}, nil); err == nil {
		t.Fatal("stale epoch accepted")
	}
	if err := h.AddColumn(1, Column{Name: "x", Type: Int32}, "not-an-int"); err == nil {
		t.Fatal("ill-typed default accepted")
	}
	if err := h.AddColumn(1, Column{Name: "x", Type: Bytes, Size: 4}, "toolong"); err == nil {
		t.Fatal("oversized bytes default accepted")
	}
}

func TestHistoryConvFillsDefaults(t *testing.T) {
	h := NewHistory(baseSchema(t))
	old := New(h.VisibleAt(0))
	old.SetPK(7)
	old.Set(1, 42)

	if err := h.AddColumn(1, Column{Name: "price", Type: Float64}, 2.5); err != nil {
		t.Fatal(err)
	}
	cv, err := h.Conv(2, 1) // stored with 2 physical columns, read at epoch 1
	if err != nil {
		t.Fatal(err)
	}
	if cv.Identity() {
		t.Fatal("conversion across an added column cannot be identity")
	}
	out := cv.Convert(old.Bytes(), cv.NewScratch())
	rec, err := FromBytes(cv.Out(), out)
	if err != nil {
		t.Fatal(err)
	}
	if rec.PK() != 7 || rec.Get(1) != 42 {
		t.Fatalf("shared prefix lost: pk=%d qty=%d", rec.PK(), rec.Get(1))
	}
	if got := rec.GetFloat64(2); got != 2.5 {
		t.Fatalf("default not filled: price=%g, want 2.5", got)
	}

	// Reading the same buffer at epoch 0 is the identity conversion.
	cv0, err := h.Conv(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !cv0.Identity() {
		t.Fatal("same-version read should be identity")
	}
}

func TestHistoryDropColumnLogical(t *testing.T) {
	h := NewHistory(baseSchema(t))
	if err := h.AddColumn(1, Column{Name: "price", Type: Float64}, 1.0); err != nil {
		t.Fatal(err)
	}
	if err := h.DropColumn(2, "qty"); err != nil {
		t.Fatal(err)
	}
	if err := h.DropColumn(3, "id"); err == nil {
		t.Fatal("dropping the primary key accepted")
	}
	vis := h.VisibleLatest()
	if vis.ColumnIndex("qty") >= 0 {
		t.Fatal("dropped column still visible")
	}
	if h.VisibleAt(1).ColumnIndex("qty") < 0 {
		t.Fatal("historical read lost the dropped column")
	}
	// Physical layout keeps the column.
	if h.PhysCols() != 3 {
		t.Fatalf("physical columns = %d, want 3", h.PhysCols())
	}
	// A v0 buffer read at epoch 2: qty projected away, price defaulted.
	old := New(h.VisibleAt(0))
	old.SetPK(1)
	old.Set(1, 9)
	cv, err := h.Conv(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := FromBytes(cv.Out(), cv.Convert(old.Bytes(), cv.NewScratch()))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Schema().ColumnIndex("qty") >= 0 {
		t.Fatal("dropped column leaked into converted record")
	}
	if rec.GetFloat64(rec.Schema().ColumnIndex("price")) != 1.0 {
		t.Fatal("default not filled after drop")
	}
	// The dropped name stays reserved.
	if err := h.AddColumn(3, Column{Name: "qty", Type: Int32}, nil); err == nil {
		t.Fatal("re-adding a dropped column name accepted")
	}
}

func TestHistoryStorageBytes(t *testing.T) {
	h := NewHistory(baseSchema(t))
	oldVis := h.VisibleAt(0)
	if err := h.AddColumn(1, Column{Name: "price", Type: Float64}, 3.25); err != nil {
		t.Fatal(err)
	}
	// A record built under the old visible schema widens with defaults.
	rec := New(oldVis)
	rec.SetPK(5)
	rec.Set(1, 11)
	phys, err := h.PhysByCount(h.PhysCols())
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, phys.RecordSize())
	buf, err := h.StorageBytes(rec, 3, dst)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := FromBytes(phys, buf)
	if err != nil {
		t.Fatal(err)
	}
	if wide.PK() != 5 || wide.Get(1) != 11 || wide.GetFloat64(2) != 3.25 {
		t.Fatalf("widened record wrong: %v", wide)
	}
	// A record already at the physical layout passes through untouched.
	cur := New(phys)
	cur.SetPK(6)
	got, err := h.StorageBytes(cur, 3, dst)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, cur.Bytes()) {
		t.Fatal("identity storage conversion copied")
	}
}

func TestHistoryRevert(t *testing.T) {
	h := NewHistory(baseSchema(t))
	if err := h.AddColumn(1, Column{Name: "price", Type: Float64}, nil); err != nil {
		t.Fatal(err)
	}
	if err := h.DropColumn(2, "qty"); err != nil {
		t.Fatal(err)
	}
	h.Revert(1) // the drop at epoch 2 never committed
	if h.Epoch() != 1 {
		t.Fatalf("epoch after revert = %d, want 1", h.Epoch())
	}
	if h.VisibleLatest().ColumnIndex("qty") < 0 {
		t.Fatal("reverted drop still hides the column")
	}
	h.Revert(0)
	if h.PhysCols() != 2 || h.Epoch() != 0 {
		t.Fatalf("full revert left %d cols at epoch %d", h.PhysCols(), h.Epoch())
	}
}

func TestHistoryRestoreRoundTrip(t *testing.T) {
	h := NewHistory(baseSchema(t))
	if err := h.AddColumn(1, Column{Name: "price", Type: Float64}, 7.5); err != nil {
		t.Fatal(err)
	}
	if err := h.DropColumn(2, "qty"); err != nil {
		t.Fatal(err)
	}
	r, err := RestoreHistory(h.Columns())
	if err != nil {
		t.Fatal(err)
	}
	if r.Epoch() != h.Epoch() || r.PhysCols() != h.PhysCols() {
		t.Fatalf("restored epoch/cols %d/%d, want %d/%d", r.Epoch(), r.PhysCols(), h.Epoch(), h.PhysCols())
	}
	if !r.VisibleLatest().Equal(h.VisibleLatest()) {
		t.Fatal("restored visible schema differs")
	}
	for e := 0; e <= h.Epoch(); e++ {
		if !r.VisibleAt(e).Equal(h.VisibleAt(e)) {
			t.Fatalf("restored visible schema differs at epoch %d", e)
		}
	}
}

func TestHistoryCheckWritable(t *testing.T) {
	h := NewHistory(baseSchema(t))
	v0 := h.VisibleAt(0)
	if err := h.AddColumn(1, Column{Name: "price", Type: Float64}, nil); err != nil {
		t.Fatal(err)
	}
	v1 := h.VisibleLatest()
	if err := h.CheckWritable(v0, 1); err != nil {
		t.Fatalf("old-schema write to new epoch rejected: %v", err)
	}
	if err := h.CheckWritable(v1, 0); err == nil {
		t.Fatal("new-column write to an old epoch accepted")
	}
	if err := h.CheckWritable(v1, 1); err != nil {
		t.Fatalf("current write rejected: %v", err)
	}
}
