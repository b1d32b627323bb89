package record

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	return MustSchema(
		Column{Name: "id", Type: Int64},
		Column{Name: "a", Type: Int32},
		Column{Name: "b", Type: Int32},
		Column{Name: "c", Type: Int64},
	)
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema(); err == nil {
		t.Fatal("empty schema accepted")
	}
	if _, err := NewSchema(Column{Name: "id", Type: Int32}); err == nil {
		t.Fatal("non-int64 primary key accepted")
	}
	if _, err := NewSchema(Column{Name: "id", Type: Int64}, Column{Name: "id", Type: Int32}); err == nil {
		t.Fatal("duplicate column name accepted")
	}
	if _, err := NewSchema(Column{Name: "id", Type: Int64}, Column{Name: "", Type: Int32}); err == nil {
		t.Fatal("empty column name accepted")
	}
}

func TestSchemaLayout(t *testing.T) {
	s := testSchema(t)
	if got, want := s.RecordSize(), HeaderSize+8+4+4+8; got != want {
		t.Fatalf("record size = %d, want %d", got, want)
	}
	if s.NumColumns() != 4 {
		t.Fatalf("num columns = %d", s.NumColumns())
	}
	if s.ColumnIndex("b") != 2 || s.ColumnIndex("zz") != -1 {
		t.Fatal("ColumnIndex wrong")
	}
	if s.Column(3).Type != Int64 {
		t.Fatal("column type wrong")
	}
}

func TestBenchmarkSchemaMatchesPaper(t *testing.T) {
	s := Benchmark(1024)
	// Paper: 1 KB records, 4-byte columns, single integer primary key.
	if s.RecordSize() > 1024 || s.RecordSize() < 1024-4 {
		t.Fatalf("benchmark record size = %d, want ~1024", s.RecordSize())
	}
	if got := s.NumColumns(); got < 250 {
		t.Fatalf("benchmark columns = %d, want >= 250", got)
	}
}

func TestRecordGetSet(t *testing.T) {
	s := testSchema(t)
	r := New(s)
	r.SetPK(42)
	r.Set(1, -7)
	r.Set(2, 1<<30)
	r.Set(3, -1<<40)
	if r.PK() != 42 || r.Get(1) != -7 || r.Get(2) != 1<<30 || r.Get(3) != -1<<40 {
		t.Fatalf("round trip values wrong: %v", r)
	}
	// Int32 truncation is defined behaviour.
	r.Set(1, 1<<33|5)
	if r.Get(1) != 5 {
		t.Fatalf("int32 truncation: got %d", r.Get(1))
	}
}

func TestRecordTombstone(t *testing.T) {
	s := testSchema(t)
	r := New(s)
	if r.Tombstone() {
		t.Fatal("fresh record is tombstone")
	}
	r.SetTombstone(true)
	if !r.Tombstone() {
		t.Fatal("tombstone not set")
	}
	r.SetTombstone(false)
	if r.Tombstone() {
		t.Fatal("tombstone not cleared")
	}
}

func TestRecordBytesRoundTrip(t *testing.T) {
	s := testSchema(t)
	r := New(s)
	r.SetPK(9)
	r.Set(2, 77)
	r.SetTombstone(true)
	got, err := FromBytes(s, append([]byte(nil), r.Bytes()...))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(r) {
		t.Fatal("FromBytes round trip mismatch")
	}
	if _, err := FromBytes(s, make([]byte, 3)); err == nil {
		t.Fatal("short buffer accepted")
	}
}

func TestRecordCloneIndependence(t *testing.T) {
	s := testSchema(t)
	r := New(s)
	r.SetPK(1)
	c := r.Clone()
	c.Set(1, 99)
	if r.Get(1) == 99 {
		t.Fatal("clone aliases original")
	}
}

func TestDiffFields(t *testing.T) {
	s := testSchema(t)
	a := New(s)
	b := New(s)
	a.SetPK(1)
	b.SetPK(1)
	if got := DiffFields(a, b); len(got) != 0 {
		t.Fatalf("identical records differ: %v", got)
	}
	b.Set(1, 5)
	b.Set(3, 6)
	if got := DiffFields(a, b); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("diff fields = %v", got)
	}
}

func mk(t *testing.T, s *Schema, pk int64, vals ...int64) *Record {
	t.Helper()
	r := New(s)
	r.SetPK(pk)
	for i, v := range vals {
		r.Set(i+1, v)
	}
	return r
}

func TestMerge3NonOverlappingAutoMerge(t *testing.T) {
	s := testSchema(t)
	base := mk(t, s, 1, 10, 20, 30)
	a := mk(t, s, 1, 11, 20, 30)  // changed col1
	b2 := mk(t, s, 1, 10, 20, 33) // changed col3
	res := Merge3(base, a, b2, true)
	if res.Conflict || res.Deleted {
		t.Fatalf("unexpected conflict/delete: %+v", res)
	}
	if res.Record.Get(1) != 11 || res.Record.Get(3) != 33 || res.Record.Get(2) != 20 {
		t.Fatalf("merged = %v", res.Record)
	}
}

func TestMerge3OverlappingConflictPrecedence(t *testing.T) {
	s := testSchema(t)
	base := mk(t, s, 1, 10, 20, 30)
	a := mk(t, s, 1, 11, 20, 30)
	b2 := mk(t, s, 1, 12, 20, 35)
	resA := Merge3(base, a, b2, true)
	if !resA.Conflict {
		t.Fatal("overlapping update not flagged as conflict")
	}
	if resA.Record.Get(1) != 11 {
		t.Fatalf("precedence A: col1 = %d, want 11", resA.Record.Get(1))
	}
	if resA.Record.Get(3) != 35 {
		t.Fatalf("non-conflicting field from B lost: col3 = %d", resA.Record.Get(3))
	}
	resB := Merge3(base, a, b2, false)
	if resB.Record.Get(1) != 12 || resB.Record.Get(3) != 35 {
		t.Fatalf("precedence B merged = %v", resB.Record)
	}
}

func TestMerge3SameValueBothSidesNoConflict(t *testing.T) {
	s := testSchema(t)
	base := mk(t, s, 1, 10, 20, 30)
	a := mk(t, s, 1, 15, 20, 30)
	b2 := mk(t, s, 1, 15, 20, 30)
	res := Merge3(base, a, b2, true)
	if res.Conflict {
		t.Fatal("same-value updates flagged as conflict")
	}
	if res.Record.Get(1) != 15 {
		t.Fatalf("merged col1 = %d", res.Record.Get(1))
	}
}

func TestMerge3DeleteVsUnmodified(t *testing.T) {
	s := testSchema(t)
	base := mk(t, s, 1, 10, 20, 30)
	b2 := base.Clone()
	res := Merge3(base, nil, b2, false)
	if !res.Deleted || res.Conflict {
		t.Fatalf("delete vs unmodified: %+v", res)
	}
}

func TestMerge3DeleteVsModifyConflict(t *testing.T) {
	s := testSchema(t)
	base := mk(t, s, 1, 10, 20, 30)
	mod := mk(t, s, 1, 99, 20, 30)
	// Delete in A, modify in B, A precedence: delete wins, conflict.
	res := Merge3(base, nil, mod, true)
	if !res.Conflict || !res.Deleted {
		t.Fatalf("delete-vs-modify A-precedence: %+v", res)
	}
	// B precedence: modification survives.
	res = Merge3(base, nil, mod, false)
	if !res.Conflict || res.Deleted || res.Record.Get(1) != 99 {
		t.Fatalf("delete-vs-modify B-precedence: %+v", res)
	}
}

func TestMerge3BothDeleted(t *testing.T) {
	s := testSchema(t)
	base := mk(t, s, 1, 10, 20, 30)
	res := Merge3(base, nil, nil, true)
	if !res.Deleted || res.Conflict {
		t.Fatalf("both deleted: %+v", res)
	}
}

func TestMerge3IndependentInsertsSameKey(t *testing.T) {
	s := testSchema(t)
	a := mk(t, s, 7, 1, 2, 3)
	b2 := mk(t, s, 7, 9, 2, 3)
	res := Merge3(nil, a, b2, true)
	if !res.Conflict || res.Record.Get(1) != 1 {
		t.Fatalf("independent insert conflict: %+v", res)
	}
	same := Merge3(nil, a, a.Clone(), false)
	if same.Conflict || same.Record.Get(1) != 1 {
		t.Fatalf("identical independent inserts: %+v", same)
	}
}

func TestMerge3InsertOneSide(t *testing.T) {
	s := testSchema(t)
	a := mk(t, s, 7, 1, 2, 3)
	res := Merge3(nil, a, nil, false)
	if res.Conflict || res.Deleted || !res.Record.Equal(a) {
		t.Fatalf("one-sided insert: %+v", res)
	}
}

// Property: Merge3 with precedence A and precedence B agree whenever no
// conflict is reported, and the merged record never differs from base
// on fields untouched by both sides.
func TestQuickMerge3(t *testing.T) {
	s := MustSchema(
		Column{Name: "id", Type: Int64},
		Column{Name: "a", Type: Int32},
		Column{Name: "b", Type: Int32},
		Column{Name: "c", Type: Int32},
	)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		base := New(s)
		base.SetPK(1)
		for i := 1; i < s.NumColumns(); i++ {
			base.Set(i, int64(r.Intn(5)))
		}
		perturb := func() *Record {
			c := base.Clone()
			for i := 1; i < s.NumColumns(); i++ {
				if r.Intn(2) == 0 {
					c.Set(i, int64(r.Intn(5)))
				}
			}
			return c
		}
		a, b := perturb(), perturb()
		ra := Merge3(base, a, b, true)
		rb := Merge3(base, a, b, false)
		if ra.Conflict != rb.Conflict {
			return false
		}
		if !ra.Conflict && !ra.Record.Equal(rb.Record) {
			return false
		}
		for i := 1; i < s.NumColumns(); i++ {
			if a.Get(i) == base.Get(i) && b.Get(i) == base.Get(i) && ra.Record.Get(i) != base.Get(i) {
				return false
			}
			// Merged value must come from one of the three inputs.
			v := ra.Record.Get(i)
			if v != base.Get(i) && v != a.Get(i) && v != b.Get(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRecordEncodeDecode(b *testing.B) {
	s := Benchmark(1024)
	r := New(s)
	r.SetPK(1)
	b.ReportAllocs()
	b.SetBytes(int64(s.RecordSize()))
	for i := 0; i < b.N; i++ {
		r.Set(1+i%250, int64(i))
		if _, err := FromBytes(s, r.Bytes()); err != nil {
			b.Fatal(err)
		}
	}
}

// typedSchema covers every column type: int key, int32, float64, bytes.
func typedSchema(t *testing.T) *Schema {
	t.Helper()
	return MustSchema(
		Column{Name: "id", Type: Int64},
		Column{Name: "n", Type: Int32},
		Column{Name: "score", Type: Float64},
		Column{Name: "tag", Type: Bytes, Size: 16},
	)
}

func TestTypedColumnsValidation(t *testing.T) {
	if _, err := NewSchema(Column{Name: "id", Type: Int64}, Column{Name: "b", Type: Bytes}); err == nil {
		t.Fatal("bytes column without size accepted")
	}
	if _, err := NewSchema(Column{Name: "id", Type: Int64}, Column{Name: "b", Type: Bytes, Size: MaxBytesSize + 1}); err == nil {
		t.Fatal("oversized bytes column accepted")
	}
	if _, err := NewSchema(Column{Name: "id", Type: Int64}, Column{Name: "n", Type: Int32, Size: 4}); err == nil {
		t.Fatal("sized int column accepted")
	}
	if _, err := NewSchema(Column{Name: "id", Type: Int64}, Column{Name: "x", Type: Type(99)}); err == nil {
		t.Fatal("unknown column type accepted")
	}
}

func TestTypedColumnsLayout(t *testing.T) {
	s := typedSchema(t)
	if got, want := s.RecordSize(), HeaderSize+8+4+8+2+16; got != want {
		t.Fatalf("record size = %d, want %d", got, want)
	}
	if w := (Column{Name: "b", Type: Bytes, Size: 5}).Width(); w != 7 {
		t.Fatalf("bytes column width = %d, want 7", w)
	}
}

func TestFloat64RoundTrip(t *testing.T) {
	s := typedSchema(t)
	r := New(s)
	for _, v := range []float64{0, 1.5, -2.25e30, 3.141592653589793} {
		r.SetFloat64(2, v)
		if got := r.GetFloat64(2); got != v {
			t.Fatalf("float round trip: got %g, want %g", got, v)
		}
	}
}

func TestBytesColumnRoundTrip(t *testing.T) {
	s := typedSchema(t)
	r := New(s)
	if err := r.SetBytes(3, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if got := string(r.GetBytes(3)); got != "hello" {
		t.Fatalf("bytes round trip: got %q", got)
	}
	// Shrinking the value must not leak the old suffix.
	if err := r.SetBytes(3, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	if got := string(r.GetBytes(3)); got != "hi" {
		t.Fatalf("bytes shrink: got %q", got)
	}
	other := New(s)
	if err := other.SetBytes(3, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	if !ColumnEq(r, other, 3) {
		t.Fatal("equal bytes values not bytewise equal after shrink")
	}
	if err := r.SetBytes(3, make([]byte, 17)); err == nil {
		t.Fatal("over-capacity value accepted")
	}
	if err := r.SetBytes(3, nil); err != nil || len(r.GetBytes(3)) != 0 {
		t.Fatalf("empty value round trip: %v, %q", err, r.GetBytes(3))
	}
}

// TestSetValue: SetValue encodes exactly what the typed setters do,
// and a value that does not fit fails naming the column and leaves the
// record unchanged.
func TestSetValue(t *testing.T) {
	s := typedSchema(t)
	want := New(s)
	want.SetPK(7)
	want.Set(1, -3)
	want.SetFloat64(2, 2.5)
	if err := want.SetBytes(3, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	got := New(s)
	if err := got.SetBytes(3, []byte("a longer tag")); err != nil { // must not leak
		t.Fatal(err)
	}
	for i, v := range []any{int64(7), -3, 2.5, "hi"} {
		if err := got.SetValue(i, v); err != nil {
			t.Fatalf("SetValue(%d, %v): %v", i, v, err)
		}
	}
	if !got.Equal(want) {
		t.Fatalf("SetValue built %v, typed setters %v", got, want)
	}
	for _, tc := range []struct {
		col int
		v   any
	}{
		{1, int64(1) << 32},   // overflows the int32 column
		{1, 1.5},              // a float in an integer column
		{2, "3"},              // a string in a float column
		{3, make([]byte, 17)}, // over the bytes capacity
	} {
		err := got.SetValue(tc.col, tc.v)
		if err == nil || !strings.Contains(err.Error(), strconv.Quote(s.Column(tc.col).Name)) || !got.Equal(want) {
			t.Fatalf("column %d value %v: err = %v, record %v; want a rejection naming the column and no change", tc.col, tc.v, err, got)
		}
	}
	if err := got.SetValue(1, nil); err != nil || got.Get(1) != 0 {
		t.Fatalf("nil value: %v, %d; want the zero value", err, got.Get(1))
	}
}

func TestTypedAccessorPanics(t *testing.T) {
	s := typedSchema(t)
	r := New(s)
	for name, fn := range map[string]func(){
		"Get on float":        func() { r.Get(2) },
		"Set on bytes":        func() { r.Set(3, 1) },
		"GetFloat64 on int":   func() { r.GetFloat64(1) },
		"GetBytes on float":   func() { r.GetBytes(2) },
		"SetFloat64 on bytes": func() { r.SetFloat64(3, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestMerge3TypedColumns(t *testing.T) {
	s := typedSchema(t)
	mk := func(n int64, score float64, tag string) *Record {
		r := New(s)
		r.SetPK(1)
		r.Set(1, n)
		r.SetFloat64(2, score)
		if err := r.SetBytes(3, []byte(tag)); err != nil {
			t.Fatal(err)
		}
		return r
	}
	base := mk(1, 1.0, "base")
	a := mk(1, 2.5, "base")  // a changes only the float
	b := mk(1, 1.0, "other") // b changes only the bytes
	res := Merge3(base, a, b, true)
	if res.Conflict {
		t.Fatal("non-overlapping typed updates conflicted")
	}
	if got := res.Record.GetFloat64(2); got != 2.5 {
		t.Fatalf("merged float = %g, want 2.5", got)
	}
	if got := string(res.Record.GetBytes(3)); got != "other" {
		t.Fatalf("merged bytes = %q, want \"other\"", got)
	}

	// Overlapping bytes update resolves by precedence.
	a2 := mk(1, 1.0, "from-a")
	b2 := mk(1, 1.0, "from-b")
	if res := Merge3(base, a2, b2, true); !res.Conflict || string(res.Record.GetBytes(3)) != "from-a" {
		t.Fatalf("precedence-A bytes conflict: conflict=%v tag=%q", res.Conflict, res.Record.GetBytes(3))
	}
	if res := Merge3(base, a2, b2, false); !res.Conflict || string(res.Record.GetBytes(3)) != "from-b" {
		t.Fatalf("precedence-B bytes conflict: conflict=%v tag=%q", res.Conflict, res.Record.GetBytes(3))
	}
}
