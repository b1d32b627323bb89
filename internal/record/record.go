// Package record implements Decibel's tuple layer: fixed-width schemas
// of integer, float and fixed-capacity byte-string columns with an
// immutable int64 primary key in column 0, a
// compact binary codec with a per-record header (tombstone flag), and
// the field-level three-way merge used by every storage engine's merge
// operation (Section 2.2.3: "two records in Decibel are said to
// conflict if they (a) have the same primary key and (b) different
// field values", resolved field-wise against the lowest common
// ancestor).
//
// The paper's benchmark uses 1 KB records of 250 four-byte integer
// columns plus an integer primary key; Benchmark builds exactly that
// shape.
package record

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Type identifies a fixed-width column type.
type Type uint8

// Supported column types.
const (
	Int32   Type = iota // 4-byte signed integer
	Int64               // 8-byte signed integer
	Float64             // 8-byte IEEE 754 double
	Bytes               // fixed-capacity byte string (capacity set per column)
)

// Width returns the encoded width of the type in bytes. Bytes columns
// have no intrinsic width — their capacity is declared per column — so
// use Column.Width for the general form.
func (t Type) Width() int {
	switch t {
	case Int32:
		return 4
	case Int64, Float64:
		return 8
	default:
		panic(fmt.Sprintf("record: type %v has no intrinsic width", t))
	}
}

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case Int32:
		return "INT"
	case Int64:
		return "BIGINT"
	case Float64:
		return "DOUBLE"
	case Bytes:
		return "BYTES"
	default:
		return fmt.Sprintf("Type(%d)", t)
	}
}

// bytesLenPrefix is the length-prefix width of a Bytes column: the
// stored value's actual length as a little-endian uint16, followed by
// Size payload bytes (records stay fixed-width, which is what lets the
// heap layer address records by slot).
const bytesLenPrefix = 2

// MaxBytesSize caps the declared capacity of a Bytes column (the length
// prefix is a uint16).
const MaxBytesSize = math.MaxUint16

// Column describes one schema column. Size is the payload capacity of a
// Bytes column in bytes (1..MaxBytesSize) and must be zero for every
// other type.
type Column struct {
	Name string
	Type Type
	Size int
}

// Width returns the encoded width of the column in bytes.
func (c Column) Width() int {
	if c.Type == Bytes {
		return bytesLenPrefix + c.Size
	}
	return c.Type.Width()
}

// CheckInt reports an error naming the column when integer n does not
// fit it: an Int32 column holds only int32 values, and Record.Set would
// wrap the rest. Values from outside — defaults, served and CLI inserts
// — are encoded through EncodeDefault or Record.SetValue, which check.
func (c Column) CheckInt(n int64) error {
	if c.Type == Int32 && (n < math.MinInt32 || n > math.MaxInt32) {
		return fmt.Errorf("record: %d overflows INT column %q", n, c.Name)
	}
	return nil
}

// String renders the column as name + SQL-ish type.
func (c Column) String() string {
	if c.Type == Bytes {
		return fmt.Sprintf("%s BYTES(%d)", c.Name, c.Size)
	}
	return fmt.Sprintf("%s %v", c.Name, c.Type)
}

// Schema is an ordered list of fixed-width columns. Column 0 is always
// the int64 primary key, which Decibel uses to track records across
// versions and therefore treats as immutable.
type Schema struct {
	cols    []Column
	offsets []int // byte offset of each column within the payload
	size    int   // total encoded record size including header
}

// HeaderSize is the per-record header length in bytes: one flags byte.
const HeaderSize = 1

// Record flag bits.
const (
	// FlagTombstone marks a deletion marker: version-first cannot remove
	// records for historical reasons, so deletes "insert a special
	// record with a deleted header bit" (Section 3.3).
	FlagTombstone byte = 1 << 0
)

// NewSchema builds a schema from the given columns. The first column
// must be of type Int64; it is the primary key.
func NewSchema(cols ...Column) (*Schema, error) {
	if len(cols) == 0 {
		return nil, errors.New("record: schema needs at least the primary key column")
	}
	if cols[0].Type != Int64 {
		return nil, errors.New("record: primary key (column 0) must be Int64")
	}
	seen := make(map[string]bool, len(cols))
	s := &Schema{cols: make([]Column, len(cols)), offsets: make([]int, len(cols))}
	off := 0
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("record: column %d has empty name", i)
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("record: duplicate column name %q", c.Name)
		}
		if c.Type > Bytes {
			return nil, fmt.Errorf("record: column %q has unknown type %d", c.Name, c.Type)
		}
		if c.Type == Bytes {
			if c.Size < 1 || c.Size > MaxBytesSize {
				return nil, fmt.Errorf("record: bytes column %q needs a size in 1..%d, got %d", c.Name, MaxBytesSize, c.Size)
			}
		} else if c.Size != 0 {
			return nil, fmt.Errorf("record: column %q of type %v must not declare a size", c.Name, c.Type)
		}
		seen[c.Name] = true
		s.cols[i] = c
		s.offsets[i] = off
		off += c.Width()
	}
	s.size = HeaderSize + off
	return s, nil
}

// MustSchema is NewSchema that panics on error, for tests and fixed
// internal schemas.
func MustSchema(cols ...Column) *Schema {
	s, err := NewSchema(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// Benchmark returns the paper's benchmark schema: an int64 primary key
// followed by extra Int32 columns, sized so that the encoded record is
// close to recordBytes (the paper fixes 1 KB records of 4-byte
// columns). extra = (recordBytes - header - 8) / 4.
func Benchmark(recordBytes int) *Schema {
	extra := (recordBytes - HeaderSize - 8) / 4
	if extra < 1 {
		extra = 1
	}
	cols := make([]Column, 1+extra)
	cols[0] = Column{Name: "id", Type: Int64}
	for i := 1; i <= extra; i++ {
		cols[i] = Column{Name: fmt.Sprintf("c%d", i), Type: Int32}
	}
	return MustSchema(cols...)
}

// NumColumns returns the number of columns, including the primary key.
func (s *Schema) NumColumns() int { return len(s.cols) }

// Column returns the i-th column descriptor.
func (s *Schema) Column(i int) Column { return s.cols[i] }

// ColumnIndex returns the index of the named column, or -1.
func (s *Schema) ColumnIndex(name string) int {
	for i, c := range s.cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// RecordSize returns the encoded size of a record in bytes, header
// included. All records of a schema have the same size, which is what
// lets the heap layer address records by slot.
func (s *Schema) RecordSize() int { return s.size }

// ColumnOffset returns the byte offset of column i within the encoded
// record (header included). Predicate compilers use it to evaluate
// pushed-down comparisons directly on encoded buffers.
func (s *Schema) ColumnOffset(i int) int { return HeaderSize + s.offsets[i] }

// Equal reports whether two schemas have identical columns.
func (s *Schema) Equal(o *Schema) bool {
	if len(s.cols) != len(o.cols) {
		return false
	}
	for i := range s.cols {
		if s.cols[i] != o.cols[i] {
			return false
		}
	}
	return true
}

// PKOf reads the primary key straight from an encoded record buffer.
// Column 0 is Int64 at a fixed offset in every schema version (the
// physical layout only appends columns), so key extraction never needs
// the buffer's schema.
func PKOf(buf []byte) int64 {
	return int64(binary.LittleEndian.Uint64(buf[HeaderSize:]))
}

// TombstoneOf reads the deletion flag straight from an encoded record
// buffer, schema-free like PKOf.
func TombstoneOf(buf []byte) bool { return buf[0]&FlagTombstone != 0 }

// Record is one fixed-width tuple: a flags header followed by the
// encoded column values. A Record owns its buffer.
type Record struct {
	schema *Schema
	buf    []byte
}

// New returns a zeroed record of the schema.
func New(s *Schema) *Record {
	return &Record{schema: s, buf: make([]byte, s.RecordSize())}
}

// FromBytes wraps an encoded record buffer. The buffer is used directly
// (not copied); it must be exactly RecordSize bytes.
func FromBytes(s *Schema, buf []byte) (*Record, error) {
	r := new(Record)
	if err := r.Reset(s, buf); err != nil {
		return nil, err
	}
	return r, nil
}

// Reset rebinds r to an encoded record buffer of schema s, used
// directly like FromBytes's: a consumer that keeps no record past its
// callback reuses one view for every row instead of allocating one.
func (r *Record) Reset(s *Schema, buf []byte) error {
	if len(buf) != s.RecordSize() {
		return fmt.Errorf("record: buffer is %d bytes, schema needs %d", len(buf), s.RecordSize())
	}
	r.schema, r.buf = s, buf
	return nil
}

// Schema returns the record's schema.
func (r *Record) Schema() *Schema { return r.schema }

// Bytes returns the encoded form. The slice aliases the record.
func (r *Record) Bytes() []byte { return r.buf }

// Clone returns a deep copy.
func (r *Record) Clone() *Record {
	buf := make([]byte, len(r.buf))
	copy(buf, r.buf)
	return &Record{schema: r.schema, buf: buf}
}

// Tombstone reports whether the record is a deletion marker.
func (r *Record) Tombstone() bool { return r.buf[0]&FlagTombstone != 0 }

// SetTombstone sets or clears the deletion marker flag.
func (r *Record) SetTombstone(v bool) {
	if v {
		r.buf[0] |= FlagTombstone
	} else {
		r.buf[0] &^= FlagTombstone
	}
}

// PK returns the primary key (column 0).
func (r *Record) PK() int64 { return r.Get(0) }

// SetPK sets the primary key.
func (r *Record) SetPK(v int64) { r.Set(0, v) }

// Get returns integer column i as an int64 (Int32 columns are
// sign-extended). It panics on Float64 and Bytes columns; use GetFloat64
// or GetBytes for those.
func (r *Record) Get(i int) int64 {
	c := r.schema.cols[i]
	off := HeaderSize + r.schema.offsets[i]
	switch c.Type {
	case Int32:
		return int64(int32(binary.LittleEndian.Uint32(r.buf[off:])))
	case Int64:
		return int64(binary.LittleEndian.Uint64(r.buf[off:]))
	default:
		panic(fmt.Sprintf("record: Get on %v column %q; use the typed accessor", c.Type, c.Name))
	}
}

// Set stores v into integer column i, truncating to the column width.
// It panics on Float64 and Bytes columns; use SetFloat64 or SetBytes
// for those.
func (r *Record) Set(i int, v int64) {
	c := r.schema.cols[i]
	off := HeaderSize + r.schema.offsets[i]
	switch c.Type {
	case Int32:
		binary.LittleEndian.PutUint32(r.buf[off:], uint32(int32(v)))
	case Int64:
		binary.LittleEndian.PutUint64(r.buf[off:], uint64(v))
	default:
		panic(fmt.Sprintf("record: Set on %v column %q; use the typed accessor", c.Type, c.Name))
	}
}

// GetFloat64 returns Float64 column i.
func (r *Record) GetFloat64(i int) float64 {
	c := r.schema.cols[i]
	if c.Type != Float64 {
		panic(fmt.Sprintf("record: GetFloat64 on %v column %q", c.Type, c.Name))
	}
	off := HeaderSize + r.schema.offsets[i]
	return math.Float64frombits(binary.LittleEndian.Uint64(r.buf[off:]))
}

// SetFloat64 stores v into Float64 column i.
func (r *Record) SetFloat64(i int, v float64) {
	c := r.schema.cols[i]
	if c.Type != Float64 {
		panic(fmt.Sprintf("record: SetFloat64 on %v column %q", c.Type, c.Name))
	}
	off := HeaderSize + r.schema.offsets[i]
	binary.LittleEndian.PutUint64(r.buf[off:], math.Float64bits(v))
}

// GetBytes returns the value of Bytes column i. The slice aliases the
// record's buffer; copy it to retain it past the next mutation.
func (r *Record) GetBytes(i int) []byte {
	c := r.schema.cols[i]
	if c.Type != Bytes {
		panic(fmt.Sprintf("record: GetBytes on %v column %q", c.Type, c.Name))
	}
	off := HeaderSize + r.schema.offsets[i]
	n := int(binary.LittleEndian.Uint16(r.buf[off:]))
	if n > c.Size {
		n = c.Size // corrupt length prefix; clamp rather than slice out of the column
	}
	return r.buf[off+bytesLenPrefix : off+bytesLenPrefix+n]
}

// SetBytes stores v into Bytes column i. It fails if v exceeds the
// column's declared capacity; shorter values zero-pad the remainder so
// records with equal values stay bytewise equal.
func (r *Record) SetBytes(i int, v []byte) error {
	c := r.schema.cols[i]
	if c.Type != Bytes {
		panic(fmt.Sprintf("record: SetBytes on %v column %q", c.Type, c.Name))
	}
	if len(v) > c.Size {
		return fmt.Errorf("record: value of %d bytes exceeds capacity %d of column %q", len(v), c.Size, c.Name)
	}
	off := HeaderSize + r.schema.offsets[i]
	binary.LittleEndian.PutUint16(r.buf[off:], uint16(len(v)))
	payload := r.buf[off+bytesLenPrefix : off+bytesLenPrefix+c.Size]
	copy(payload, v)
	for j := len(v); j < c.Size; j++ {
		payload[j] = 0
	}
	return nil
}

// SetValue stores the Go value v into column i through the encoder
// behind EncodeDefault: integers fit Int32/Int64 columns (range
// checked), floats or integers fit Float64, strings and []byte fit
// Bytes, and nil is the type's zero value. A value that does not fit
// fails naming the column and leaves the record unchanged.
func (r *Record) SetValue(i int, v any) error {
	return encodeValue(r.schema.cols[i], v, r.ColumnBytes(i))
}

// ColumnBytes returns the raw encoded bytes of column i (for a Bytes
// column this includes the length prefix). The slice aliases the record.
func (r *Record) ColumnBytes(i int) []byte {
	off := HeaderSize + r.schema.offsets[i]
	return r.buf[off : off+r.schema.cols[i].Width()]
}

// CopyColumn copies column i of src into r. Both records must share a
// schema; the copy is a raw byte move, so it works for every column
// type.
func (r *Record) CopyColumn(src *Record, i int) {
	copy(r.ColumnBytes(i), src.ColumnBytes(i))
}

// ColumnEq reports whether column i holds the same value in a and b.
func ColumnEq(a, b *Record, i int) bool {
	return bytes.Equal(a.ColumnBytes(i), b.ColumnBytes(i))
}

// Equal reports whether two records have identical schema and contents
// (including flags).
func (r *Record) Equal(o *Record) bool {
	if !r.schema.Equal(o.schema) || len(r.buf) != len(o.buf) {
		return false
	}
	for i := range r.buf {
		if r.buf[i] != o.buf[i] {
			return false
		}
	}
	return true
}

// String renders the record for debugging.
func (r *Record) String() string {
	s := fmt.Sprintf("(pk=%d", r.PK())
	if r.Tombstone() {
		s += " DEL"
	}
	n := r.schema.NumColumns()
	show := n
	if show > 6 {
		show = 6
	}
	for i := 1; i < show; i++ {
		c := r.schema.cols[i]
		switch c.Type {
		case Float64:
			s += fmt.Sprintf(", %s=%g", c.Name, r.GetFloat64(i))
		case Bytes:
			s += fmt.Sprintf(", %s=%q", c.Name, r.GetBytes(i))
		default:
			s += fmt.Sprintf(", %s=%d", c.Name, r.Get(i))
		}
	}
	if show < n {
		s += ", ..."
	}
	return s + ")"
}

// DiffFields returns the indices of non-key columns whose values differ
// between a and b. Both records must share a schema and primary key;
// this is the field-level comparison step of the three-way merge.
func DiffFields(a, b *Record) []int {
	var out []int
	for i := 1; i < a.schema.NumColumns(); i++ {
		if !ColumnEq(a, b, i) {
			out = append(out, i)
		}
	}
	return out
}

// MergeResult reports the outcome of a three-way record merge.
type MergeResult struct {
	Record   *Record // merged record (nil if both sides deleted)
	Conflict bool    // overlapping field updated on both sides, or delete vs modify
	Deleted  bool    // merged outcome is a deletion
}

// Merge3 performs the field-level three-way merge of Section 2.2.3.
// base is the record at the lowest common ancestor (nil if the key did
// not exist there); a and b are the records in the two branches being
// merged (nil meaning deleted/absent in that branch). precedenceA says
// which branch wins conflicting fields, implementing the paper's
// default precedence policy.
//
// Non-overlapping field updates auto-merge. Overlapping updates of the
// same field to different values are conflicts, resolved by precedence.
// Delete-versus-modify is a conflict (Section 2.2.3: "a record that was
// deleted in one version and modified in the other will generate a
// conflict"), resolved by precedence as well.
func Merge3(base, a, b *Record, precedenceA bool) MergeResult {
	aDel := a == nil || a.Tombstone()
	bDel := b == nil || b.Tombstone()
	switch {
	case aDel && bDel:
		return MergeResult{Deleted: true}
	case aDel || bDel:
		live := a
		if aDel {
			live = b
		}
		// Deleted on one side. If the surviving side did not modify the
		// record relative to base, the delete wins silently; otherwise
		// it is a delete-vs-modify conflict resolved by precedence.
		if base != nil && len(DiffFields(base, live)) == 0 {
			return MergeResult{Deleted: true}
		}
		if base == nil {
			// Added on one side only: not a conflict, keep the addition.
			return MergeResult{Record: live.Clone()}
		}
		conflictWinsDelete := (aDel && precedenceA) || (bDel && !precedenceA)
		if conflictWinsDelete {
			return MergeResult{Deleted: true, Conflict: true}
		}
		return MergeResult{Record: live.Clone(), Conflict: true}
	}
	if base == nil {
		// Inserted independently in both branches with the same key. If
		// identical there is nothing to do; otherwise every differing
		// field conflicts and precedence picks a side wholesale.
		if len(DiffFields(a, b)) == 0 {
			return MergeResult{Record: a.Clone()}
		}
		if precedenceA {
			return MergeResult{Record: a.Clone(), Conflict: true}
		}
		return MergeResult{Record: b.Clone(), Conflict: true}
	}
	da := DiffFields(base, a)
	db := DiffFields(base, b)
	merged := base.Clone()
	for _, i := range da {
		merged.CopyColumn(a, i)
	}
	conflict := false
	inA := make(map[int]bool, len(da))
	for _, i := range da {
		inA[i] = true
	}
	for _, i := range db {
		if inA[i] && !ColumnEq(a, b, i) {
			conflict = true
			if precedenceA {
				continue // keep a's value already applied
			}
		}
		if !inA[i] || !precedenceA || ColumnEq(a, b, i) {
			merged.CopyColumn(b, i)
		}
	}
	return MergeResult{Record: merged, Conflict: conflict}
}
