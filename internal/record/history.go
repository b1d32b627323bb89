package record

// This file implements versioned schema evolution (ROADMAP "schema
// evolution (add-column with default) across versions"): a History is
// the ordered sequence of schema versions one table has gone through,
// keyed by the dataset-wide schema epoch stamped on every commit.
//
// The physical layout only ever appends: AddColumn places the new
// column after every existing one, and DropColumn is logical (the
// column disappears from later visible schemas but keeps its bytes in
// the physical layout). A record encoded under an older version is
// therefore a byte prefix of any newer encoding, which is what lets
// pages written before a schema change be read forever without being
// rewritten: decoding fills the declared default for columns the
// stored prefix does not contain.

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"
)

// histCol is one column of the physical layout with its evolution
// metadata.
type histCol struct {
	col       Column
	addedIn   int    // schema epoch that introduced the column (0 = table creation)
	droppedIn int    // schema epoch from which the column is invisible (0 = never)
	def       []byte // encoded default (col.Width() bytes); nil = zero value
}

// HistoryColumn is the exported view of one physical column and its
// evolution metadata, used by the catalog to persist a History and by
// the CLI to render it.
type HistoryColumn struct {
	Col       Column
	AddedIn   int
	DroppedIn int
	Default   []byte
}

// History is the versioned schema of one table: the append-only
// physical column layout plus, per schema epoch, the visible schema as
// of that epoch. All methods are safe for concurrent use; schemas
// returned for equal inputs are pointer-identical, so callers can use
// pointer comparison as a fast path.
type History struct {
	mu    sync.RWMutex
	cols  []histCol
	epoch int // highest epoch that changed this table's schema

	physByCount map[int]*Schema // physical column count -> schema
	visByEpoch  map[int]*Schema // clamped epoch -> visible schema
	convs       map[convKey]*Conv
	storage     map[storageKey]*Conv
	writable    map[writableKey]error
}

type convKey struct {
	physCols int
	epoch    int
}

type storageKey struct {
	src      *Schema
	physCols int
}

type writableKey struct {
	src   *Schema
	epoch int
}

// NewHistory starts a history at epoch 0 with the given base schema.
func NewHistory(base *Schema) *History {
	h := &History{
		physByCount: make(map[int]*Schema),
		visByEpoch:  make(map[int]*Schema),
		convs:       make(map[convKey]*Conv),
		storage:     make(map[storageKey]*Conv),
		writable:    make(map[writableKey]error),
	}
	for i := 0; i < base.NumColumns(); i++ {
		h.cols = append(h.cols, histCol{col: base.Column(i)})
	}
	h.physByCount[len(h.cols)] = base
	h.visByEpoch[0] = base
	return h
}

// RestoreHistory rebuilds a history from its persisted columns (the
// catalog file). The columns must be in physical order with column 0
// the Int64 primary key.
func RestoreHistory(cols []HistoryColumn) (*History, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("record: history needs at least the primary key column")
	}
	base := make([]Column, 0, len(cols))
	for _, c := range cols {
		if c.AddedIn == 0 {
			base = append(base, c.Col)
		}
	}
	bs, err := NewSchema(base...)
	if err != nil {
		return nil, err
	}
	h := NewHistory(bs)
	// Replay adds and drops in epoch order: a later column's add may
	// predate an earlier column's drop, and the epoch guard enforces the
	// linear chain.
	type op struct {
		epoch int
		add   *HistoryColumn
		drop  string
	}
	var ops []op
	for i := range cols {
		c := &cols[i]
		if c.AddedIn > 0 {
			ops = append(ops, op{epoch: c.AddedIn, add: c})
		}
		if c.DroppedIn > 0 {
			ops = append(ops, op{epoch: c.DroppedIn, drop: c.Col.Name})
		}
	}
	sort.SliceStable(ops, func(i, j int) bool {
		if ops[i].epoch != ops[j].epoch {
			return ops[i].epoch < ops[j].epoch
		}
		// Same epoch: adds first, preserving physical order.
		return ops[i].add != nil && ops[j].add == nil
	})
	for _, o := range ops {
		if o.add != nil {
			if err := h.AddColumnBytes(o.epoch, o.add.Col, o.add.Default); err != nil {
				return nil, err
			}
			continue
		}
		if err := h.DropColumn(o.epoch, o.drop); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// Columns returns the physical layout with evolution metadata, in
// physical order (the persistence form consumed by RestoreHistory).
func (h *History) Columns() []HistoryColumn {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]HistoryColumn, len(h.cols))
	for i, c := range h.cols {
		out[i] = HistoryColumn{Col: c.col, AddedIn: c.addedIn, DroppedIn: c.droppedIn, Default: c.def}
	}
	return out
}

// Epoch returns the highest schema epoch that changed this table.
func (h *History) Epoch() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.epoch
}

// EncodeDefault encodes a Go value for the column, as an added column's
// default; Record.SetValue encodes a record's values by the same rules.
// nil gives the zero value; integers fit Int32/Int64 (range checked by
// CheckInt), floats (or integers) fit Float64, strings and []byte fit
// Bytes columns.
func EncodeDefault(c Column, v any) ([]byte, error) {
	buf := make([]byte, c.Width())
	if err := encodeValue(c, v, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// encodeValue writes v's encoding for column c into buf (c.Width()
// bytes). It validates v before writing, so a failure leaves buf as it
// was.
func encodeValue(c Column, v any, buf []byte) error {
	if v == nil {
		clear(buf)
		return nil
	}
	switch c.Type {
	case Int32, Int64:
		n, ok := AsInt64(v)
		if !ok {
			return fmt.Errorf("record: %T value does not fit %v column %q", v, c.Type, c.Name)
		}
		if err := c.CheckInt(n); err != nil {
			return err
		}
		if c.Type == Int32 {
			binary.LittleEndian.PutUint32(buf, uint32(int32(n)))
		} else {
			binary.LittleEndian.PutUint64(buf, uint64(n))
		}
	case Float64:
		f, ok := AsFloat64(v)
		if !ok {
			return fmt.Errorf("record: %T value does not fit DOUBLE column %q", v, c.Name)
		}
		binary.LittleEndian.PutUint64(buf, math.Float64bits(f))
	case Bytes:
		b, ok := AsBytes(v)
		if !ok {
			return fmt.Errorf("record: %T value does not fit BYTES column %q", v, c.Name)
		}
		if len(b) > c.Size {
			return fmt.Errorf("record: value of %d bytes exceeds capacity %d of column %q", len(b), c.Size, c.Name)
		}
		binary.LittleEndian.PutUint16(buf, uint16(len(b)))
		clear(buf[bytesLenPrefix+copy(buf[bytesLenPrefix:], b):])
	default:
		return fmt.Errorf("record: column %q has unknown type %d", c.Name, c.Type)
	}
	return nil
}

// AsInt64, AsFloat64 and AsBytes are the one coercion of a Go value to
// a column type's value, shared by every writer (defaults, SetValue)
// and the query layer's predicate literals. AsInt64 takes the signed
// integer types and the unsigned ones narrower than 64 bits.
func AsInt64(v any) (int64, bool) {
	switch n := v.(type) {
	case int:
		return int64(n), true
	case int8:
		return int64(n), true
	case int16:
		return int64(n), true
	case int32:
		return int64(n), true
	case int64:
		return n, true
	case uint8:
		return int64(n), true
	case uint16:
		return int64(n), true
	case uint32:
		return int64(n), true
	default:
		return 0, false
	}
}

// AsFloat64 takes float64, float32 and every integer AsInt64 takes.
func AsFloat64(v any) (float64, bool) {
	switch n := v.(type) {
	case float64:
		return n, true
	case float32:
		return float64(n), true
	}
	i, ok := AsInt64(v)
	return float64(i), ok
}

// AsBytes takes []byte and string.
func AsBytes(v any) ([]byte, bool) {
	switch b := v.(type) {
	case []byte:
		return b, true
	case string:
		return []byte(b), true
	}
	return nil, false
}

// AddColumn appends a column at the given epoch with a default value
// (nil = zero value). The epoch must be newer than every change the
// history already holds: schema evolution is linear, one chain of
// versions for the whole dataset.
func (h *History) AddColumn(epoch int, c Column, def any) error {
	enc, err := EncodeDefault(c, def)
	if err != nil {
		return err
	}
	return h.AddColumnBytes(epoch, c, enc)
}

// AddColumnBytes is AddColumn with the default already encoded (the
// catalog-reload path). def may be nil for the zero value; otherwise it
// must be exactly c.Width() bytes.
func (h *History) AddColumnBytes(epoch int, c Column, def []byte) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	// Equal epochs are allowed: one commit may batch several changes,
	// all stamped with the same new epoch.
	if epoch < h.epoch || epoch < 1 {
		return fmt.Errorf("record: schema epoch %d is older than %d", epoch, h.epoch)
	}
	if c.Name == "" {
		return fmt.Errorf("record: column has empty name")
	}
	for _, hc := range h.cols {
		if hc.col.Name == c.Name {
			return fmt.Errorf("record: column %q already exists in the table's history", c.Name)
		}
	}
	if c.Type > Bytes {
		return fmt.Errorf("record: column %q has unknown type %d", c.Name, c.Type)
	}
	if c.Type == Bytes {
		if c.Size < 1 || c.Size > MaxBytesSize {
			return fmt.Errorf("record: bytes column %q needs a size in 1..%d, got %d", c.Name, MaxBytesSize, c.Size)
		}
	} else if c.Size != 0 {
		return fmt.Errorf("record: column %q of type %v must not declare a size", c.Name, c.Type)
	}
	if def != nil && len(def) != c.Width() {
		return fmt.Errorf("record: default for column %q is %d bytes, want %d", c.Name, len(def), c.Width())
	}
	h.cols = append(h.cols, histCol{col: c, addedIn: epoch, def: def})
	h.epoch = epoch
	h.invalidateLocked()
	return nil
}

// DropColumn hides the named column from the given epoch onward. The
// drop is logical: stored records keep the column's bytes, historical
// reads at earlier epochs still see it, and the name stays reserved
// (it cannot be re-added). The primary key cannot be dropped.
func (h *History) DropColumn(epoch int, name string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if epoch < h.epoch || epoch < 1 {
		return fmt.Errorf("record: schema epoch %d is older than %d", epoch, h.epoch)
	}
	for i := range h.cols {
		if h.cols[i].col.Name != name {
			continue
		}
		if i == 0 {
			return fmt.Errorf("record: cannot drop the primary key column %q", name)
		}
		if h.cols[i].droppedIn != 0 {
			return fmt.Errorf("record: column %q is already dropped", name)
		}
		h.cols[i].droppedIn = epoch
		h.epoch = epoch
		h.invalidateLocked()
		return nil
	}
	return fmt.Errorf("record: no column %q in the table's history", name)
}

// Revert undoes every change made at epochs greater than epoch: crash
// recovery rolls uncommitted schema changes back to the newest epoch
// any commit in the version graph was stamped with.
func (h *History) Revert(epoch int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	kept := h.cols[:0]
	max := 0
	for _, c := range h.cols {
		if c.addedIn > epoch {
			continue
		}
		if c.droppedIn > epoch {
			c.droppedIn = 0
		}
		if c.addedIn > max {
			max = c.addedIn
		}
		if c.droppedIn > max {
			max = c.droppedIn
		}
		kept = append(kept, c)
	}
	h.cols = kept
	h.epoch = max
	h.invalidateLocked()
}

// invalidateLocked drops the schema and converter caches; caller holds
// h.mu exclusively.
func (h *History) invalidateLocked() {
	h.physByCount = make(map[int]*Schema)
	h.visByEpoch = make(map[int]*Schema)
	h.convs = make(map[convKey]*Conv)
	h.storage = make(map[storageKey]*Conv)
	h.writable = make(map[writableKey]error)
}

// PhysCols returns the current number of physical columns. Engines tag
// every heap file / segment they create with this count — the file's
// schema-version id — so stored buffers can be decoded forever.
func (h *History) PhysCols() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.cols)
}

// NumPhysAt returns the number of physical columns as of a schema
// epoch: the storage generation a branch whose head commit carries
// that epoch writes at.
func (h *History) NumPhysAt(epoch int) int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	n := 0
	for _, c := range h.cols {
		if c.addedIn <= epoch {
			n++
		}
	}
	return n
}

// PhysByCount returns the physical schema of the first n columns (the
// layout of a file tagged with n). The result is cached and
// pointer-stable.
func (h *History) PhysByCount(n int) (*Schema, error) {
	h.mu.RLock()
	s, ok := h.physByCount[n]
	h.mu.RUnlock()
	if ok {
		return s, nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if s, ok := h.physByCount[n]; ok {
		return s, nil
	}
	if n < 1 || n > len(h.cols) {
		return nil, fmt.Errorf("record: no physical schema with %d columns (history has %d)", n, len(h.cols))
	}
	cols := make([]Column, n)
	for i := 0; i < n; i++ {
		cols[i] = h.cols[i].col
	}
	s, err := NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	h.physByCount[n] = s
	return s, nil
}

// VisibleAt returns the schema visible as of a schema epoch: columns
// added by then and not yet dropped. Epochs beyond the history's
// newest change clamp to the latest visible schema, so any commit's
// stamped epoch resolves. The result is cached and pointer-stable.
func (h *History) VisibleAt(epoch int) *Schema {
	h.mu.RLock()
	if epoch > h.epoch {
		epoch = h.epoch
	}
	s, ok := h.visByEpoch[epoch]
	h.mu.RUnlock()
	if ok {
		return s
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if epoch > h.epoch {
		epoch = h.epoch
	}
	if s, ok := h.visByEpoch[epoch]; ok {
		return s
	}
	var cols []Column
	for _, c := range h.cols {
		if c.addedIn <= epoch && (c.droppedIn == 0 || c.droppedIn > epoch) {
			cols = append(cols, c.col)
		}
	}
	s, err := NewSchema(cols...)
	if err != nil {
		panic(err) // visible schemas always keep the pk and stay duplicate-free
	}
	h.visByEpoch[epoch] = s
	return s
}

// VisibleLatest returns the current visible schema — what Table.Schema
// reports and what new records are built against.
func (h *History) VisibleLatest() *Schema {
	h.mu.RLock()
	e := h.epoch
	h.mu.RUnlock()
	return h.VisibleAt(e)
}

// VisiblePhys returns, for each column of the schema visible at epoch,
// its index in the physical layout. Zone maps are kept per physical
// column of each segment; this is the mapping a pruning decision uses
// to look a predicate's (visible) column up in a segment's zones.
func (h *History) VisiblePhys(epoch int) []int {
	vis := h.VisibleAt(epoch)
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]int, vis.NumColumns())
	for i := 0; i < vis.NumColumns(); i++ {
		out[i] = -1
		name := vis.Column(i).Name
		for j := range h.cols {
			if h.cols[j].col.Name == name {
				out[i] = j
				break
			}
		}
	}
	return out
}

// DefaultBytes returns the encoded declared default of the physical
// column at index phys (nil means the zero value). Records stored
// before the column existed read back this value, so it participates
// in zone-map pruning for segments the column postdates.
func (h *History) DefaultBytes(phys int) []byte {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if phys < 0 || phys >= len(h.cols) {
		return nil
	}
	return h.cols[phys].def
}

// ColumnEpochs reports when the named column entered (and, if dropped,
// left) the schema. ok is false for names the table never had.
func (h *History) ColumnEpochs(name string) (addedIn, droppedIn int, ok bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	for _, c := range h.cols {
		if c.col.Name == name {
			return c.addedIn, c.droppedIn, true
		}
	}
	return 0, 0, false
}

// Conv converts record buffers from one layout to another: on read,
// from a physical layout to a visible schema (History.Conv); on write,
// from the caller's schema to a physical layout (StorageBytes).
// Identity conversions (the common case: data written and read at the
// current epoch) are free; otherwise Convert copies the columns both
// layouts share and fills declared defaults for the columns the source
// lacks.
type Conv struct {
	out      *Schema
	identity bool
	srcOff   []int    // per output column: byte offset in the source buffer, or -1
	width    []int    // per output column: encoded width
	defaults [][]byte // per output column: default bytes when srcOff < 0 (nil = zeros)
}

// newConv starts a conversion from src to out: the identity when the
// two are equal, otherwise one with every output column's width set
// and no source (srcOff -1) for the caller to fill in.
func newConv(out, src *Schema) *Conv {
	cv := &Conv{out: out, identity: out.Equal(src)}
	if cv.identity {
		return cv
	}
	n := out.NumColumns()
	cv.srcOff = make([]int, n)
	cv.width = make([]int, n)
	cv.defaults = make([][]byte, n)
	for i := range n {
		cv.width[i] = out.Column(i).Width()
		cv.srcOff[i] = -1
	}
	return cv
}

// Out returns the schema Convert's output buffers are encoded under.
func (cv *Conv) Out() *Schema { return cv.out }

// Identity reports whether Convert returns its input unchanged.
func (cv *Conv) Identity() bool { return cv.identity }

// NewScratch allocates a destination buffer for Convert.
func (cv *Conv) NewScratch() []byte { return make([]byte, cv.out.RecordSize()) }

// Convert decodes buf (a record stored under the conversion's physical
// source layout) into the output schema. Identity conversions return
// buf itself; otherwise dst (which must be Out().RecordSize() bytes) is
// filled and returned.
func (cv *Conv) Convert(buf, dst []byte) []byte {
	if cv.identity {
		return buf
	}
	dst[0] = buf[0] // header flags (tombstone)
	pos := HeaderSize
	for i, off := range cv.srcOff {
		w := cv.width[i]
		out := dst[pos : pos+w]
		switch {
		case off >= 0:
			copy(out, buf[off:off+w])
		case cv.defaults[i] != nil:
			copy(out, cv.defaults[i])
		default:
			for j := range out {
				out[j] = 0
			}
		}
		pos += w
	}
	return dst
}

// Materialize decodes buf into a freshly allocated record of the
// output schema (for callers that must retain several converted
// records at once, e.g. the three sides of a merge).
func (cv *Conv) Materialize(buf []byte) *Record {
	r := New(cv.out)
	if cv.identity {
		copy(r.buf, buf)
	} else {
		cv.Convert(buf, r.buf)
	}
	return r
}

// Conv returns the (cached) conversion from the physical layout with
// physCols columns to the schema visible at epoch.
func (h *History) Conv(physCols, epoch int) (*Conv, error) {
	h.mu.RLock()
	if epoch > h.epoch {
		epoch = h.epoch
	}
	key := convKey{physCols: physCols, epoch: epoch}
	cv, ok := h.convs[key]
	h.mu.RUnlock()
	if ok {
		return cv, nil
	}
	src, err := h.PhysByCount(physCols)
	if err != nil {
		return nil, err
	}
	out := h.VisibleAt(epoch)

	h.mu.Lock()
	defer h.mu.Unlock()
	key = convKey{physCols: physCols, epoch: epoch}
	if cv, ok := h.convs[key]; ok {
		return cv, nil
	}
	cv = newConv(out, src)
	if !cv.identity {
		for i := 0; i < out.NumColumns(); i++ {
			c := out.Column(i)
			for j := 0; j < physCols; j++ {
				if h.cols[j].col.Name == c.Name {
					cv.srcOff[i] = src.ColumnOffset(j)
					break
				}
			}
			if cv.srcOff[i] < 0 {
				// Column added after the buffer was stored: fill its default.
				for _, hc := range h.cols {
					if hc.col.Name == c.Name {
						cv.defaults[i] = hc.def
						break
					}
				}
			}
		}
	}
	h.convs[key] = cv
	return cv, nil
}

// StorageBytes encodes rec — built under any schema this history has
// produced (a current or older visible schema, or a physical layout) —
// into the physical layout with physCols columns, filling declared
// defaults for physical columns the record's schema lacks. The
// returned buffer is dst (which must be the physical record size) or
// rec's own bytes for identity conversions. Columns in rec that are
// not part of the target layout are rejected.
func (h *History) StorageBytes(rec *Record, physCols int, dst []byte) ([]byte, error) {
	src := rec.Schema()
	h.mu.RLock()
	cv, ok := h.storage[storageKey{src: src, physCols: physCols}]
	h.mu.RUnlock()
	if !ok {
		var err error
		if cv, err = h.buildStorageConv(src, physCols); err != nil {
			return nil, err
		}
	}
	return cv.Convert(rec.Bytes(), dst), nil
}

// buildStorageConv builds the write-side Conv: from the caller's
// schema into the physical layout with physCols columns.
func (h *History) buildStorageConv(src *Schema, physCols int) (*Conv, error) {
	out, err := h.PhysByCount(physCols)
	if err != nil {
		return nil, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	key := storageKey{src: src, physCols: physCols}
	if cv, ok := h.storage[key]; ok {
		return cv, nil
	}
	// The cache is keyed by caller schema pointers, which nothing forces
	// to be pointer-stable; bound it so callers that build a fresh
	// Schema per batch cannot grow it without limit.
	if len(h.storage) >= schemaCacheLimit {
		h.storage = make(map[storageKey]*Conv)
	}
	cv := newConv(out, src)
	if !cv.identity {
		for i := 0; i < out.NumColumns(); i++ {
			c := out.Column(i)
			if j := src.ColumnIndex(c.Name); j >= 0 {
				if src.Column(j) != c {
					return nil, fmt.Errorf("record: column %q changed shape between schema versions", c.Name)
				}
				cv.srcOff[i] = src.ColumnOffset(j)
			} else {
				cv.defaults[i] = h.cols[i].def
			}
		}
		// Every source column must land somewhere in the target layout,
		// or the write would silently lose data.
		for j := 0; j < src.NumColumns(); j++ {
			if out.ColumnIndex(src.Column(j).Name) < 0 {
				return nil, fmt.Errorf("record: column %q does not exist in the target storage layout", src.Column(j).Name)
			}
		}
	}
	h.storage[key] = cv
	return cv, nil
}

// CheckWritable reports whether records built under schema s may be
// written to a branch whose head commit carries the given schema
// epoch: every column of s must be part of the schema visible there.
// The error distinguishes columns added later (ErrColumnNotYetAdded is
// wrapped by the caller) via ColumnEpochs.
func (h *History) CheckWritable(s *Schema, epoch int) error {
	h.mu.RLock()
	if epoch > h.epoch {
		epoch = h.epoch
	}
	key := writableKey{src: s, epoch: epoch}
	err, ok := h.writable[key]
	h.mu.RUnlock()
	if ok {
		return err
	}
	vis := h.VisibleAt(epoch)
	err = nil
	if !vis.Equal(s) {
		for i := 0; i < s.NumColumns(); i++ {
			c := s.Column(i)
			j := vis.ColumnIndex(c.Name)
			if j < 0 {
				err = fmt.Errorf("record: column %q is not in the schema visible at epoch %d", c.Name, epoch)
				break
			}
			if vis.Column(j) != c {
				err = fmt.Errorf("record: column %q changed shape between schema versions", c.Name)
				break
			}
		}
	}
	h.mu.Lock()
	if len(h.writable) >= schemaCacheLimit {
		h.writable = make(map[writableKey]error)
	}
	h.writable[key] = err
	h.mu.Unlock()
	return err
}

// schemaCacheLimit bounds the pointer-keyed memo maps (writable checks
// and storage conversions): schemas are few in practice — the cached
// VisibleAt/PhysByCount instances — but callers may legally build fresh
// ones, and an unbounded memo would leak one entry per instance.
const schemaCacheLimit = 128
