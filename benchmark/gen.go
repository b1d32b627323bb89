package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"decibel"
)

// The generator and the reference model.
//
// A row's content is a pure function of (seed, pk, state): the model
// therefore stores no rows, only one state number per primary key per
// branch, and regenerates any field on demand. The seed decides which
// row gets which values, not how many rows get them (see perm), so the
// workload and not the seed sets result sizes and, with them, the
// counted metrics. State 0 is "never
// written here", states 1..n are the n-th written version, stateDead
// is a delete. Every primary key has a single writer at any time (the
// branch that holds its newest state — see the lanes below), so its
// history is linear, a three-way merge of two branches always resolves
// to the later state, and the model's merge is an element-wise max.
// That keeps the model a plain slice copy per branch: obviously
// correct, and cheap enough to recompute expectations every round.

const (
	table     = "events"
	stateDead = int32(1) << 30
	numCats   = 24
	numRegion = 50
	padBytes  = 96
)

// Column positions in the events schema.
const (
	colID = iota
	colTS
	colCat
	colRegion
	colAmt
	colQty
	colTag
	colPad
)

// eventsSchema is events(id, ts, cat, region, amt, qty, tag, pad),
// 159 bytes a row: ts ascends with id (delta planes), cat/region/pad
// are low-cardinality (dictionary planes), amt is a float the zone
// maps can bound, tag is a prefixed byte string.
func eventsSchema() *decibel.Schema {
	return decibel.NewSchema().
		Int64("id").Int64("ts").Int32("cat").Bytes("region", 8).
		Float64("amt").Int32("qty").Bytes("tag", 16).Bytes("pad", padBytes).
		MustBuild()
}

func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// fields are the generated column values of one row version.
type fields struct {
	ts     int64
	cat    int64
	region int
	amt    float64
	qty    int64
	tag    uint64
}

type generator struct {
	seed    uint64
	rows    uint64 // base rows: primary keys below this are ingested by the mainline
	half    uint   // perm works on 2*half bits, the first even width that holds rows
	schema  *decibel.Schema
	regions [numRegion][]byte
	pads    [numCats][]byte
}

func newGenerator(seed int64, rows int) *generator {
	g := &generator{seed: mix(uint64(seed)), rows: uint64(rows), half: 1, schema: eventsSchema()}
	for uint64(1)<<(2*g.half) < g.rows {
		g.half++
	}
	for i := range g.regions {
		g.regions[i] = []byte(fmt.Sprintf("rg-%05d", i))
	}
	for i := range g.pads {
		p := make([]byte, padBytes)
		copy(p, fmt.Sprintf("pad-for-category-%02d-", i))
		for j := 20; j < padBytes; j++ {
			p[j] = byte('a' + (i+j)%26)
		}
		g.pads[i] = p
	}
	return g
}

// perm is a seed-keyed bijection on [0, rows): a four-round Feistel
// network over the next even bit width, walked until it lands in range.
func (g *generator) perm(x uint64) uint64 {
	mask := uint64(1)<<g.half - 1
	for {
		l, r := x>>g.half, x&mask
		for round := uint64(0); round < 4; round++ {
			l, r = r, l^mix(r^g.seed+round)&mask
		}
		if x = l<<g.half | r; x < g.rows {
			return x
		}
	}
}

// fieldsOf regenerates a row version. amt is a multiple of 0.25 so
// float sums are exact in any order; ts is strictly increasing in pk.
// The first version of a base row takes cat and amt from its rank in
// perm, so every seed deals the same multiset of (cat, amt) pairs over
// the base rows — each category rows/24 times, amt evenly spaced within
// it — and a predicate over them matches the same number of rows.
// Later versions and inserted rows draw both from the hash.
func (g *generator) fieldsOf(pk int64, st int32) fields {
	h := mix(g.seed ^ uint64(pk)*0xD6E8FEB86659FD93 ^ uint64(st)<<40)
	h2 := mix(h)
	cat, quarter := h%numCats, (h>>16)%400000
	if st == 1 && uint64(pk) < g.rows {
		rank := g.perm(uint64(pk))
		cat, quarter = rank%numCats, rank/numCats*400000/((g.rows+numCats-1)/numCats)
	}
	return fields{
		ts:     pk*1000 + int64(h2%1000),
		cat:    int64(cat),
		region: int((h >> 8) % numRegion),
		amt:    float64(quarter) / 4,
		qty:    int64((h >> 40) % 100),
		tag:    h2 >> 16,
	}
}

// fill writes the row version into rec (of the events schema).
func (g *generator) fill(rec *decibel.Record, pk int64, st int32) {
	f := g.fieldsOf(pk, st)
	rec.SetPK(pk)
	rec.Set(colTS, f.ts)
	rec.Set(colCat, f.cat)
	_ = rec.SetBytes(colRegion, g.regions[f.region]) // fits by construction
	rec.SetFloat64(colAmt, f.amt)
	rec.Set(colQty, f.qty)
	var tag [16]byte
	copy(tag[:], "tag-")
	const hexdigits = "0123456789abcdef"
	for i := 0; i < 12; i++ {
		tag[4+i] = hexdigits[(f.tag>>(4*uint(i)))&15]
	}
	_ = rec.SetBytes(colTag, tag[:])
	_ = rec.SetBytes(colPad, g.pads[f.cat])
}

// write is one row change: st == stateDead deletes pk, anything else
// upserts the version (pk, st).
type write struct {
	pk int64
	st int32
}

type opKind uint8

const (
	opCommit opKind = iota
	opBranch
	opMerge
	opCompact
)

// op is one step of a load script or of a write block.
type op struct {
	kind   opKind
	branch string // commit target, new branch name, or merge destination
	from   string // branch parent, or merge source
	writes []write
}

// model is the reference: one state slice per branch head.
type model struct {
	heads map[string][]int32
	order []string // creation order == branch ID order
}

func newModel() *model {
	return &model{heads: map[string][]int32{decibel.Master: nil}, order: []string{decibel.Master}}
}

func (m *model) state(branch string, pk int64) int32 {
	h := m.heads[branch]
	if pk >= int64(len(h)) {
		return 0
	}
	return h[pk]
}

func live(st int32) bool { return st > 0 && st < stateDead }

func (m *model) apply(o op) {
	switch o.kind {
	case opCommit:
		h := m.heads[o.branch]
		for _, w := range o.writes {
			for int64(len(h)) <= w.pk {
				h = append(h, 0)
			}
			h[w.pk] = w.st
		}
		m.heads[o.branch] = h
	case opBranch:
		m.heads[o.branch] = append([]int32(nil), m.heads[o.from]...)
		m.order = append(m.order, o.branch)
	case opMerge:
		into, from := m.heads[o.branch], m.heads[o.from]
		for len(into) < len(from) {
			into = append(into, 0)
		}
		for i, st := range from {
			if st > into[i] {
				into[i] = st
			}
		}
		m.heads[o.branch] = into
	}
}

// liveRows counts the live rows of a branch head.
func (m *model) liveRows(branch string) int {
	n := 0
	for _, st := range m.heads[branch] {
		if live(st) {
			n++
		}
	}
	return n
}

// lane is a branch's write set: the base rows pk < limit with
// pk % lanes == id, walked with a seed-derived stride so no key repeats
// within a commit, plus a FIFO of the branch's own inserts that its
// deletes consume. Lanes are disjoint, which is what keeps every
// primary key single-writer and every merge conflict-free.
type lane struct {
	id, lanes int64
	size      int64 // base rows in the lane
	pos, step int64
	inserted  []int64
}

func (l *lane) nextUpdate() int64 {
	l.pos = (l.pos + l.step) % l.size
	return l.pos*l.lanes + l.id
}

// script builds op sequences against the model it keeps in step.
type script struct {
	g        *generator
	m        *model
	lanes    map[string]*lane
	nLanes   int64
	nextBase int64 // next base row, ingested by the mainline: pk < rows
	nextPK   int64 // next inserted row: pk >= rows
	ops      []op
}

func newScript(g *generator, w *workload) *script {
	return &script{g: g, m: newModel(), lanes: map[string]*lane{},
		nLanes: int64(1 + w.branches + w.pool), nextPK: int64(w.rows)}
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// own gives branch a lane over the base rows below limit: the next
// free one, or its own again with a raised limit.
func (s *script) own(branch string, limit int64) {
	l := s.lanes[branch]
	if l == nil {
		l = &lane{id: int64(len(s.lanes)), lanes: s.nLanes}
		if l.id >= s.nLanes {
			panic("benchmark: more writer branches than lanes")
		}
		s.lanes[branch] = l
	}
	l.size = (limit - l.id + s.nLanes - 1) / s.nLanes
	if l.size < 2 {
		panic("benchmark: lane too small")
	}
	h := mix(s.g.seed ^ uint64(l.id)*977)
	l.step = int64(h%uint64(l.size-1)) + 1
	for gcd(l.step, l.size) != 1 {
		l.step++
	}
	l.pos = int64(mix(h) % uint64(l.size))
}

func (s *script) emit(o op) op {
	s.m.apply(o)
	s.ops = append(s.ops, o)
	return o
}

// ingest commits n fresh base rows (the next n primary keys) on branch.
func (s *script) ingest(branch string, n int) {
	ws := make([]write, n)
	for i := range ws {
		ws[i] = write{pk: s.nextBase, st: 1}
		s.nextBase++
	}
	s.emit(op{kind: opCommit, branch: branch, writes: ws})
}

// edit builds one transaction on branch: updates of rows in its lane,
// inserts of fresh keys, deletes of its own oldest inserts.
func (s *script) edit(branch string, updates, inserts, deletes int) op {
	l := s.lanes[branch]
	ws := make([]write, 0, updates+inserts+deletes)
	for i := 0; i < updates; i++ {
		pk := l.nextUpdate()
		ws = append(ws, write{pk: pk, st: s.m.state(branch, pk) + 1})
	}
	for i := 0; i < inserts; i++ {
		ws = append(ws, write{pk: s.nextPK, st: 1})
		l.inserted = append(l.inserted, s.nextPK)
		s.nextPK++
	}
	for i := 0; i < deletes && len(l.inserted) > inserts; i++ {
		ws = append(ws, write{pk: l.inserted[0], st: stateDead})
		l.inserted = l.inserted[1:]
	}
	return s.emit(op{kind: opCommit, branch: branch, writes: ws})
}

func (s *script) branch(from, name string) {
	s.emit(op{kind: opBranch, branch: name, from: from})
}

func (s *script) merge(into, from string) op {
	return s.emit(op{kind: opMerge, branch: into, from: from})
}

// take returns the ops emitted since the last take.
func (s *script) take() []op {
	ops := s.ops
	s.ops = nil
	return ops
}

// Branching patterns (the paper's Section 4.1 shapes). Each returns the
// names of the read branches the query blocks rotate over; the pool
// branches that write blocks merge from are forked last, off master.

func (s *script) finish(w *workload) {
	// A backlog of master inserts, so the first write blocks already
	// have "older inserts" to delete and the live set stays constant.
	// From here on nobody else writes the mainline's lane, so it may
	// cover every base row.
	s.own(decibel.Master, int64(w.rows))
	s.edit(decibel.Master, 0, 4*w.commitRows, 0)
	for i := 0; i < w.pool; i++ {
		name := fmt.Sprintf("pool%d", i)
		s.branch(decibel.Master, name)
		s.own(name, int64(w.rows))
	}
	if w.compactSetup {
		s.emit(op{kind: opCompact})
	}
}

// chunkRows splits rows into equal ingest commits, the last one taking
// the remainder.
func chunkRows(rows, chunks, c int) int {
	if c == chunks-1 {
		return rows - rows/chunks*(chunks-1)
	}
	return rows / chunks
}

// science: analysts fork from successive mainline commits while the
// mainline keeps ingesting; each analyst edits its own lane.
func (s *script) science(w *workload) []string {
	chunks := w.branches + 4
	per := w.rows / chunks
	s.own(decibel.Master, int64(per))
	var reads []string
	for c := 0; c < chunks; c++ {
		s.ingest(decibel.Master, chunkRows(w.rows, chunks, c))
		if c >= 1 {
			s.edit(decibel.Master, per/50, 0, 0)
		}
		if k := c - 2; k >= 0 && k < w.branches {
			name := fmt.Sprintf("analyst%02d", k)
			s.branch(decibel.Master, name)
			s.own(name, s.nextBase)
			s.edit(name, w.editRows, w.editRows/10, 0)
			reads = append(reads, name)
		}
	}
	s.finish(w)
	return reads
}

// curation: dev branches fork off the mainline, feature branches fork
// off each dev branch, edit and merge back (so merge override tables
// exist); half the dev branches merge into master.
func (s *script) curation(w *workload) []string {
	const chunks = 8
	devs := w.branches / 5
	per := w.rows / chunks
	s.own(decibel.Master, int64(per))
	var reads []string
	for c := 0; c < chunks; c++ {
		s.ingest(decibel.Master, chunkRows(w.rows, chunks, c))
		if c >= 1 {
			s.edit(decibel.Master, per/50, 0, 0)
		}
		if d := c - (chunks - devs); d >= 0 {
			dev := fmt.Sprintf("dev%d", d)
			s.branch(decibel.Master, dev)
			s.own(dev, s.nextBase)
			s.edit(dev, w.editRows, w.editRows/10, 0)
			reads = append(reads, dev)
		}
	}
	for d := 0; d < devs; d++ {
		dev := fmt.Sprintf("dev%d", d)
		for f := 0; f < 4; f++ {
			feat := fmt.Sprintf("feat%d-%d", d, f)
			s.branch(dev, feat)
			s.own(feat, int64(per*(chunks-devs+1)))
			s.edit(feat, w.editRows, w.editRows/10, 0)
			s.edit(feat, w.editRows/2, 0, w.editRows/20)
			s.merge(dev, feat)
			reads = append(reads, feat)
		}
		if d%2 == 0 {
			s.merge(decibel.Master, dev)
		}
	}
	s.finish(w)
	return reads
}

// flat: every child forks off the same mainline commit.
func (s *script) flat(w *workload) []string {
	const chunks = 8
	s.own(decibel.Master, int64(w.rows))
	for c := 0; c < chunks; c++ {
		s.ingest(decibel.Master, chunkRows(w.rows, chunks, c))
	}
	var reads []string
	for k := 0; k < w.branches; k++ {
		name := fmt.Sprintf("child%02d", k)
		s.branch(decibel.Master, name)
		s.own(name, int64(w.rows))
		s.edit(name, w.editRows, w.editRows/10, 0)
		reads = append(reads, name)
	}
	s.finish(w)
	return reads
}

func (s *script) load(w *workload) []string {
	switch w.pattern {
	case "science":
		return s.science(w)
	case "curation":
		return s.curation(w)
	default:
		return s.flat(w)
	}
}

// hashOps digests an op sequence; two generations from one seed must
// agree on it byte for byte.
func hashOps(g *generator, ops []op) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, o := range ops {
		put(uint64(o.kind))
		h.Write([]byte(o.branch))
		h.Write([]byte(o.from))
		for _, w := range o.writes {
			put(uint64(w.pk))
			put(uint64(w.st))
			if w.st != stateDead {
				f := g.fieldsOf(w.pk, w.st)
				put(uint64(f.ts))
				put(uint64(f.cat))
				put(math.Float64bits(f.amt))
				put(f.tag)
			}
		}
	}
	return h.Sum64()
}
