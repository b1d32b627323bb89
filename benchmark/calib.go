package main

import (
	"cmp"
	"encoding/binary"
	"runtime"
	"slices"
	"strconv"
	"time"
)

// Host calibration.
//
// The sandbox this benchmark is gated on is a 2-vCPU microVM whose
// guest is idle but whose host is not. With the other vCPU idle, the
// process moves between two speed levels — about 1.35x apart for a
// tight loop, 1.4-1.8x for the product's code — that last from a second
// to longer than a run, with millisecond bursts on top. Raw per-run
// medians then spread 14-22% on average between runs of the same code
// (interquartile over median; single metrics up to 50%), and no bound a
// regression gate may use survives that. So every timed block is
// bracketed by two runs of a fixed ~1.5 ms kernel and scaled by
// calibRefMs over the mean of the two kernel times, which brings the
// average to about 5% (results/noise_raw_vs_scaled.json).
//
// What the kernel is made of decides how well it tracks: timed apart
// over forty runs, a tight loop over an array with a checksum and a
// chain of dependent DRAM loads each left twice the spread that updates
// of a Go map did, because the slow level costs branchy, call-heavy Go
// code more than it costs a tight loop. The kernel is therefore Go code
// of the product's kind (see run), next to the block it scales.
//
// A product change must not be able to move the kernel, or the scaling
// would hide the change. So the kernel shares no code with the product,
// allocates nothing (it can neither trigger a collection nor be charged
// an allocation assist; smoke_test.go holds it to that), and each
// kernel run follows a forced runtime.GC(): a collection the block's
// garbage started is finished before the kernel is timed, and the
// caches hold the collector's traces, not the block's, before both
// kernel runs alike. The price is that the timed blocks start on a
// collected heap and rarely see a collection of their own; what a
// change adds to the collector's work shows in allocs_per_read_op and
// alloc_kb_per_read_op instead.
//
// The raw medians are reported beside the gated ones as raw.<metric> in
// the traced run.

// calibRefMs is the kernel's median time on the reference sandbox. It
// only fixes the scale, so that a scaled value reads like the raw
// milliseconds of a typical run.
const calibRefMs = 1.5

type calibrator struct {
	rows  []byte
	keyed map[int64]int64
	pairs [][2]int64
	order [][2]int64
	text  []byte
	sink  uint64
	units []float64 // every kernel time, ms
}

func newCalibrator() *calibrator {
	c := &calibrator{rows: make([]byte, 512<<10), keyed: make(map[int64]int64, 1<<16),
		pairs: make([][2]int64, 2400), order: make([][2]int64, 2400), text: make([]byte, 0, 64<<10)}
	for i := range c.rows {
		c.rows[i] = byte(i * 131)
	}
	for i := int64(0); i < 1<<16; i++ {
		c.keyed[i*7919] = i
	}
	for i := range c.pairs {
		c.pairs[i] = [2]int64{int64(mix(uint64(i)) >> 20), int64(i)}
	}
	return c
}

// field reads one fixed-width column of a row the way a record getter
// does: through a call, with its bounds checks.
//
//go:noinline
func field(row []byte, off, width int) uint64 {
	if width == 4 {
		return uint64(binary.LittleEndian.Uint32(row[off:]))
	}
	return binary.LittleEndian.Uint64(row[off:])
}

// run is the kernel itself: updates of existing keys in a 64K-entry Go
// map, a row-at-a-time scan through a callback with field getters and
// branches, a comparator sort, and number formatting into a reused
// buffer. It allocates nothing (tested).
func (c *calibrator) run() {
	var acc uint64
	for i := int64(0); i < 9000; i++ {
		k := (i*104729 + int64(c.sink&1023)) & (1<<16 - 1) * 7919
		c.keyed[k] += i
	}
	visit := func(row []byte) bool {
		if field(row, 16, 4)%24 < 8 && field(row, 28, 8)%100 < 60 {
			acc += field(row, 0, 8) + field(row, 8, 8)
			return true
		}
		return field(row, 36, 4)&1 == 0
	}
	for pass := 0; pass < 2; pass++ {
		for i := 0; i+160 <= len(c.rows); i += 160 {
			if !visit(c.rows[i : i+160]) {
				acc++
			}
		}
	}
	copy(c.order, c.pairs)
	slices.SortFunc(c.order, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	acc += uint64(c.order[len(c.order)/2][1])
	c.text = c.text[:0]
	for _, p := range c.pairs[:1100] {
		c.text = append(c.text, `{"id":`...)
		c.text = strconv.AppendInt(c.text, p[0], 10)
		c.text = append(c.text, `,"amt":`...)
		c.text = strconv.AppendFloat(c.text, float64(p[0]%400000)/4, 'g', -1, 64)
		c.text = append(c.text, '}', ',')
	}
	c.sink = acc + uint64(len(c.text))
}

// unit collects the heap, runs the kernel once and returns its time in
// milliseconds.
func (c *calibrator) unit() float64 {
	runtime.GC()
	t0 := time.Now()
	c.run()
	ms := time.Since(t0).Seconds() * 1e3
	c.units = append(c.units, ms)
	return ms
}

// timing is a block's raw busy time and the kernel times around it.
type timing struct {
	busy  time.Duration
	calib float64 // sum of bracketing kernel times, ms
	n     int     // kernel runs
}

// measure times fn between two kernel runs.
func (c *calibrator) measure(t *timing, fn func()) {
	before := c.unit()
	t0 := time.Now()
	fn()
	t.busy += time.Since(t0)
	t.calib += before + c.unit()
	t.n += 2
}

// scale converts raw nanoseconds to host-calibrated ones.
func (t *timing) scale() float64 { return calibRefMs / (t.calib / float64(t.n)) }
