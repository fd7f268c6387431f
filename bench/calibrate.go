package main

import (
	"math"
	"time"
)

// The box this benchmark runs on changes speed: its two virtual CPUs slow
// down by up to 1.8x for seconds at a time and by 1.4x for minutes at a
// time, for everything at once (search, scan and a plain loop alike). Ten
// runs of identical code then spread 15–30% in raw milliseconds, which is
// wider than any regression bound the benchmark may set. So every time
// metric is reported in calibrated time: the measured time multiplied by
// how much faster than nominal the box was while it was measured, which a
// fixed loop owned by the benchmark, timed beside the measured work,
// tells. A change to the repository cannot move the loop, only the box
// can. The raw value is kept beside each calibrated one in the result
// file.

const (
	// calibrationLen doubles are summed through math.Exp by one loop: 1 MiB,
	// so the loop both computes and streams, as the measured code does.
	calibrationLen = 1 << 17
	// calibrationNominalMs is the loop's median time on the reference box
	// in its fast state; a run on that box in that state has factor 1.
	calibrationNominalMs = 0.8
	// calibrationLoops are timed straight after a measured phase that the
	// loop cannot be interleaved with. After, not before: a core that has
	// just been idle runs the loop 1.7x slower for its first half second,
	// which says nothing about the phase that follows.
	calibrationLoops = 100
)

type calibrator struct {
	buf  []float64
	sink float64
}

func newCalibrator() *calibrator {
	c := &calibrator{buf: make([]float64, calibrationLen)}
	for i := range c.buf {
		c.buf[i] = float64(i%1000) * 1e-3
	}
	return c
}

// loop runs the fixed loop once and returns its time in milliseconds.
func (c *calibrator) loop() float64 {
	t0 := time.Now()
	sum := 0.0
	for _, v := range c.buf {
		sum += math.Exp(v)
	}
	c.sink += sum
	return ms(time.Since(t0))
}

// loops appends n loop times to dst.
func (c *calibrator) loops(dst []float64, n int) []float64 {
	for i := 0; i < n; i++ {
		dst = append(dst, c.loop())
	}
	return dst
}

// factor times calibrationLoops loops and returns the speed factor of
// the box now.
func (c *calibrator) factor() float64 { return speedFactor(c.loops(nil, calibrationLoops)) }

// speedFactor is what a time measured beside the given loop times is
// multiplied by: below 1 when the box was slower than nominal.
func speedFactor(loopMs []float64) float64 { return calibrationNominalMs / median(loopMs) }
