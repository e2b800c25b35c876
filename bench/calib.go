package main

import (
	"sort"
	"time"
)

// The reference VM is shared: the same binary's round rate drifts by tens
// of percent over minutes, and a pure-CPU loop beside it drifts the same
// way. So every timing is reported in reference time: beside each block of
// rounds (and each set-up) the driver times a fixed kernel that touches no
// repository code, and scales the block's wall time by how fast the kernel
// ran compared with calibRefRate. On an undisturbed reference box the factor
// is 1 and the numbers are plain wall-clock; on a slowed one they estimate
// what the undisturbed box would read. A change to the program cannot move
// the kernel, so it cannot hide in the normalization. In sizing this took
// the interquartile spread of ten same-seed runs from 10.0 % to 3.9 %
// (sim_heavy) and from 7.6 % to 3.4 % (fanout_heavy).
//
// bench.host_speed (per-layer list, and printed by every run) is the
// factor, so raw wall-clock values can be recovered: raw time = reported
// time / host_speed, raw rate = reported rate × host_speed.

// calibRefRate is the kernel's rate, in kernels per second, on the 2-vCPU
// reference VM at the time the first values were recorded.
const calibRefRate = 27000.0

// calibKernels is how many kernels one measurement runs: about 4 ms, small
// beside a block (40-150 ms) and a set-up.
const calibKernels = 80

// calibrator is the fixed kernel: a dependent walk over a 128 KiB
// permutation (cache and memory latency), map updates and a small sort
// (branches, hashing) — the mix the simulator and the serving tiers are
// made of. It allocates nothing after construction.
type calibrator struct {
	next  []uint32
	m     map[int]int
	src   []int
	buf   []int
	state uint32
	sink  int
}

func newCalibrator() *calibrator {
	const n = 1 << 15
	c := &calibrator{next: make([]uint32, n), m: make(map[int]int, 1024), src: make([]int, 256), buf: make([]int, 256)}
	// A single-cycle permutation: a full-period linear congruence modulo n.
	for i := range c.next {
		c.next[i] = uint32((i*40505 + 24691) % n)
	}
	for i := range c.src {
		c.src[i] = i * 7919 % 1009
	}
	for i := 0; i < 1024; i++ {
		c.m[i] = i
	}
	return c
}

func (c *calibrator) kernel() {
	p := c.state
	for i := 0; i < 4000; i++ {
		p = c.next[p]
	}
	c.state = p
	for i := 0; i < 1000; i++ {
		c.m[(i*7919+int(p))&1023] += i
	}
	copy(c.buf, c.src)
	sort.Ints(c.buf)
	c.sink += c.buf[int(p)&255]
}

// speed runs the kernel and returns the host's speed relative to the
// reference (1 = reference, 0.5 = half as fast).
func (c *calibrator) speed() float64 {
	t0 := time.Now()
	for i := 0; i < calibKernels; i++ {
		c.kernel()
	}
	return calibKernels / time.Since(t0).Seconds() / calibRefRate
}
