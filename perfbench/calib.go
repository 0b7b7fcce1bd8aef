package main

import "time"

// Host-speed calibration. On a shared host the speed of the same code
// drifts by tens of percent from minute to minute (a neighbour on the
// sibling hyperthread, in the shared cache, or on the memory bus). A
// fixed reference kernel timed next to every repetition tracks that
// drift, and each repetition's times are scaled by
// calNominal / (time of the reference kernel), so that they read as on
// a host that runs the kernel in calNominal. The kernel is this file's
// code only: a change to the repository moves the workload's times but
// not the kernel's.
//
// The kernel is map-heavy Go code: hashing, data-dependent branches and
// loads over a few MB, like the simulator's inner loop. Of the kernels
// tried (a latency-bound ALU chain, random read-modify-writes over
// 128 KB and 16 MB tables, a toy bytecode interpreter, and this one), it
// correlated best with repetition times (r = 0.85 on campaign, 0.83 on
// grid) and cut the spread of run medians the most. It runs on one
// goroutine: two copies at once on the 2-vCPU development host took
// 1.5-3x as long as one, which measures their contention with each
// other rather than the host.

// calNominal is about the median time of one calibrate call on the
// development host (README.md, "Host-speed scaling"). It only sets the
// scale: parent and change share it.
const calNominal = 150 * time.Millisecond

// calOps is the number of map operations of one kernel call. Halving it
// made the speed factors noisier than the host.
const calOps = 3_000_000

// calMap is the kernel's map, sized once so that the kernel allocates
// nothing and does not depend on the GC.
var calMap = make(map[uint32]uint32, 1<<16)

// calSink keeps the kernel's result live.
var calSink int

// calibrate runs the reference kernel once and returns its time:
// inserts, lookups and deletes keyed by a xorshift stream over 64 K
// keys.
func calibrate() time.Duration {
	start := time.Now()
	clear(calMap)
	x := uint32(7)
	for i := 0; i < calOps; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		k := x & 0xffff
		calMap[k] += x
		if calMap[k^0x55]&1 == 1 {
			delete(calMap, k>>1)
		}
	}
	calSink += len(calMap)
	return time.Since(start)
}

// speedFactor is calNominal over a measured kernel time: below 1 when
// the host runs slower than nominal.
func speedFactor(cal time.Duration) float64 {
	return float64(calNominal) / float64(cal)
}
