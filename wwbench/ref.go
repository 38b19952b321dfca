package main

import (
	"slices"
	"time"
)

// refKernel is a fixed piece of host work — sorting and hashing a
// pseudo-random array in preallocated memory — that the untraced run
// times between worlds. On a shared machine the host's speed drifts by
// 10-30% over minutes and swings within seconds, and world and kernel
// times drift largely together, so the end-to-end times are reported
// rescaled to a reference host whose kernel takes refNominal. In trials
// on a shared 2-vCPU host that took up to four fifths off their
// run-to-run spread while the host drifted, but it under-corrects large
// drifts: a host 60% slower still read about 25% slower. The kernel
// shares no code with the program, so no change to the program moves it.
type refKernel struct {
	xs  []uint64
	set map[uint64]uint64
}

func newRefKernel() *refKernel {
	return &refKernel{xs: make([]uint64, 1<<16), set: make(map[uint64]uint64, 1<<15)}
}

// run does the work once and returns its host time.
func (k *refKernel) run() time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := range k.xs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k.xs[i] = x
	}
	slices.Sort(k.xs)
	clear(k.set)
	for i, v := range k.xs {
		k.set[v&0x7fff] += uint64(i)
	}
	return time.Since(start)
}
