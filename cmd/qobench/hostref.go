package main

import "time"

// hostRefIters sizes the reference loop at about 0.2 s on the reference
// box (-smoke runs a 200th of it, like everything else). One 20 ms slice of it reads either 17.6 or 22.5 ms there,
// depending on what the neighbour on the core is doing at that moment;
// 0.2 s averages over that, so two readings differ only when the
// neighbour's share of the core changed.
const hostRefIters = 120_000_000

var hostRefSink uint64

// hostRef times a fixed pure-CPU loop (no memory traffic, no allocation,
// no code of the program under test), in ms. It is taken before and
// after each body and moves no end-to-end metric: two readings more than
// a tenth apart say the host changed speed during the body, and the run
// is printed unstable=true.
func hostRef(iters int) float64 {
	x := uint64(1)
	t := time.Now()
	for k := 0; k < iters; k++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	d := time.Since(t)
	hostRefSink += x
	return ms(d)
}

// hostRefDrift is the ratio of the slower reading to the faster one.
func hostRefDrift(before, after float64) float64 {
	if before <= 0 || after <= 0 {
		return 0
	}
	return max(before, after) / min(before, after)
}
