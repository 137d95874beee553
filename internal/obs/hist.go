// Package obs is QO-Advisor's stdlib-only observability toolkit:
// lock-free log₂-bucketed latency histograms with percentile
// estimation, a hand-rolled Prometheus text-format exposition builder,
// a request-scoped stage tracer emitting Chrome-trace/perfetto JSON,
// and build-info introspection (logging is log/slog). Every
// serving layer (HTTP middleware, WAL group commit, reward ingestion,
// checkpointing, replication tailing) records into these primitives;
// internal/serve assembles them into GET /metrics and /v2/stats.
//
// The histogram is the load-bearing piece: recording is two atomic
// adds into a striped fixed bucket array (no locks, no allocations),
// so it can sit on the rank hot path, and snapshots are mergeable so
// per-shard or per-stage histograms can aggregate into one exposition
// series.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// NumHistBuckets is the fixed bucket count of every Histogram. Bucket
// i holds durations whose nanosecond value has bit-length i — i.e.
// [2^(i-1), 2^i) ns — so bucket bounds double: ~1ns resolution at the
// bottom, bucket 41 ending at 2^41 ns ≈ 36.6 minutes. Anything longer
// clamps into the last bucket (exposed as +Inf in Prometheus form).
const NumHistBuckets = 42

// histStripes is the number of independently-updated copies of the
// counters inside a Histogram. A single shared counter array turns
// into a cache-line ping-pong under concurrent recording (every core
// pays the full remote-acquisition latency per atomic add, ~100ns+ on
// the rank hot path), so observers spread across stripes and Snapshot
// folds them back together. Must be a power of two.
const histStripes = 8

type histStripe struct {
	sum     atomic.Uint64 // total nanoseconds
	buckets [NumHistBuckets]atomic.Uint64
	_       [40]byte // round to a cache-line multiple so stripes don't share lines
}

// Histogram is a lock-free latency histogram: log₂ buckets over
// nanosecond durations, atomic counters, constant-time recording.
// The zero value is ready to use. Safe for concurrent use.
//
// Two deliberate structural choices keep the hot path cheap:
//
//   - No separate count field: the observation count is the sum of the
//     buckets, computed at snapshot time, so Observe is two atomic adds
//     and a snapshot's count always agrees with its buckets.
//   - Counters are striped (see histStripes), with the stripe chosen
//     from the low bits of the observed duration itself. At nanosecond
//     clock resolution those bits are effectively uniform for real
//     latencies, so concurrent observers scatter across stripes without
//     spending a single extra instruction on goroutine-local state.
type Histogram struct {
	stripes [histStripes]histStripe
}

// bucketIndex maps a nanosecond value to its bucket.
func bucketIndex(ns uint64) int {
	i := bits.Len64(ns)
	if i >= NumHistBuckets {
		return NumHistBuckets - 1
	}
	return i
}

// BucketUpperNanos returns bucket i's exclusive upper bound in
// nanoseconds. The last bucket is unbounded (+Inf) and returns 0.
func BucketUpperNanos(i int) uint64 {
	if i >= NumHistBuckets-1 {
		return 0
	}
	return uint64(1) << i
}

// Observe records one duration. Negative durations clamp to zero.
// Two atomic adds into a duration-selected stripe — no locks, no
// allocations — so it is safe on hot paths (the ≤3%-overhead budget
// of the rank path).
func (h *Histogram) Observe(d time.Duration) {
	ns := uint64(0)
	if d > 0 {
		ns = uint64(d)
	}
	s := &h.stripes[ns&(histStripes-1)]
	s.sum.Add(ns)
	s.buckets[bucketIndex(ns)].Add(1)
}

// ObserveSince records the elapsed time since start.
func (h *Histogram) ObserveSince(start time.Time) { h.Observe(time.Since(start)) }

// Snapshot folds the stripes into an immutable, mergeable view.
// Counters are read individually (not under a lock), so a snapshot
// taken during concurrent recording may be off by in-flight
// observations — fine for monitoring. Count is derived from the
// bucket sums, so it always agrees with the buckets; only Sum can
// lag by races in flight.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for j := range h.stripes {
		st := &h.stripes[j]
		s.Sum += st.sum.Load()
		for i := range st.buckets {
			s.Buckets[i] += st.buckets[i].Load()
		}
	}
	for _, c := range s.Buckets {
		s.Count += c
	}
	return s
}

// HistSnapshot is a point-in-time copy of a Histogram, safe to merge
// and query.
type HistSnapshot struct {
	Count   uint64
	Sum     uint64 // nanoseconds
	Buckets [NumHistBuckets]uint64
}

// Merge accumulates other into s (for aggregating shard- or
// stage-level histograms into one series).
func (s *HistSnapshot) Merge(other HistSnapshot) {
	s.Count += other.Count
	s.Sum += other.Sum
	for i := range s.Buckets {
		s.Buckets[i] += other.Buckets[i]
	}
}

// SnapshotFromParts rebuilds a HistSnapshot from its raw wire parts
// (sum in nanoseconds plus per-bucket counts) — the inverse of putting
// a snapshot on the wire for fleet aggregation. Count is derived from
// the buckets, matching Snapshot's invariant. Buckets beyond
// NumHistBuckets collapse into the unbounded tail bucket; shorter
// slices leave the remainder zero.
func SnapshotFromParts(sumNanos uint64, buckets []uint64) HistSnapshot {
	s := HistSnapshot{Sum: sumNanos}
	for i, c := range buckets {
		if i >= NumHistBuckets {
			i = NumHistBuckets - 1
		}
		s.Buckets[i] += c
	}
	for _, c := range s.Buckets {
		s.Count += c
	}
	return s
}

// CountBelow estimates how many observations were at or below d, by
// linear interpolation inside the bucket containing d (the CDF
// counterpart of Quantile). Samples in the unbounded tail bucket are
// never counted — their true values are unknowable — so a threshold
// past the last bounded bucket undercounts rather than lies.
func (s HistSnapshot) CountBelow(d time.Duration) float64 {
	if s.Count == 0 || d < 0 {
		return 0
	}
	ns := uint64(d)
	idx := bucketIndex(ns)
	below := float64(0)
	for i := 0; i < idx; i++ {
		below += float64(s.Buckets[i])
	}
	if idx == NumHistBuckets-1 {
		return below
	}
	if idx == 0 {
		// Bucket 0 holds only zero-duration samples; all are <= d.
		return below + float64(s.Buckets[0])
	}
	lower := float64(uint64(1) << (idx - 1))
	upper := float64(uint64(1) << idx)
	frac := (float64(ns) - lower) / (upper - lower)
	return below + frac*float64(s.Buckets[idx])
}

// SumSeconds returns the total observed time in seconds.
func (s HistSnapshot) SumSeconds() float64 { return float64(s.Sum) / float64(time.Second) }

// Mean returns the average observed duration (0 when empty).
func (s HistSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.Sum / s.Count)
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear
// interpolation inside the covering bucket: find the bucket where the
// cumulative count crosses q·Count, then interpolate between its
// bounds by the fraction of the bucket's population below the target
// rank. Log₂ buckets bound the relative error at 2x worst-case (one
// bucket spans a doubling); in practice estimates land well inside
// that because traffic clusters. Returns 0 when the histogram is
// empty.
func (s HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(s.Count)
	cum := uint64(0)
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= target {
			lower := float64(0)
			if i > 0 {
				lower = float64(uint64(1) << (i - 1))
			}
			upper := float64(uint64(1) << i)
			if i == NumHistBuckets-1 {
				// Unbounded tail bucket: report its lower bound (we cannot
				// know how far past it the clamped samples went).
				upper = lower
			}
			frac := (target - float64(cum)) / float64(c)
			return time.Duration(math.Round(lower + frac*(upper-lower)))
		}
		cum += c
	}
	// Unreachable for snapshots (Count is derived from the buckets),
	// but hand-built HistSnapshot values may disagree; report the
	// highest populated bound.
	for i := NumHistBuckets - 1; i >= 0; i-- {
		if s.Buckets[i] > 0 {
			return time.Duration(uint64(1) << i)
		}
	}
	return 0
}
