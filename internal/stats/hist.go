package stats

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
)

// Hist is a log2-bucketed latency histogram: cheap enough to record every
// demand access, precise enough for P50/P95/P99 tail reporting.
type Hist struct {
	buckets [64]uint64
	count   uint64
	sum     uint64
	max     uint64
}

// Observe records one latency sample. It runs once per demand access, so
// the bucket index is a single hardware bit-length instruction rather than
// a shift loop.
func (h *Hist) Observe(v uint64) {
	h.buckets[bits.Len64(v)]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of samples.
func (h *Hist) Count() uint64 { return h.count }

// Buckets returns a copy of the log2 bucket counts, trimmed of trailing
// zeros. Bucket b counts samples whose bit length is b.
func (h *Hist) Buckets() []uint64 {
	n := len(h.buckets)
	for n > 0 && h.buckets[n-1] == 0 {
		n--
	}
	out := make([]uint64, n)
	copy(out, h.buckets[:n])
	return out
}

// Mean returns the average sample.
func (h *Hist) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Max returns the largest sample.
func (h *Hist) Max() uint64 { return h.max }

// Quantile returns an upper bound for the q-quantile (0 < q <= 1), resolved
// to bucket granularity (the bucket's top edge).
func (h *Hist) Quantile(q float64) uint64 {
	if h.count == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(h.count)))
	var seen uint64
	for b, n := range h.buckets {
		seen += n
		if seen >= target {
			if b == 0 {
				return 0
			}
			top := uint64(1)<<b - 1
			if top > h.max {
				top = h.max
			}
			return top
		}
	}
	return h.max
}

// Render prints the non-empty buckets with a proportional bar.
func (h *Hist) Render(w io.Writer) {
	var maxN uint64
	var used []int
	for b, n := range h.buckets {
		if n > 0 {
			used = append(used, b)
			if n > maxN {
				maxN = n
			}
		}
	}
	sort.Ints(used)
	for _, b := range used {
		lo := uint64(0)
		if b > 0 {
			lo = 1 << (b - 1)
		}
		hi := uint64(1)<<b - 1
		bar := int(float64(h.buckets[b]) / float64(maxN) * 30)
		if bar == 0 {
			bar = 1
		}
		fmt.Fprintf(w, "%10d-%-10d %8d %s\n", lo, hi, h.buckets[b], bars(bar))
	}
	fmt.Fprintf(w, "samples=%d mean=%.0f p50<=%d p95<=%d p99<=%d max=%d\n",
		h.count, h.Mean(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.max)
}

func bars(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = '#'
	}
	return string(b)
}
